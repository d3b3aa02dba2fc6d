"""Differential: chunked prefill is bitwise identical to monolithic.

The stage-dispatch tentpole rests on two no-op guarantees:

* splitting a prompt into prefill chunks — one covering chunk, aligned
  windows, or a ragged tail — changes nothing observable: same
  final-position logits, same KV pages, same scheduled sequences, same
  decode StepCosts, for both KV dtypes;
* a :class:`BackendSelector` forced to ``"npu"`` with chunking disabled
  leaves the scheduler bitwise identical to a run without the
  dispatcher at all.

Both are locked down here against hand-picked grids; the CI
``fuzz-smoke`` job replays 200 seeded trials of the ``prefill.chunked``
oracle, and a planted divergence here checks that the oracle bites.
"""

import numpy as np
import pytest

from repro.llm import (
    BackendSelector,
    ContinuousBatchingScheduler,
    InferenceEngine,
    Sampler,
)
from repro.npu import DEVICES
from repro.testing.oracles import diff_arrays, get_oracle

# 12 tokens: divisible by 3/4/6 (aligned), ragged under 5/7, and both
# covering variants (== and > the prompt length) stay in range
PROMPT = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8]

CHUNK_GRID = [1, 3, 4, 5, 7, 12, 100]


def _engine(model, dtype):
    return InferenceEngine(model, batch=4, max_context=64,
                           kv_backend="paged", kv_dtype=dtype,
                           device=DEVICES["oneplus_12"])


@pytest.mark.parametrize("dtype", ["fp16", "q8"])
@pytest.mark.parametrize("chunk", CHUNK_GRID)
class TestEngineLevelParity:
    def test_logits_and_kv_pages_bitwise(self, tiny_model, dtype, chunk):
        mono = _engine(tiny_model, dtype)
        mono_logits, _ = mono.prefill(PROMPT, seq=0)
        chunked = _engine(tiny_model, dtype)
        chunk_logits = None
        for start in range(0, len(PROMPT), chunk):
            chunk_logits, _ = chunked.prefill_chunk(
                PROMPT[start:start + chunk], seq=0)
        assert diff_arrays(chunk_logits, mono_logits).bitwise_equal
        for layer in range(len(mono.cache)):
            mono_k, mono_v = mono.cache[layer].view(0)
            chunk_k, chunk_v = chunked.cache[layer].view(0)
            assert diff_arrays(chunk_k, mono_k).bitwise_equal
            assert diff_arrays(chunk_v, mono_v).bitwise_equal


@pytest.mark.parametrize("dtype", ["fp16", "q8"])
@pytest.mark.parametrize("chunk", CHUNK_GRID)
class TestSchedulerLevelParity:
    def test_sequences_costs_steps_identical(self, tiny_model, dtype, chunk):
        def run(prefill_chunk):
            sched = ContinuousBatchingScheduler(_engine(tiny_model, dtype))
            return sched.generate(
                PROMPT, n_candidates=7, max_new_tokens=9,
                sampler=Sampler(temperature=0.8, seed=23),
                length_schedule=[3, 9, 5], prefill_chunk=prefill_chunk)

        plain = run(None)
        sliced = run(chunk)
        assert sliced.sequences == plain.sequences
        assert sliced.decode_costs == plain.decode_costs
        assert sliced.n_steps == plain.n_steps
        assert sliced.live_batch_per_step == plain.live_batch_per_step
        assert [c.finish_reason for c in sliced.candidates] == \
            [c.finish_reason for c in plain.candidates]
        assert sliced.n_prefill_chunks == -(-len(PROMPT) // chunk)
        assert plain.n_prefill_chunks == 0


class TestForcedNpuNoop:
    def test_forced_npu_dispatch_is_bitwise_noop(self, tiny_model):
        device = DEVICES["oneplus_12"]

        def run(**kwargs):
            sched = ContinuousBatchingScheduler(_engine(tiny_model, "fp16"))
            return sched.generate(
                PROMPT, n_candidates=6, max_new_tokens=10,
                sampler=Sampler(temperature=0.8, seed=11), **kwargs)

        plain = run()
        forced = run(dispatch=BackendSelector(device, tiny_model.config,
                                              forced="npu"))
        assert forced.sequences == plain.sequences
        assert forced.decode_costs == plain.decode_costs
        assert forced.sim_seconds == plain.sim_seconds
        assert forced.joules == plain.joules
        assert forced.prefill_joules == plain.prefill_joules
        assert forced.live_batch_per_step == plain.live_batch_per_step
        assert forced.n_backend_switches == 0
        assert forced.migration_seconds == 0.0
        assert all(backend == "npu" for _, backend in forced.backend_steps)

    def test_unforced_dispatch_keeps_sequences(self, tiny_model):
        """Dispatch only rescales time/energy — tokens never change."""
        device = DEVICES["oneplus_12"]

        def run(**kwargs):
            sched = ContinuousBatchingScheduler(_engine(tiny_model, "fp16"))
            return sched.generate(
                PROMPT, n_candidates=6, max_new_tokens=10,
                sampler=Sampler(temperature=0.8, seed=11), **kwargs)

        plain = run()
        live = run(dispatch=BackendSelector(device, tiny_model.config),
                   prefill_chunk=4)
        assert live.sequences == plain.sequences
        assert live.decode_costs == plain.decode_costs


class TestOracleFuzz:
    def test_oracle_flags_planted_divergence(self, monkeypatch):
        """The oracle actually bites: perturb the chunked logits path
        and the comparison must fail."""
        oracle = get_oracle("prefill.chunked")
        config = {"dtype": "fp16", "batch": 2, "n_candidates": 2,
                  "prompt_len": 6, "chunk": 4, "new_tokens": 2,
                  "sampler_seed": 1}
        assert oracle.run(config).ok

        from repro.llm import InferenceEngine as Engine
        real = Engine.prefill_chunk

        def skewed(self, chunk, seq=0):
            logits, cost = real(self, chunk, seq=seq)
            return logits + np.float32(1e-3), cost

        monkeypatch.setattr(Engine, "prefill_chunk", skewed)
        result = oracle.run(config)
        assert not result.ok
        assert result.mismatch.kind == "abs"
