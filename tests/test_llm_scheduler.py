"""Unit tests for the continuous-batching scheduler and wave planner."""

import re

import numpy as np
import pytest

from repro.errors import EngineError, NPUError
from repro.llm import (
    ContinuousBatchingScheduler,
    InferenceEngine,
    Sampler,
    plan_waves,
)
from repro.llm.scheduler import ScheduledGeneration
from repro.sim import SimClock

PROMPT = [2, 7, 1, 8]


def _paged_engine(model, batch=4, max_context=64, **kw):
    return InferenceEngine(model, batch=batch, max_context=max_context,
                           kv_backend="paged", **kw)


class TestSchedulerValidation:
    def test_requires_paged_backend(self, tiny_model):
        engine = InferenceEngine(tiny_model, batch=4, max_context=32)
        with pytest.raises(EngineError, match="paged"):
            ContinuousBatchingScheduler(engine)

    def test_rejects_nonpositive_candidates(self, tiny_model):
        sched = ContinuousBatchingScheduler(_paged_engine(tiny_model))
        with pytest.raises(EngineError, match="candidate count"):
            sched.generate(PROMPT, n_candidates=0, max_new_tokens=4)

    def test_rejects_nonpositive_budget(self, tiny_model):
        sched = ContinuousBatchingScheduler(_paged_engine(tiny_model))
        with pytest.raises(EngineError, match="max_new_tokens"):
            sched.generate(PROMPT, n_candidates=2, max_new_tokens=0)

    def test_rejects_context_overflow(self, tiny_model):
        sched = ContinuousBatchingScheduler(
            _paged_engine(tiny_model, max_context=16))
        with pytest.raises(EngineError, match="exceed"):
            sched.generate(PROMPT, n_candidates=2, max_new_tokens=13)

    def test_rejects_bad_length_schedule(self, tiny_model):
        sched = ContinuousBatchingScheduler(_paged_engine(tiny_model))
        with pytest.raises(EngineError, match="length schedule"):
            sched.generate(PROMPT, n_candidates=2, max_new_tokens=8,
                           length_schedule=[3, 0])


class TestWavedGeneration:
    def test_backfills_vacated_slots(self, tiny_model):
        """N=10 on batch=4 with heterogeneous budgets: all candidates
        finish, budgets are respected, and the pool drains to zero."""
        engine = _paged_engine(tiny_model)
        sched = ContinuousBatchingScheduler(engine)
        result = sched.generate(PROMPT, n_candidates=10, max_new_tokens=12,
                                sampler=Sampler(temperature=0.8, seed=3),
                                length_schedule=[3, 7, 12, 5])
        assert isinstance(result, ScheduledGeneration)
        assert len(result.candidates) == 10
        assert result.n_admissions == 10
        budgets = [[3, 7, 12, 5][i % 4] for i in range(10)]
        for candidate in result.candidates:
            assert len(candidate.tokens) == budgets[candidate.candidate_id]
            assert candidate.finish_reason == "length"
        # someone was admitted after step 0, i.e. mid-generation backfill
        assert any(c.admitted_step > 0 for c in result.candidates)
        assert engine.cache.pool.blocks_in_use == 0
        assert result.peak_kv_bytes > 0
        assert result.prompt_tokens == len(PROMPT)

    def test_live_batch_tracks_occupancy(self, tiny_model):
        engine = _paged_engine(tiny_model)
        sched = ContinuousBatchingScheduler(engine)
        result = sched.generate(PROMPT, n_candidates=6, max_new_tokens=5,
                                sampler=Sampler(temperature=0.8, seed=1))
        assert result.n_steps == len(result.live_batch_per_step)
        assert all(1 <= b <= engine.batch
                   for b in result.live_batch_per_step)
        assert 0 < result.mean_live_batch <= engine.batch
        assert ScheduledGeneration(
            sequences=[], prefill_cost=None).mean_live_batch == 0.0

    def test_eos_retires_and_truncates(self, tiny_model):
        """Retiring on EOS stops the candidate at the EOS token."""
        probe = ContinuousBatchingScheduler(_paged_engine(tiny_model))
        free_run = probe.generate(PROMPT, n_candidates=4, max_new_tokens=10,
                                  sampler=Sampler(temperature=0.8, seed=5))
        # pick a token the free run actually emits mid-sequence
        eos_id = next(t for seq in free_run.sequences for t in seq[1:])
        sched = ContinuousBatchingScheduler(_paged_engine(tiny_model))
        result = sched.generate(PROMPT, n_candidates=4, max_new_tokens=10,
                                sampler=Sampler(temperature=0.8, seed=5),
                                eos_id=eos_id)
        eos_candidates = [c for c in result.candidates
                          if c.finish_reason == "eos"]
        assert eos_candidates, "seed 5 run should reproduce the EOS token"
        for candidate in eos_candidates:
            assert candidate.tokens[-1] == eos_id
            assert eos_id not in candidate.tokens[:-1]

    def test_peak_kv_below_contiguous_baseline(self, tiny_model):
        """The waved N=16 run peaks below a contiguous batch=8 cache."""
        engine = _paged_engine(tiny_model, batch=8)
        sched = ContinuousBatchingScheduler(engine)
        result = sched.generate(PROMPT, n_candidates=16, max_new_tokens=12,
                                sampler=Sampler(temperature=0.8, seed=2),
                                length_schedule=[3, 12, 5, 8])
        contiguous = tiny_model.new_cache(8, engine.max_context)
        assert result.peak_kv_bytes < contiguous.nbytes()

    def test_sim_seconds_accumulates(self, tiny_model):
        result = ContinuousBatchingScheduler(_paged_engine(tiny_model)) \
            .generate(PROMPT, n_candidates=4, max_new_tokens=6,
                      sampler=Sampler(temperature=0.8, seed=9))
        assert result.sim_seconds > 0.0
        assert len(result.decode_costs) == result.n_steps


class TestRunInvariants:
    """Conservation and KV no-leak are checked inside every run."""

    def _generate(self, tiny_model):
        return ContinuousBatchingScheduler(_paged_engine(tiny_model)) \
            .generate(PROMPT, n_candidates=4, max_new_tokens=3,
                      sampler=Sampler(temperature=0.8, seed=0))

    def test_kv_leak_raises_with_the_numbers(self, tiny_model, monkeypatch):
        from repro.llm.block_pool import PagedKVCache

        # the prompt anchor is never released, so its blocks stay pinned
        monkeypatch.setattr(PagedKVCache, "release_snapshot",
                            lambda cache, snapshot: None)
        with pytest.raises(EngineError,
                           match=r"KV leak: [1-9]\d* blocks \(\d+ bytes\)"):
            self._generate(tiny_model)

    @pytest.mark.parametrize("breach, counts", [
        ("lost", "3 finished (3 distinct ids) for 4 admitted"),
        ("duplicated", "5 finished (4 distinct ids) for 4 admitted")],
        ids=["lost", "duplicated"])
    def test_conservation_breach_raises_with_the_numbers(
            self, tiny_model, monkeypatch, breach, counts):
        from repro.llm import scheduler

        retire = scheduler._Run._retire

        def broken_retire(run, candidate, reason):
            retire(run, candidate, reason)
            if candidate.candidate_id == 1:
                if breach == "lost":
                    run.finished.pop()
                else:
                    run.finished.append(run.finished[-1])

        monkeypatch.setattr(scheduler._Run, "_retire", broken_retire)
        with pytest.raises(EngineError, match=re.escape(
                f"candidate conservation broken: {counts}")):
            self._generate(tiny_model)


class TestMetricBinding:
    def test_runs_bind_the_registry_installed_when_they_start(
            self, tiny_model):
        """Engines and schedulers built under one registry record a run
        into the registry installed when the run starts."""
        from repro.obs import MetricsRegistry, scope
        from repro.resilience import FaultPlan

        built_under = MetricsRegistry()
        with scope(metrics=built_under):
            sched = ContinuousBatchingScheduler(_paged_engine(tiny_model))
            lockstep = InferenceEngine(tiny_model, batch=2, max_context=32)
        fresh = MetricsRegistry()
        with scope(metrics=fresh):
            result = sched.generate(
                PROMPT, n_candidates=6, max_new_tokens=4,
                sampler=Sampler(temperature=0.8, seed=0),
                fault_plan=FaultPlan.parse("dma@1,alloc@2"))
            plain = lockstep.generate(PROMPT, max_new_tokens=4,
                                      sampler=Sampler(temperature=0.8,
                                                      seed=0))
        snap = fresh.snapshot()
        assert snap["repro.scheduler.admissions"]["value"] == 6
        assert snap["repro.scheduler.retired"]["value"] == 6
        assert snap["repro.resilience.step_retries"]["value"] == \
            result.n_retries == 1
        assert snap["repro.resilience.evictions"]["value"] == \
            result.n_evictions == 1
        assert snap["repro.slo.step_latency_seconds"]["count"] == \
            result.n_steps
        assert snap["repro.engine.decode_step_seconds"]["count"] == \
            result.n_steps + plain.n_decode_steps
        assert snap["repro.engine.generated_tokens"]["value"] == \
            plain.total_generated_tokens
        stale = [name for name in built_under.snapshot()
                 if name.startswith(("repro.scheduler.", "repro.resilience.",
                                     "repro.engine.", "repro.slo."))]
        assert stale == []


class TestWavePlanner:
    def test_continuous_never_worse_than_lockstep(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            lengths = rng.integers(1, 20, rng.integers(1, 30)).tolist()
            batch = int(rng.integers(1, 9))
            plan = plan_waves(lengths, batch)
            assert plan.continuous_steps <= plan.lockstep_steps
            assert plan.continuous_steps >= max(lengths)
            assert plan.continuous_steps >= -(-sum(lengths) // batch)
            assert plan.total_token_steps == sum(lengths)
            assert plan.steps_saved >= 0
            assert plan.speedup >= 1.0

    def test_single_wave_is_exact(self):
        plan = plan_waves([3, 9, 4], batch=4)
        assert plan.continuous_steps == plan.lockstep_steps == 9

    def test_known_backfill_win(self):
        # slots finish at 3/7 then backfill 5 and 2: makespan 9 vs 7+5=12
        plan = plan_waves([3, 7, 5, 2], batch=2)
        assert plan.continuous_steps == 9
        assert plan.lockstep_steps == 12
        assert plan.speedup == pytest.approx(12 / 9)

    def test_rejects_bad_inputs(self):
        with pytest.raises(EngineError):
            plan_waves([], batch=2)
        with pytest.raises(EngineError):
            plan_waves([3, 0], batch=2)
        with pytest.raises(EngineError):
            plan_waves([3], batch=0)


class TestSimClock:
    def test_accumulates(self):
        clock = SimClock()
        assert clock.advance(0.5) == 0.5
        assert clock.advance(0.25) == 0.75
        assert clock.n_advances == 2

    def test_rejects_negative(self):
        with pytest.raises(NPUError):
            SimClock().advance(-1e-9)


class TestChunkedPrefillAdmissions:
    """Prompt admission, dispatch wiring and their observability hooks."""

    def _dispatch(self, model, **kw):
        from repro.llm import BackendSelector
        from repro.npu import DEVICES
        return BackendSelector(DEVICES["oneplus_12"], model.config, **kw)

    def test_rejects_nonpositive_prefill_chunk(self, tiny_model):
        sched = ContinuousBatchingScheduler(_paged_engine(tiny_model))
        with pytest.raises(EngineError, match="prefill_chunk"):
            sched.generate(PROMPT, n_candidates=2, max_new_tokens=4,
                           prefill_chunk=0)

    def test_rejects_bad_admissions(self, tiny_model):
        from repro.llm import PromptAdmission
        sched = ContinuousBatchingScheduler(_paged_engine(tiny_model))

        def run(admission):
            sched.generate(PROMPT, n_candidates=2, max_new_tokens=4,
                           admissions=[admission])

        with pytest.raises(EngineError, match="non-empty"):
            run(PromptAdmission([], n_candidates=2, max_new_tokens=4))
        with pytest.raises(EngineError, match="candidate count"):
            run(PromptAdmission([5], n_candidates=0, max_new_tokens=4))
        with pytest.raises(EngineError, match="max_new_tokens"):
            run(PromptAdmission([5], n_candidates=2, max_new_tokens=0))
        with pytest.raises(EngineError, match="at_step"):
            run(PromptAdmission([5], n_candidates=2, max_new_tokens=4,
                                at_step=-1))
        with pytest.raises(EngineError, match="exceed"):
            run(PromptAdmission([5] * 60, n_candidates=2, max_new_tokens=8))

    def test_rejects_dispatch_config_mismatch(self, tiny_model):
        from repro.llm import BackendSelector, get_model_config
        from repro.npu import DEVICES
        sched = ContinuousBatchingScheduler(_paged_engine(tiny_model))
        stranger = BackendSelector(DEVICES["oneplus_12"],
                                   get_model_config("qwen2.5-1.5b"))
        with pytest.raises(EngineError, match="different model config"):
            sched.generate(PROMPT, n_candidates=2, max_new_tokens=4,
                           dispatch=stranger)

    def test_admitted_prompt_decodes_alongside_primary(self, tiny_model):
        from repro.llm import PromptAdmission
        engine = _paged_engine(tiny_model)
        sched = ContinuousBatchingScheduler(engine)
        result = sched.generate(
            PROMPT, n_candidates=5, max_new_tokens=8,
            sampler=Sampler(temperature=0.8, seed=9), prefill_chunk=2,
            admissions=[PromptAdmission([6, 2, 8, 3, 1], n_candidates=3,
                                        max_new_tokens=5, at_step=2)])
        assert result.n_prompt_admissions == 1
        assert len(result.candidates) == 8
        by_request = {}
        for candidate in result.candidates:
            by_request.setdefault(candidate.request_id, []).append(candidate)
        assert sorted(by_request) == [0, 1]
        assert len(by_request[0]) == 5
        assert len(by_request[1]) == 3
        # candidate ids continue after the primary request's
        assert sorted(c.candidate_id for c in by_request[1]) == [5, 6, 7]
        for candidate in by_request[1]:
            assert candidate.admitted_step >= 2
            assert 1 <= len(candidate.tokens) <= 5
        # both prompts were chunk-prefetched: ceil(4/2) + ceil(5/2)
        assert result.n_prefill_chunks == 2 + 3
        assert engine.cache.pool.blocks_in_use == 0

    def test_admission_waits_for_at_step_when_decode_is_live(self, tiny_model):
        from repro.llm import PromptAdmission
        from repro.obs import EventLog, scope
        log = EventLog()
        with scope(log=log):
            sched = ContinuousBatchingScheduler(_paged_engine(tiny_model))
            sched.generate(
                PROMPT, n_candidates=2, max_new_tokens=10,
                sampler=Sampler(temperature=0.8, seed=4), prefill_chunk=2,
                admissions=[PromptAdmission([9, 9, 4], n_candidates=1,
                                            max_new_tokens=4, at_step=3)])
        admitted = [e for e in log.by_kind("prefill_chunk")
                    if e.attrs["request"] == 1]
        assert admitted, "the admission must prefill eventually"
        assert all(e.step >= 3 for e in admitted)

    def test_timeline_records_chunks_and_switches(self, tiny_model):
        from repro.obs import EventLog, scope
        log = EventLog()
        with scope(log=log):
            sched = ContinuousBatchingScheduler(_paged_engine(tiny_model))
            result = sched.generate(
                PROMPT, n_candidates=3, max_new_tokens=6,
                sampler=Sampler(temperature=0.8, seed=7), prefill_chunk=3,
                dispatch=self._dispatch(tiny_model))
        chunks = log.by_kind("prefill_chunk")
        assert len(chunks) == result.n_prefill_chunks == 2
        assert [e.attrs["offset"] for e in chunks] == [0, 3]
        assert [e.attrs["n_tokens"] for e in chunks] == [3, 1]
        assert all(e.attrs["joules"] > 0 for e in chunks)
        # tiny configs always model fastest on the GPU, so the run pays
        # exactly one migration off the NPU-resident starting state
        switches = log.by_kind("backend_switch")
        assert len(switches) == result.n_backend_switches == 1
        assert switches[0].attrs["backend_from"] == "npu"
        assert switches[0].attrs["backend_to"] == "gpu"
        assert switches[0].attrs["crossing_seconds"] > 0
        assert result.migration_seconds > 0
        assert all(backend == "gpu" for _, backend in result.backend_steps)

    def test_prefill_chunk_slo_histogram(self, tiny_model):
        from repro.obs import MetricsRegistry, scope
        from repro.obs.slo import slo_summary
        reg = MetricsRegistry()
        with scope(metrics=reg):
            sched = ContinuousBatchingScheduler(_paged_engine(tiny_model))
            result = sched.generate(
                PROMPT, n_candidates=2, max_new_tokens=4,
                sampler=Sampler(temperature=0.8, seed=2), prefill_chunk=1)
        hist = slo_summary(reg)["repro.slo.prefill_chunk_seconds"]
        assert hist["count"] == result.n_prefill_chunks == len(PROMPT)
        assert hist["p50"] > 0.0

    def test_forced_cpu_dispatch_slows_the_clock(self, tiny_model):
        from repro.npu import DEVICES

        def run(**kw):
            sched = ContinuousBatchingScheduler(
                _paged_engine(tiny_model, device=DEVICES["oneplus_12"]))
            return sched.generate(PROMPT, n_candidates=4, max_new_tokens=6,
                                  sampler=Sampler(temperature=0.8, seed=13),
                                  **kw)

        plain = run()
        forced = run(dispatch=self._dispatch(tiny_model, forced="cpu"))
        assert forced.sequences == plain.sequences
        assert all(backend == "cpu" for _, backend in forced.backend_steps)
        # CPU decode is modeled slower than the NPU on a real device
        assert forced.sim_seconds > plain.sim_seconds
