"""Unit tests for the NPU transformer."""

import numpy as np
import pytest

from repro.errors import EngineError
from repro.kernels.gemm import MixedPrecisionGemm
from repro.llm.config import tiny_config
from repro.llm.model import (
    NPUTransformer,
    StepCost,
    TransformerWeights,
    reference_forward,
)
from repro.llm.perplexity import top1_agreement
from repro.npu.timing import KernelCost
from repro.obs import MetricsRegistry, Tracer, scope


class TestStepCost:
    def test_add_returns_fresh_record(self):
        a = StepCost(npu=KernelCost(hmx_tile_macs=3), cpu_gemms=[(1, 2, 3)])
        b = StepCost(npu=KernelCost(hmx_tile_macs=4), cpu_gemms=[(4, 5, 6)])
        total = a + b
        assert total is not a and total is not b
        assert total.npu is not a.npu and total.npu is not b.npu
        assert total.npu.hmx_tile_macs == 7
        assert total.cpu_gemms == [(1, 2, 3), (4, 5, 6)]
        assert a.npu.hmx_tile_macs == 3 and a.cpu_gemms == [(1, 2, 3)]
        assert b.npu.hmx_tile_macs == 4 and b.cpu_gemms == [(4, 5, 6)]

    def test_add_rejects_foreign_types(self):
        with pytest.raises(TypeError):
            StepCost() + 1

    def test_merge_aliasing_regression(self):
        """merge in expression position aliases the accumulator; summing
        decode costs with __add__/combined must not double-count."""
        decode_costs = [StepCost(npu=KernelCost(dma_bytes=100),
                                 cpu_gemms=[(1, 1, 1)])
                        for _ in range(3)]

        # the hazard: merge returns self, so the "total" IS the first step
        alias = decode_costs[0].merge(decode_costs[1])
        assert alias is decode_costs[0]
        assert decode_costs[0].npu.dma_bytes == 200  # first record mutated

        # rebuild and accumulate the alias-safe way
        decode_costs = [StepCost(npu=KernelCost(dma_bytes=100),
                                 cpu_gemms=[(1, 1, 1)])
                        for _ in range(3)]
        total = StepCost()
        for cost in decode_costs:
            total = total + cost
        assert total.npu.dma_bytes == 300
        assert len(total.cpu_gemms) == 3
        # every step record is untouched, so re-summing agrees
        assert all(c.npu.dma_bytes == 100 for c in decode_costs)
        again = decode_costs[0].combined(*decode_costs[1:])
        assert again.npu.dma_bytes == 300

    def test_combined_empty(self):
        assert StepCost().combined().npu.dma_bytes == 0


class TestWeightGeneration:
    def test_deterministic(self):
        cfg = tiny_config()
        a = TransformerWeights.generate(cfg, seed=7)
        b = TransformerWeights.generate(cfg, seed=7)
        assert np.array_equal(a.layers[0]["wq"], b.layers[0]["wq"])

    def test_seed_changes_weights(self):
        cfg = tiny_config()
        a = TransformerWeights.generate(cfg, seed=1)
        b = TransformerWeights.generate(cfg, seed=2)
        assert not np.array_equal(a.layers[0]["wq"], b.layers[0]["wq"])

    def test_outliers_injected(self):
        cfg = tiny_config()
        plain = TransformerWeights.generate(cfg, seed=0, outlier_fraction=0.0)
        spiky = TransformerWeights.generate(cfg, seed=0, outlier_fraction=5e-3,
                                            outlier_scale=20.0)
        assert np.abs(spiky.layers[0]["w_gate"]).max() > \
            3 * np.abs(plain.layers[0]["w_gate"]).max()

    def test_tied_embeddings(self):
        cfg = tiny_config()  # tiny config ties embeddings
        w = TransformerWeights.generate(cfg, seed=0)
        assert np.array_equal(w.lm_head, w.embedding.T)

    def test_layer_count(self):
        w = TransformerWeights.generate(tiny_config(n_layers=3), seed=0)
        assert len(w.layers) == 3


class TestNPUForward:
    def test_logit_shape(self, tiny_model):
        cache = tiny_model.new_cache(1, 16)
        tokens = np.array([[1, 2, 3]])
        logits, _ = tiny_model.forward(tokens, cache)
        assert logits.shape == (1, 3, tiny_model.config.vocab_size)

    def test_agrees_with_quantized_reference(self, tiny_model):
        tokens = np.arange(8)
        cache = tiny_model.new_cache(1, 16)
        logits, _ = tiny_model.forward(tokens[np.newaxis, :], cache)
        ref = tiny_model.forward_reference(
            tokens, tiny_model.dequantized_layer_weights())
        assert top1_agreement(ref, logits[0]) > 0.8
        assert np.abs(logits[0] - ref).max() < 0.05

    def test_incremental_decode_matches_prefill(self, tiny_model):
        """Prefill(a+b) equals prefill(a) then decode(b): KV-cache correctness."""
        tokens = np.arange(6)
        cache_full = tiny_model.new_cache(1, 16)
        logits_full, _ = tiny_model.forward(tokens[np.newaxis, :], cache_full)

        cache_inc = tiny_model.new_cache(1, 16)
        tiny_model.forward(tokens[np.newaxis, :5], cache_inc)
        logits_last, _ = tiny_model.forward(tokens[np.newaxis, 5:], cache_inc)
        assert np.allclose(logits_full[0, -1], logits_last[0, 0], atol=1e-2)

    def test_batch_decode_matches_individual(self, tiny_model):
        """Batched decode produces the same logits as separate decodes."""
        prompt = np.arange(4)
        # two sequences with identical prompts
        cache = tiny_model.new_cache(2, 16)
        tiny_model.forward(prompt[np.newaxis, :], cache, sequences=[0])
        cache.fork(0, [1])
        batch_logits, _ = tiny_model.forward(np.array([[7], [9]]), cache,
                                             sequences=[0, 1])

        cache_a = tiny_model.new_cache(1, 16)
        tiny_model.forward(prompt[np.newaxis, :], cache_a)
        single_a, _ = tiny_model.forward(np.array([[7]]), cache_a)
        cache_b = tiny_model.new_cache(1, 16)
        tiny_model.forward(prompt[np.newaxis, :], cache_b)
        single_b, _ = tiny_model.forward(np.array([[9]]), cache_b)

        assert np.allclose(batch_logits[0, 0], single_a[0, 0], atol=2e-2)
        assert np.allclose(batch_logits[1, 0], single_b[0, 0], atol=2e-2)

    def test_cost_accumulates(self, tiny_model):
        cache = tiny_model.new_cache(1, 8)
        _, cost = tiny_model.forward(np.array([[1, 2]]), cache)
        assert cost.npu.hmx_tile_macs > 0
        assert cost.npu.dma_bytes > 0
        assert cost.cpu_gemms == [(2, tiny_model.config.hidden_dim,
                                   tiny_model.config.vocab_size)]

    def test_token_range_check(self, tiny_model):
        cache = tiny_model.new_cache(1, 8)
        with pytest.raises(EngineError):
            tiny_model.forward(np.array([[10 ** 6]]), cache)

    def test_sequence_count_check(self, tiny_model):
        cache = tiny_model.new_cache(2, 8)
        with pytest.raises(EngineError):
            tiny_model.forward(np.array([[1], [2]]), cache, sequences=[0])

    def test_context_limit_check(self, tiny_weights):
        cfg = tiny_weights.config
        model = NPUTransformer(tiny_weights)
        cache = model.new_cache(1, cfg.max_position + 64)
        too_long = np.zeros((1, cfg.max_position + 1), dtype=np.int64)
        with pytest.raises(EngineError):
            model.forward(too_long, cache)


def _traced_decode_step(model):
    """Logits, cost, spans and counters of one traced decode step of two
    sequences with ragged caches."""
    cache = model.new_cache(2, 16)
    model.forward(np.array([[5, 9, 13]]), cache, sequences=[0])
    model.forward(np.array([[7, 2, 4, 8, 1]]), cache, sequences=[1])
    tracer, registry = Tracer(), MetricsRegistry()
    with scope(tracer=tracer, metrics=registry):
        logits, cost = model.forward(np.array([[3], [11]]), cache)
    spans = [(s.name, s.category, s.attrs, s.costs, s.parent)
             for s in tracer.finished_spans()]
    return logits, cost, spans, registry.snapshot()


def test_fused_projections_trace_as_their_parts(tiny_model, monkeypatch):
    """A traced decode step through the fused q/k/v and gate/up weights
    records what calling each projection's one-part weight in order does:
    the same spans (names, attrs, costs, nesting) and counters."""
    fused = _traced_decode_step(tiny_model)
    call = MixedPrecisionGemm.__call__

    def part_by_part(kernel, activations, prepared):
        outputs, total = [], KernelCost()
        for part in prepared.parts:
            output, cost = call(kernel, activations, part)
            outputs.append(output)
            total.merge(cost)
        return np.concatenate(outputs, axis=1), total

    monkeypatch.setattr(MixedPrecisionGemm, "__call__", part_by_part)
    logits, cost, spans, counters = _traced_decode_step(tiny_model)
    assert np.array_equal(fused[0], logits)
    assert fused[1] == cost
    gemm_spans = [s for s in spans if s[0] == "kernel.gemm"]
    # seven projections per layer, each its own span
    assert len(gemm_spans) == 7 * tiny_model.config.n_layers
    assert fused[2] == spans
    assert fused[3] == counters


class TestReferenceForward:
    def test_shape(self, tiny_weights):
        logits = reference_forward(tiny_weights, np.arange(5))
        assert logits.shape == (5, tiny_weights.config.vocab_size)

    def test_effective_weights_substitution(self, tiny_weights):
        tokens = np.arange(5)
        base = reference_forward(tiny_weights, tokens)
        perturbed = []
        for layer in tiny_weights.layers:
            variant = {k: v + 0.01 for k, v in layer.items()
                       if not k.startswith("norm")}
            perturbed.append(variant)
        other = reference_forward(tiny_weights, tokens, perturbed)
        assert not np.allclose(base, other)

    def test_layer_count_check(self, tiny_weights):
        with pytest.raises(Exception):
            reference_forward(tiny_weights, np.arange(3), [{}])
