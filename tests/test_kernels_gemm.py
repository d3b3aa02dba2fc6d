"""Unit tests for the end-to-end mixed-precision GEMM kernel."""

import numpy as np
import pytest

from repro.errors import KernelError
from repro.kernels.gemm import MixedPrecisionGemm
from repro.kernels.dequant import DEQUANT_STRATEGIES
from repro.npu.timing import KernelCost, gemm_cost
from repro.obs import MetricsRegistry, Tracer, current, scope
from repro.testing import recorded_gemm_cost


@pytest.fixture
def weight(rng):
    return rng.normal(0, 0.1, (96, 160)).astype(np.float32)


def reference_call(kernel, acts, prepared):
    """One call with its charge recorded afresh instruction by
    instruction (activation DMA, ``dequantize_stream``, ``record_gemm``,
    ``KernelCost.from_trace``), inside its spans."""
    m, (k, n) = acts.shape[0], prepared.quantized.original_shape
    flops = 2.0 * m * k * n
    obs = current()
    with obs.tracer.span("kernel.gemm", category="kernel", m=m, k=k, n=n,
                         strategy=kernel.strategy, bits=kernel.bits,
                         flops=flops,
                         weight_bytes=prepared.storage_bytes) as sp:
        cost = recorded_gemm_cost(m, prepared, kernel.qfloat_mode)
        sp.add_cost(cost)
    if obs.tracer.enabled:
        obs.metrics.counter("repro.kernels.gemm_flops").inc(flops)
        obs.metrics.counter("repro.kernels.gemm_weight_bytes").inc(
            prepared.storage_bytes)
    return cost


def traced(call, batch_sizes):
    """Span tree and metrics snapshot of ``call`` over each batch size."""
    tracer, registry = Tracer(), MetricsRegistry()
    with scope(tracer=tracer, metrics=registry):
        for m in batch_sizes:
            call(np.ones((m, 96), dtype=np.float16))
    spans = [(s.name, s.category, s.parent, s.depth, s.attrs, s.costs)
             for s in tracer.finished_spans()]
    return spans, registry.snapshot()


class TestMixedPrecisionGemm:
    @pytest.mark.parametrize("strategy", ["ours", "baseline", "hmx_layout"])
    def test_matches_dequantized_reference(self, strategy, rng, weight):
        gemm = MixedPrecisionGemm(strategy)
        prepared = gemm.prepare_weight(weight)
        x = rng.normal(0, 1, (3, 96)).astype(np.float16)
        out, _ = gemm(x, prepared)
        ref = x.astype(np.float32) @ prepared.dequantized_matrix.astype(np.float32)
        assert np.allclose(out.astype(np.float32), ref, atol=5e-3, rtol=5e-3)

    def test_strategies_numerically_equivalent_given_same_groups(self, rng,
                                                                 weight):
        """ours and hmx_layout share tile groups: identical outputs."""
        x = rng.normal(0, 1, (2, 96)).astype(np.float16)
        outs = {}
        for strategy in ("ours", "hmx_layout"):
            gemm = MixedPrecisionGemm(strategy)
            out, _ = gemm(x, gemm.prepare_weight(weight))
            outs[strategy] = out
        assert np.array_equal(outs["ours"], outs["hmx_layout"])

    def test_q8_path_more_accurate(self, rng, weight):
        x = rng.normal(0, 1, (2, 96)).astype(np.float16)
        ref = x.astype(np.float32) @ weight
        errors = {}
        for bits in (4, 8):
            gemm = MixedPrecisionGemm("ours", bits=bits)
            out, _ = gemm(x, gemm.prepare_weight(weight))
            errors[bits] = float(np.abs(out.astype(np.float32) - ref).mean())
        assert errors[8] < errors[4]

    def test_gemv(self, rng, weight):
        gemm = MixedPrecisionGemm("ours")
        prepared = gemm.prepare_weight(weight)
        x = rng.normal(0, 1, 96).astype(np.float16)
        out, cost = gemm.gemv(x, prepared)
        assert out.shape == (160,)
        assert cost.hmx_tile_macs > 0

    def test_gemv_requires_vector(self, rng, weight):
        gemm = MixedPrecisionGemm("ours")
        prepared = gemm.prepare_weight(weight)
        with pytest.raises(KernelError):
            gemm.gemv(rng.normal(size=(2, 96)).astype(np.float16), prepared)

    def test_cost_includes_dma_and_hmx(self, rng, weight):
        gemm = MixedPrecisionGemm("ours")
        prepared = gemm.prepare_weight(weight)
        x = rng.normal(0, 1, (1, 96)).astype(np.float16)
        _, cost = gemm(x, prepared)
        assert cost.dma_bytes >= prepared.storage_bytes
        assert cost.hmx_tile_macs == 3 * 5  # ceil(96/32) * ceil(160/32)

    def test_strategy_mismatch_rejected(self, rng, weight):
        prepared = MixedPrecisionGemm("ours").prepare_weight(weight)
        other = MixedPrecisionGemm("baseline")
        with pytest.raises(KernelError):
            other(rng.normal(size=(1, 96)).astype(np.float16), prepared)

    def test_activation_width_check(self, rng, weight):
        gemm = MixedPrecisionGemm("ours")
        prepared = gemm.prepare_weight(weight)
        with pytest.raises(KernelError):
            gemm(rng.normal(size=(1, 64)).astype(np.float16), prepared)

    def test_invalid_strategy(self):
        with pytest.raises(KernelError):
            MixedPrecisionGemm("warp-speed")

    def test_invalid_bits(self):
        with pytest.raises(KernelError):
            MixedPrecisionGemm("ours", bits=3)

    def test_invalid_qfloat_mode(self):
        with pytest.raises(ValueError, match="qfloat mode"):
            MixedPrecisionGemm("ours", qfloat_mode="bfloat")

    def test_no_dequant_is_cost_probe_only(self, rng, weight):
        gemm = MixedPrecisionGemm("no_dequant")
        prepared = gemm.prepare_weight(weight)
        out, cost = gemm(rng.normal(size=(1, 96)).astype(np.float16), prepared)
        assert np.all(out == 0)  # upper-bound probe computes nothing
        assert cost.hmx_tile_macs > 0  # but charges the same MACs

    def test_storage_bytes_q4(self, weight):
        prepared = MixedPrecisionGemm("ours").prepare_weight(weight)
        padded_elems = 96 * 160
        expected = padded_elems // 2 + (padded_elems // 32) * 2
        assert prepared.storage_bytes == expected

    @pytest.mark.parametrize("strategy", DEQUANT_STRATEGIES)
    def test_prepare_all_strategies(self, strategy, weight):
        gemm = MixedPrecisionGemm(strategy)
        prepared = gemm.prepare_weight(weight)
        assert prepared.strategy == strategy
        assert prepared.dequantized_matrix.shape == weight.shape


#: Shapes the rule is held to the recording at: the cross-validation
#: shapes, tile-aligned shapes of 1-4 tiles, and unaligned ones (which
#: ``baseline``'s column-major groups cannot hold).
RULE_SHAPES = [(2, 128, 256), (1, 96, 160), (1, 128, 128), (8, 32, 128),
               (6, 128, 64), (4, 64, 96), (33, 33, 70), (4, 64, 33),
               (1, 50, 40)]


@pytest.mark.parametrize("qfloat_mode", ["qfloat", "ieee"])
@pytest.mark.parametrize("weight_bits, kernel_bits", [(4, 4), (8, 8), (8, 4)])
@pytest.mark.parametrize("strategy, shape", [
    (strategy, shape) for strategy in DEQUANT_STRATEGIES
    for shape in RULE_SHAPES
    if strategy != "baseline" or (shape[1] % 32 == 0 and shape[2] % 32 == 0)])
def test_gemm_cost_equals_the_recording(strategy, shape, weight_bits,
                                        kernel_bits, qfloat_mode):
    """The one GEMM charge rule, against the instruction-level recording
    of the same call, and the kernel's charge with it.  Bits and group
    size come from the weight, the qfloat mode from the kernel."""
    m, k, n = shape
    rng = np.random.default_rng(m * 1000 + k + n)
    weight = rng.normal(0, 0.05, (k, n)).astype(np.float32)
    prepared = MixedPrecisionGemm(strategy,
                                  bits=weight_bits).prepare_weight(weight)
    kernel = MixedPrecisionGemm(strategy, bits=kernel_bits,
                                qfloat_mode=qfloat_mode)
    acts = rng.normal(0, 1, (m, k)).astype(np.float16)
    recorded = reference_call(kernel, acts, prepared)
    assert gemm_cost(m, k, n, strategy, bits=weight_bits,
                     qfloat=qfloat_mode == "qfloat",
                     group_size=prepared.quantized.groups.group_size
                     ) == recorded
    assert kernel(acts, prepared)[1] == recorded


class TestChargeTable:
    """Each call is charged by ``gemm_cost``, looked up per shape."""

    @pytest.mark.parametrize("m", [1, 4, 33])
    @pytest.mark.parametrize("bits", [4, 8])
    @pytest.mark.parametrize("strategy", DEQUANT_STRATEGIES)
    def test_cost_equals_the_reference(self, strategy, bits, m, rng, weight):
        kernel = MixedPrecisionGemm(strategy, bits=bits)
        prepared = kernel.prepare_weight(weight)
        acts = rng.normal(0, 1, (m, 96)).astype(np.float16)
        expected = reference_call(kernel, acts, prepared)
        for _ in range(2):  # records, then reads the table
            _, cost = kernel(acts, prepared)
            assert cost == expected

    def test_each_batch_size_has_its_own_entry(self, weight):
        kernel = MixedPrecisionGemm("ours")
        prepared = kernel.prepare_weight(weight)
        costs = {m: kernel(np.ones((m, 96), dtype=np.float16), prepared)[1]
                 for m in (1, 4)}
        for m, cost in costs.items():
            acts = np.ones((m, 96), dtype=np.float16)
            assert cost == reference_call(kernel, acts, prepared)
        assert costs[1] != costs[4]

    def test_weights_of_one_shape_and_other_sizes_have_their_own_entries(
            self, weight):
        kernel = MixedPrecisionGemm("hmx_layout")
        acts = np.ones((2, 96), dtype=np.float16)
        for bits in (4, 8, 4):  # packed Q4 and unpacked Q8: other bytes
            prepared = MixedPrecisionGemm(
                "hmx_layout", bits=bits).prepare_weight(weight)
            _, cost = kernel(acts, prepared)
            assert cost == reference_call(kernel, acts, prepared)

    def test_a_mutated_cost_does_not_reach_the_next_call(self, weight):
        """The per-(shape, weight) plans hand out no record a caller can
        reach, for one weight or a fused one."""
        kernel = MixedPrecisionGemm("ours")
        prepared = kernel.prepare_weight(weight)
        fused = kernel.prepare_fused([weight, weight[:, :40], weight])
        acts = np.ones((2, 96), dtype=np.float16)
        for target in (prepared, fused):
            expected = KernelCost()
            for part in target.parts:
                expected.merge(reference_call(kernel, acts, part))
            _, first = kernel(acts, target)
            first.merge(first)
            _, second = kernel(acts, target)
            assert second == expected and second is not first

    def test_each_weight_shape_has_its_own_plan(self, weight):
        """A fused weight, its parts alone and another part order are
        charged as the sum of their own parts."""
        kernel = MixedPrecisionGemm("ours", bits=8)
        narrow = weight[:, :40]
        acts = np.ones((3, 96), dtype=np.float16)
        for parts in ([weight, narrow], [narrow, weight], [weight], [narrow]):
            fused = kernel.prepare_fused(parts)
            expected = KernelCost()
            for part in fused.parts:
                expected.merge(reference_call(kernel, acts, part))
            assert kernel(acts, fused)[1] == expected

    def test_a_weight_of_another_strategy_is_rejected_after_a_hit(
            self, weight):
        """The plan key holds each part's strategy: an equal-shaped
        weight prepared for another strategy never reads a plan."""
        kernel = MixedPrecisionGemm("ours")
        acts = np.ones((1, 96), dtype=np.float16)
        kernel(acts, kernel.prepare_weight(weight))
        other = MixedPrecisionGemm("hmx_layout").prepare_weight(weight)
        with pytest.raises(KernelError, match="prepared for strategy"):
            kernel(acts, other)

    @pytest.mark.parametrize("strategy", DEQUANT_STRATEGIES)
    def test_traced_calls_emit_the_reference_spans_and_counters(
            self, strategy, weight):
        kernel = MixedPrecisionGemm(strategy)
        prepared = kernel.prepare_weight(weight)
        kernel(np.ones((1, 96), dtype=np.float16), prepared)  # untraced fill
        got = traced(lambda acts: kernel(acts, prepared), (1, 4, 4, 1))
        expected = traced(lambda acts: reference_call(kernel, acts, prepared),
                          (1, 4, 4, 1))
        assert [name for name, *_ in got[0]] == ["kernel.dequant",
                                                 "kernel.gemm"] * 4
        assert got == expected
