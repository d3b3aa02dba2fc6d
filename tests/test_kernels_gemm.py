"""Unit tests for the end-to-end mixed-precision GEMM kernel."""

import numpy as np
import pytest

from repro.errors import KernelError
from repro.kernels.gemm import MixedPrecisionGemm
from repro.kernels.dequant import DEQUANT_STRATEGIES, dequantize_stream
from repro.npu.hmx import HMXUnit
from repro.npu.hvx import HVXContext, InstructionTrace
from repro.npu.memory import DMAEngine
from repro.npu.timing import KernelCost
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace


@pytest.fixture
def weight(rng):
    return rng.normal(0, 0.1, (96, 160)).astype(np.float32)


def reference_call(kernel, acts, prepared):
    """One call with every charge recorded afresh, inside its spans."""
    m, (k, n) = acts.shape[0], prepared.quantized.original_shape
    flops = 2.0 * m * k * n
    with obs_trace.span("kernel.gemm", category="kernel", m=m, k=k, n=n,
                        strategy=kernel.strategy, bits=kernel.bits,
                        flops=flops,
                        weight_bytes=prepared.storage_bytes) as sp:
        trace, dma = InstructionTrace(), DMAEngine()
        dma.transfer_2d(m, k * 2, direction="ddr_to_tcm")
        dequantize_stream(prepared.quantized, kernel.strategy,
                          HVXContext(kernel.qfloat_mode, trace), dma,
                          packed=prepared.packed, codebook=kernel.codebook,
                          coalesce=kernel.coalesce)
        if kernel.strategy == "no_dequant":
            trace.record("hmx_tile_mac", HMXUnit.tile_macs_for_gemm(m, k, n))
        else:
            HMXUnit(trace).record_gemm(m, k, n)
        cost = KernelCost.from_trace(trace, dma)
        sp.add_cost(cost)
    if obs_trace.enabled():
        reg = obs_metrics.get_metrics()
        reg.counter("repro.kernels.gemm_flops").inc(flops)
        reg.counter("repro.kernels.gemm_weight_bytes").inc(
            prepared.storage_bytes)
    return cost


def traced(call, batch_sizes):
    """Span tree and metrics snapshot of ``call`` over each batch size."""
    tracer, registry = obs_trace.Tracer(), obs_metrics.MetricsRegistry()
    outer_tracer = obs_trace.set_tracer(tracer)
    outer_registry = obs_metrics.set_metrics(registry)
    try:
        for m in batch_sizes:
            call(np.ones((m, 96), dtype=np.float16))
    finally:
        obs_trace.set_tracer(outer_tracer)
        obs_metrics.set_metrics(outer_registry)
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


class TestChargeTable:
    """Each call is charged from a per-shape table on the kernel."""

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
        kernel = MixedPrecisionGemm("ours")
        prepared = kernel.prepare_weight(weight)
        acts = np.ones((2, 96), dtype=np.float16)
        expected = reference_call(kernel, acts, prepared)
        _, first = kernel(acts, prepared)
        first.merge(first)
        _, second = kernel(acts, prepared)
        assert second == expected and second is not first

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
