"""Unit tests for the timing model and kernel cost accounting."""

import numpy as np
import pytest

from repro.errors import NPUError
from repro.npu.hvx import HVXContext, InstructionTrace
from repro.npu.memory import DMAEngine
from repro.npu.timing import (
    GENERATIONS,
    TILE_MAC_FLOPS,
    KernelCost,
    TimingModel,
    V73,
    V75,
    V79,
)


class TestGenerationParameters:
    def test_v75_matches_paper_anchors(self):
        """Table 2 anchors: HMX 12032.54 GFLOPS, HVX thread 32.93, 60/26 GB/s."""
        assert V75.hmx_fp16_gflops == pytest.approx(12032.54)
        assert V75.hvx_thread_gemm_gflops == pytest.approx(32.93)
        assert V75.dma_read_gbps == 60.0
        assert V75.hvx_mem_read_gbps == 26.0

    def test_vgather_latency_in_paper_range(self):
        """§5.2.1: vgather costs 24-48 packets on V75."""
        assert 24 <= V75.vgather_packets <= 48

    def test_generation_ordering(self):
        assert V73.hmx_fp16_gflops < V75.hmx_fp16_gflops < V79.hmx_fp16_gflops
        assert V73.clock_hz < V79.clock_hz

    def test_v79_is_ieee(self):
        assert V79.ieee_float and not V75.ieee_float and not V73.ieee_float

    def test_8g2_va_space_is_2gib(self):
        assert V73.npu_va_space_bytes == 2 * 2**30

    def test_registry(self):
        assert set(GENERATIONS) == {"V73", "V75", "V79"}

    def test_tile_mac_flops(self):
        assert TILE_MAC_FLOPS == 2 * 32 ** 3


class TestKernelCost:
    def test_from_trace_classification(self):
        trace = InstructionTrace()
        trace.record("vadd_hf", 10)
        trace.record("vgather", 2)
        trace.record("vscatter", 3)
        trace.record("hmx_tile_mac", 5)
        trace.record("vmem_ld", 4)
        cost = KernelCost.from_trace(trace)
        assert cost.hvx_packets == 14  # vadd + vmem issue slots
        assert cost.vgather_instrs == 2
        assert cost.vscatter_instrs == 3
        assert cost.hmx_tile_macs == 5

    def test_from_trace_with_dma(self):
        trace = InstructionTrace()
        dma = DMAEngine()
        dma.transfer_1d(1000)
        cost = KernelCost.from_trace(trace, dma)
        assert cost.dma_bytes == 1000

    def test_unknown_opcode_rejected(self):
        trace = InstructionTrace()
        trace.record("made_up_op", 1)
        with pytest.raises(NPUError):
            KernelCost.from_trace(trace)

    def test_merge(self):
        a = KernelCost(hvx_packets=10, dma_bytes=100)
        b = KernelCost(hvx_packets=5, hmx_tile_macs=2)
        a.merge(b)
        assert a.hvx_packets == 15 and a.hmx_tile_macs == 2 and a.dma_bytes == 100

    def test_merge_in_expression_position_aliases(self):
        a = KernelCost(hvx_packets=10)
        alias = a.merge(KernelCost(hvx_packets=5))
        assert alias is a  # the documented in-place contract

    def test_add_returns_fresh_record(self):
        a = KernelCost(hvx_packets=10, dma_bytes=100)
        b = KernelCost(hvx_packets=5, hmx_tile_macs=2)
        total = a + b
        assert total is not a and total is not b
        assert total.hvx_packets == 15
        assert total.hmx_tile_macs == 2
        assert total.dma_bytes == 100
        # operands untouched
        assert a.hvx_packets == 10 and a.hmx_tile_macs == 0
        assert b.hvx_packets == 5 and b.dma_bytes == 0

    def test_add_rejects_foreign_types(self):
        with pytest.raises(TypeError):
            KernelCost() + 1

    def test_combined_is_alias_safe(self):
        a = KernelCost(hvx_packets=1)
        b = KernelCost(hvx_packets=2)
        c = KernelCost(hvx_packets=4)
        total = a.combined(b, c)
        assert total.hvx_packets == 7
        assert (a.hvx_packets, b.hvx_packets, c.hvx_packets) == (1, 2, 4)
        # repeating the sum gives the same answer: nothing accumulated in place
        assert a.combined(b, c).hvx_packets == 7

    def test_scaled(self):
        cost = KernelCost(hvx_packets=10, vgather_instrs=3, dma_bytes=7)
        doubled = cost.scaled(2)
        assert doubled.hvx_packets == 20
        assert doubled.vgather_instrs == 6
        assert doubled.dma_bytes == 14

    def test_scaled_negative_rejected(self):
        with pytest.raises(ValueError):
            KernelCost().scaled(-1)


class TestTimingModel:
    def test_hmx_seconds(self):
        tm = TimingModel(V75)
        cost = KernelCost(hmx_tile_macs=1000)
        expected = 1000 * TILE_MAC_FLOPS / (V75.hmx_fp16_gflops * 1e9)
        assert tm.hmx_seconds(cost) == pytest.approx(expected)

    def test_hvx_issue_rate(self):
        tm = TimingModel(V75)
        cost = KernelCost(hvx_packets=V75.hvx_contexts * 1000)
        assert tm.hvx_seconds(cost) == pytest.approx(1000 / V75.clock_hz)

    def test_gather_uses_pipelined_occupancy(self):
        tm = TimingModel(V75)
        gathered = tm.hvx_seconds(KernelCost(vgather_instrs=100))
        assert gathered == pytest.approx(
            100 * V75.vgather_issue_packets / V75.hvx_contexts / V75.clock_hz)

    def test_scatter_is_costlier_than_gather(self):
        tm = TimingModel(V75)
        scatter = tm.hvx_seconds(KernelCost(vscatter_instrs=10))
        gather = tm.hvx_seconds(KernelCost(vgather_instrs=10))
        assert scatter > gather

    def test_dma_seconds(self):
        tm = TimingModel(V75)
        cost = KernelCost(dma_bytes=60 * 10**9)
        assert tm.dma_seconds(cost) == pytest.approx(1.0)

    def test_overlap_model_bounds(self):
        """Total lies between the critical engine and the serial sum."""
        tm = TimingModel(V75)
        cost = KernelCost(hmx_tile_macs=10000, hvx_packets=50000,
                          dma_bytes=10**6)
        parts = [tm.dma_seconds(cost), tm.hvx_seconds(cost),
                 tm.hmx_seconds(cost)]
        total = tm.seconds(cost)
        assert max(parts) <= total <= sum(parts)

    def test_table2_hvx_anchor(self):
        tm = TimingModel(V75)
        seconds = tm.gemm_seconds_hvx_thread(1024, 1024, 1024)
        gflops = tm.effective_gflops(2.0 * 1024 ** 3, seconds)
        assert gflops == pytest.approx(32.93, rel=1e-6)

    def test_table2_hmx_anchor(self):
        tm = TimingModel(V75)
        seconds = tm.gemm_seconds_hmx_peak(1024, 1024, 1024)
        gflops = tm.effective_gflops(2.0 * 1024 ** 3, seconds)
        assert gflops == pytest.approx(12032.54, rel=1e-6)

    def test_hmx_over_300x_hvx(self):
        """Table 2 claim: HMX is >300x a single vector thread."""
        assert V75.hmx_fp16_gflops / V75.hvx_thread_gemm_gflops > 300

    def test_effective_gflops_validation(self):
        with pytest.raises(NPUError):
            TimingModel(V75).effective_gflops(1.0, 0.0)

    def test_generations_monotone_speed(self):
        """Newer generations execute the same cost faster."""
        cost = KernelCost(hmx_tile_macs=5000, hvx_packets=100000,
                          dma_bytes=10**7, vgather_instrs=500)
        times = [TimingModel(g).seconds(cost) for g in (V73, V75, V79)]
        assert times[0] > times[1] > times[2]
