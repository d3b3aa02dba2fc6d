"""Unit tests for the analytic latency models and their cross-validation
against the functional kernels."""

import numpy as np
import pytest

from repro.errors import EngineError
from repro.kernels.flash_attention import FlashAttention
from repro.llm.config import get_model_config
from repro.npu.memory import TCM
from repro.npu.soc import get_device
from repro.npu.timing import KernelCost, TimingModel, V75
from repro.perf.latency import (
    DecodePerformanceModel,
    attention_cost,
    attention_phase_costs,
    gemm_cost,
)


class TestGemmCostValidation:
    def test_dimension_validation(self):
        with pytest.raises(EngineError):
            gemm_cost(0, 10, 10)

    def test_unknown_strategy(self):
        with pytest.raises(EngineError):
            gemm_cost(1, 32, 32, strategy="psychic")


class TestAttentionCostCrossValidation:
    @pytest.mark.parametrize("shape", [(1, 256, 128), (6, 512, 64),
                                       (32, 1024, 128)])
    def test_matches_functional_within_tolerance(self, shape, rng):
        n_q, n_kv, d = shape
        q = rng.normal(size=(n_q, d)).astype(np.float16)
        k = rng.normal(size=(n_kv, d)).astype(np.float16)
        v = rng.normal(size=(n_kv, d)).astype(np.float16)
        fa = FlashAttention("lut", tcm=TCM())
        _, breakdown = fa(q, k, v)
        functional = breakdown.total()
        functional.dma_bytes += 2 * n_kv * d * 2  # KV streaming
        analytic = attention_cost(n_q, n_kv, d, method="lut")
        timing = TimingModel(V75)
        ratio = timing.seconds(analytic) / timing.seconds(functional)
        assert 0.8 < ratio < 1.2

    def test_hmx_macs_exact(self, rng):
        n_q, n_kv, d = 4, 320, 64
        q = rng.normal(size=(n_q, d)).astype(np.float16)
        k = rng.normal(size=(n_kv, d)).astype(np.float16)
        v = rng.normal(size=(n_kv, d)).astype(np.float16)
        _, breakdown = FlashAttention("lut", tcm=TCM())(q, k, v)
        analytic = attention_cost(n_q, n_kv, d, method="lut")
        assert breakdown.total().hmx_tile_macs == analytic.hmx_tile_macs

    def test_phase_decomposition_sums(self):
        phases = attention_phase_costs(8, 1024, 128)
        total = attention_cost(8, 1024, 128)
        summed = KernelCost()
        for cost in phases.values():
            summed.merge(cost)
        assert summed.hvx_packets == total.hvx_packets
        assert summed.hmx_tile_macs == total.hmx_tile_macs

    def test_softmax_dominates_at_large_query(self):
        """Fig. 8: softmax overtakes matmul as query length grows."""
        timing = TimingModel(V75)
        small = attention_phase_costs(1, 4096, 128)
        large = attention_phase_costs(192, 4096, 128)
        share_small = timing.seconds(small["softmax"]) / (
            timing.seconds(small["qk_matmul"]) + timing.seconds(small["pv_matmul"])
            + timing.seconds(small["softmax"]))
        share_large = timing.seconds(large["softmax"]) / (
            timing.seconds(large["qk_matmul"]) + timing.seconds(large["pv_matmul"])
            + timing.seconds(large["softmax"]))
        assert share_large > share_small
        assert share_large > 0.5

    def test_validation(self):
        with pytest.raises(EngineError):
            attention_cost(0, 10, 64)
        with pytest.raises(EngineError):
            attention_phase_costs(1, 128, 64, method="magic")


class TestDecodePerformanceModel:
    @pytest.fixture(scope="class")
    def perf(self):
        return DecodePerformanceModel(get_model_config("qwen2.5-1.5b"),
                                      get_device("oneplus_12"))

    def test_throughput_increases_with_batch(self, perf):
        tps = [perf.decode_throughput(b, 1024) for b in (1, 2, 4, 8, 16)]
        assert all(a < b for a, b in zip(tps, tps[1:]))

    def test_scaling_sublinear(self, perf):
        """Fig. 11: scaling is significant but below linear."""
        speedup = perf.decode_throughput(16, 1024) / perf.decode_throughput(1, 1024)
        assert 3.0 < speedup < 16.0

    def test_cpu_fraction_grows_to_half(self, perf):
        """§7.2.2: lm_head on CPU approaches/exceeds 50% at batch 16."""
        assert perf.cpu_time_fraction(16, 1024) >= 0.45
        assert perf.cpu_time_fraction(1, 1024) < perf.cpu_time_fraction(16, 1024)

    def test_throughput_decreases_with_context(self, perf):
        """Fig. 17: longer prompts mildly reduce decode throughput."""
        tps = [perf.decode_throughput(4, c) for c in (512, 1024, 2048, 4096)]
        assert all(a > b for a, b in zip(tps, tps[1:]))
        assert tps[-1] > 0.6 * tps[0]  # the decline stays subtle

    def test_prefill_much_faster_than_decode(self, perf):
        assert perf.prefill_throughput(512) > 10 * perf.decode_throughput(1, 512)

    def test_larger_model_slower(self):
        device = get_device("oneplus_12")
        small = DecodePerformanceModel(get_model_config("qwen2.5-1.5b"), device)
        large = DecodePerformanceModel(get_model_config("qwen2.5-3b"), device)
        assert large.decode_latency(1, 1024) > small.decode_latency(1, 1024)

    def test_newer_devices_faster(self):
        cfg = get_model_config("qwen2.5-1.5b")
        tps = [DecodePerformanceModel(cfg, get_device(d)).decode_throughput(8, 1024)
               for d in ("oneplus_ace3", "oneplus_12", "oneplus_ace5_pro")]
        assert tps[0] < tps[1] < tps[2]

    def test_hmx_time_constant_in_batch(self, perf):
        """§7.2.2: 'computation time consumed on the core HMX does not
        increase at all' for batch <= 32."""
        cost1 = perf._layer_gemm_cost(1)
        cost16 = perf._layer_gemm_cost(16)
        assert cost1.hmx_tile_macs == cost16.hmx_tile_macs

    def test_layer_gemm_cost_hands_out_copies(self, perf):
        """The model keeps one GEMM cost per ``m``; mutating a returned
        cost must not reach the next call."""
        fresh = DecodePerformanceModel(perf.config, perf.device)
        first = perf._layer_gemm_cost(4)
        first.merge(first)
        first.dma_bytes = -1
        again = perf._layer_gemm_cost(4)
        assert again is not first
        assert again == fresh._layer_gemm_cost(4)
        assert perf.decode_step(4, 512) == fresh.decode_step(4, 512)

    def test_validation(self, perf):
        with pytest.raises(EngineError):
            perf.decode_step(0, 100)
        with pytest.raises(EngineError):
            perf.prefill_latency(0)
