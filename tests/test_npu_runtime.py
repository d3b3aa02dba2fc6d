"""Tests for the NPU runtime layer: DVFS and Q8 KV.

These cover the §6 power-management component and the INT8 KV-cache
extension.
"""

import numpy as np
import pytest

from repro.errors import EngineError, NPUError
from repro.llm import (
    NPUTransformer,
    QuantizedLayerKVCache,
    TransformerWeights,
    mean_kl_divergence,
    tiny_config,
)
from repro.llm.kv_cache import KVCache, LayerKVCache
from repro.npu import (
    GOVERNORS,
    KernelCost,
    TimingModel,
    V75,
    apply_governor,
)


class TestPowerGovernors:
    def test_performance_is_identity(self):
        assert apply_governor(V75, "performance") == V75

    def test_efficiency_slows_everything(self):
        slow = apply_governor(V75, "efficiency")
        assert slow.clock_hz < V75.clock_hz
        assert slow.hmx_fp16_gflops < V75.hmx_fp16_gflops
        assert slow.dma_read_gbps < V75.dma_read_gbps

    def test_governor_order(self):
        clocks = [apply_governor(V75, g).clock_hz
                  for g in ("efficiency", "balanced", "performance")]
        assert clocks[0] < clocks[1] < clocks[2]

    def test_kernel_slows_under_governor(self):
        cost = KernelCost(hvx_packets=10000, dma_bytes=10**6)
        fast = TimingModel(V75).seconds(cost)
        slow = TimingModel(apply_governor(V75, "efficiency")).seconds(cost)
        assert slow > 1.3 * fast

    def test_unknown_governor(self):
        with pytest.raises(NPUError):
            apply_governor(V75, "ludicrous")

    def test_registry(self):
        assert set(GOVERNORS) == {"performance", "balanced", "efficiency"}


class TestQuantizedKVCache:
    def test_roundtrip_close(self, rng):
        cache = QuantizedLayerKVCache(batch=1, capacity=8, n_kv_heads=2,
                                      head_dim=16)
        k = rng.normal(0, 1, (4, 2, 16)).astype(np.float16)
        v = rng.normal(0, 1, (4, 2, 16)).astype(np.float16)
        cache.append(0, k, v)
        k_back, v_back = cache.view(0)
        assert np.abs(k_back.astype(np.float32)
                      - k.astype(np.float32)).max() < 0.05
        assert np.abs(v_back.astype(np.float32)
                      - v.astype(np.float32)).max() < 0.05

    def test_half_the_memory(self):
        fp16 = LayerKVCache(2, 64, 2, 32)
        q8 = QuantizedLayerKVCache(2, 64, 2, 32)
        fp16_bytes = fp16.keys.nbytes + fp16.values.nbytes
        assert q8.nbytes_used() < 0.6 * fp16_bytes

    def test_fork_preserves_scales(self, rng):
        cache = QuantizedLayerKVCache(batch=3, capacity=8, n_kv_heads=1,
                                      head_dim=8)
        k = rng.normal(0, 1, (3, 1, 8)).astype(np.float16)
        cache.append(0, k, k)
        cache.fork(0, [1, 2])
        a, _ = cache.view(0)
        b, _ = cache.view(2)
        assert np.array_equal(a, b)

    def test_end_to_end_kl_small(self):
        """Running the tiny model on a Q8 cache barely moves the logits."""
        cfg = tiny_config(n_layers=2)
        weights = TransformerWeights.generate(cfg, seed=3, embedding_std=0.1)
        model = NPUTransformer(weights)
        tokens = np.arange(12)
        l16, _ = model.forward(tokens[np.newaxis, :], model.new_cache(1, 16))
        l8, _ = model.forward(tokens[np.newaxis, :],
                              model.new_cache(1, 16, dtype="q8"))
        assert mean_kl_divergence(l16[0], l8[0]) < 1e-3

    def test_unknown_dtype(self):
        with pytest.raises(EngineError):
            KVCache(1, 1, 4, 1, 4, dtype="q2")

    def test_overflow_and_range_checks(self, rng):
        cache = QuantizedLayerKVCache(batch=1, capacity=2, n_kv_heads=1,
                                      head_dim=4)
        k = rng.normal(size=(3, 1, 4)).astype(np.float16)
        with pytest.raises(EngineError):
            cache.append(0, k, k)
        with pytest.raises(EngineError):
            cache.append(5, k[:1], k[:1])
