"""Unit tests for the batched KV cache."""

import numpy as np
import pytest

from repro.errors import EngineError
from repro.llm.kv_cache import KVCache, LayerKVCache


@pytest.fixture
def layer_cache():
    return LayerKVCache(batch=4, capacity=16, n_kv_heads=2, head_dim=8)


def _kv(rng, n):
    return (rng.normal(size=(n, 2, 8)).astype(np.float16),
            rng.normal(size=(n, 2, 8)).astype(np.float16))


class TestLayerKVCache:
    def test_append_and_view(self, layer_cache, rng):
        k, v = _kv(rng, 3)
        layer_cache.append(0, k, v)
        keys, values = layer_cache.view(0)
        assert keys.shape == (3, 2, 8)
        assert np.array_equal(keys, k) and np.array_equal(values, v)
        # FP16 views read the storage itself, not a copy
        assert np.shares_memory(keys, layer_cache.arrays["kv"])
        assert np.shares_memory(values, layer_cache.arrays["kv"])

    def test_incremental_append(self, layer_cache, rng):
        k1, v1 = _kv(rng, 2)
        k2, v2 = _kv(rng, 3)
        layer_cache.append(1, k1, v1)
        layer_cache.append(1, k2, v2)
        keys, _ = layer_cache.view(1)
        assert keys.shape[0] == 5
        assert np.array_equal(keys[:2], k1) and np.array_equal(keys[2:], k2)

    def test_sequences_independent(self, layer_cache, rng):
        k, v = _kv(rng, 2)
        layer_cache.append(0, k, v)
        assert layer_cache.view(1)[0].shape[0] == 0

    def test_overflow_rejected(self, layer_cache, rng):
        k, v = _kv(rng, 17)
        with pytest.raises(EngineError):
            layer_cache.append(0, k, v)

    def test_bad_sequence_index(self, layer_cache, rng):
        k, v = _kv(rng, 1)
        with pytest.raises(EngineError):
            layer_cache.append(4, k, v)

    def test_shape_mismatch(self, layer_cache, rng):
        k = rng.normal(size=(1, 3, 8)).astype(np.float16)
        with pytest.raises(EngineError):
            layer_cache.append(0, k, k)

    def test_fork_copies_prefix(self, layer_cache, rng):
        k, v = _kv(rng, 4)
        layer_cache.append(0, k, v)
        layer_cache.fork(0, [1, 2])
        for target in (1, 2):
            keys, values = layer_cache.view(target)
            assert np.array_equal(keys, k) and np.array_equal(values, v)

    def test_fork_target_range(self, layer_cache, rng):
        k, v = _kv(rng, 1)
        layer_cache.append(0, k, v)
        with pytest.raises(EngineError):
            layer_cache.fork(0, [9])

    def test_truncate(self, layer_cache, rng):
        k, v = _kv(rng, 5)
        layer_cache.append(0, k, v)
        layer_cache.truncate(0, 2)
        assert layer_cache.view(0)[0].shape[0] == 2

    def test_truncate_beyond_length(self, layer_cache, rng):
        k, v = _kv(rng, 2)
        layer_cache.append(0, k, v)
        with pytest.raises(EngineError):
            layer_cache.truncate(0, 5)

    def test_dimension_validation(self):
        with pytest.raises(EngineError):
            LayerKVCache(batch=0, capacity=4, n_kv_heads=1, head_dim=8)


class TestKVCache:
    def test_layers_independent(self, rng):
        cache = KVCache(n_layers=3, batch=2, capacity=8, n_kv_heads=2,
                        head_dim=4)
        k = rng.normal(size=(2, 2, 4)).astype(np.float16)
        cache[0].append(0, k, k)
        assert cache.sequence_length(0) == 2
        assert cache[1].view(0)[0].shape[0] == 0  # other layers untouched

    def test_fork_applies_to_all_layers(self, rng):
        cache = KVCache(n_layers=2, batch=3, capacity=8, n_kv_heads=1,
                        head_dim=4)
        k = rng.normal(size=(3, 1, 4)).astype(np.float16)
        for layer in cache.layers:
            layer.append(0, k, k)
        cache.fork(0, [1, 2])
        for layer in cache.layers:
            assert layer.view(2)[0].shape[0] == 3

    def test_truncate_applies_to_all_layers(self, rng):
        cache = KVCache(n_layers=2, batch=1, capacity=8, n_kv_heads=1,
                        head_dim=4)
        k = rng.normal(size=(4, 1, 4)).astype(np.float16)
        for layer in cache.layers:
            layer.append(0, k, k)
        cache.truncate(0, 1)
        for layer in cache.layers:
            assert layer.view(0)[0].shape[0] == 1

    def test_nbytes(self):
        cache = KVCache(n_layers=2, batch=2, capacity=16, n_kv_heads=2,
                        head_dim=8)
        expected = 2 * 2 * (2 * 16 * 2 * 8 * 2)  # layers * K&V * dims * fp16
        assert cache.nbytes() == expected

    def test_len(self):
        assert len(KVCache(5, 1, 4, 1, 4)) == 5


class TestHeapBackedBlockPool:
    def test_pool_backing_charges_npu_va_space(self):
        from repro.llm.block_pool import PagedKVCache
        from repro.npu import DEVICES

        heap = DEVICES["oneplus_ace3"].rpcmem_heap()
        cache = PagedKVCache(2, 4, 64, 2, 8, heap=heap)
        assert cache.pool.backing.nbytes == cache.pool.capacity_bytes
        assert heap.peak_mapped_bytes >= cache.pool.capacity_bytes
        assert heap.free_va_bytes() == (heap.va_space_bytes
                                        - heap.mapped_bytes())

    def test_oversized_pool_hits_the_va_wall(self):
        from repro.errors import AddressSpaceError
        from repro.llm.block_pool import PagedKVCache
        from repro.npu import DEVICES

        heap = DEVICES["oneplus_ace3"].rpcmem_heap()  # 2 GiB VA space
        with pytest.raises(AddressSpaceError):
            PagedKVCache(2, 8, 10**9, 8, 128, heap=heap)


class TestPagedDefaultPool:
    @pytest.mark.parametrize("dtype, token_bytes", [
        ("fp16", 2 * 2 * 8 * 2),          # K and V, 2 heads x 8 FP16
        ("q8", 2 * 2 * 8 + 2 * 2 * 2),    # INT8 codes plus FP16 scales
    ])
    def test_budget_holds_one_sequence_beyond_the_batch(self, dtype,
                                                       token_bytes):
        from repro.llm.block_pool import PagedKVCache

        cache = PagedKVCache(2, 4, 40, 2, 8, dtype=dtype, block_size=16)
        assert cache[0].block_nbytes() == 16 * token_bytes
        # 2 layers x (4 + 1) sequences x 3 whole blocks of 16 tokens
        assert cache.pool.capacity_bytes == 2 * 5 * 3 * 16 * token_bytes

    @pytest.mark.parametrize("block_size", [0, -4])
    def test_non_positive_block_size(self, block_size):
        from repro.llm.block_pool import PagedKVCache

        with pytest.raises(EngineError, match="block size must be positive"):
            PagedKVCache(1, 2, 8, 1, 4, block_size=block_size)
