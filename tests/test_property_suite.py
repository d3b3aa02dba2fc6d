"""Cross-module property-based tests (hypothesis).

Invariants that must hold across the whole stack for arbitrary inputs:
quantization error bounds, layout bijectivity, cost-algebra laws,
analytic/functional cost agreement, and softmax normalization.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.npu.hmx import matrix_from_hmx_layout, matrix_to_hmx_layout
from repro.npu.timing import KernelCost
from repro.quant.codebooks import CODEBOOKS, get_codebook
from repro.quant.codebooks import dequantize_with_codebook, quantize_with_codebook
from repro.quant.schemes import (
    dequantize_q4_0,
    dequantize_q8_0,
    quantize_q4_0,
    quantize_q8_0,
)
from repro.quant.tile_quant import dequantize_weight, quantize_tile_group

pytestmark = pytest.mark.slow


@st.composite
def gaussian_matrix(draw, max_dim=6):
    rows = 32 * draw(st.integers(1, max_dim))
    cols = 32 * draw(st.integers(1, max_dim))
    seed = draw(st.integers(0, 2**31 - 1))
    scale = draw(st.floats(1e-3, 10.0))
    rng = np.random.default_rng(seed)
    return (rng.normal(0, scale, (rows, cols))).astype(np.float32)


class TestQuantizationProperties:
    @given(gaussian_matrix())
    @settings(max_examples=25, deadline=None)
    def test_tile_quant_error_bounded(self, w):
        """Every element's error is at most one group scale."""
        q = quantize_tile_group(w)
        back = dequantize_weight(q).astype(np.float32)
        err = np.abs(w - back)
        # bound per element by the global worst-case scale
        worst_scale = float(q.groups.scales.astype(np.float32).max())
        assert err.max() <= worst_scale * 1.01 + 1e-6

    @given(st.integers(0, 2**31 - 1), st.floats(1e-3, 100.0))
    @settings(max_examples=40)
    def test_q8_always_beats_q4(self, seed, scale):
        values = np.random.default_rng(seed).normal(0, scale, 256)
        err4 = np.abs(dequantize_q4_0(quantize_q4_0(values))
                      .astype(np.float64) - values).mean()
        err8 = np.abs(dequantize_q8_0(quantize_q8_0(values))
                      .astype(np.float64) - values).mean()
        assert err8 <= err4 + 1e-9

    @given(st.sampled_from(["nf4", "fp4"]), st.integers(0, 2**31 - 1))
    @settings(max_examples=40)
    def test_codebook_idempotence(self, name, seed):
        """Re-quantizing already-quantized values is exact.

        Holds only for codebooks with symmetric endpoints (NF4, FP4):
        asymmetric grids (Q4_0, IQ4_NL) clip the positive extreme, which
        perturbs the next round's scale.
        """
        cb = get_codebook(name)
        values = np.random.default_rng(seed).normal(0, 1, 64)
        once = dequantize_with_codebook(
            quantize_with_codebook(values, cb), cb).astype(np.float64)
        twice = dequantize_with_codebook(
            quantize_with_codebook(once, cb), cb).astype(np.float64)
        assert np.allclose(once, twice, rtol=2e-3, atol=2e-4)


class TestLayoutProperties:
    @given(gaussian_matrix(max_dim=4))
    @settings(max_examples=25, deadline=None)
    def test_hmx_layout_bijective(self, w):
        layout, padded = matrix_to_hmx_layout(w)
        back = matrix_from_hmx_layout(layout, padded, w.shape)
        assert np.array_equal(back, w)

    @given(gaussian_matrix(max_dim=3))
    @settings(max_examples=15, deadline=None)
    def test_layout_preserves_multiset(self, w):
        layout, _ = matrix_to_hmx_layout(w)
        assert np.array_equal(np.sort(layout), np.sort(w.ravel()))


class TestCostAlgebra:
    @st.composite
    @staticmethod
    def cost(draw):
        return KernelCost(
            hmx_tile_macs=draw(st.integers(0, 10**6)),
            hvx_packets=draw(st.integers(0, 10**6)),
            vgather_instrs=draw(st.integers(0, 10**5)),
            vscatter_instrs=draw(st.integers(0, 10**5)),
            hvx_ddr_bytes=draw(st.integers(0, 10**8)),
            dma_bytes=draw(st.integers(0, 10**9)),
        )

    @given(cost(), cost())
    @settings(max_examples=40)
    def test_merge_is_commutative(self, a, b):
        left = KernelCost().merge(a).merge(b)
        right = KernelCost().merge(b).merge(a)
        assert left == right

    @given(cost(), st.integers(0, 100))
    @settings(max_examples=40)
    def test_scaling_is_linear(self, c, k):
        scaled = c.scaled(k)
        assert scaled.hvx_packets == k * c.hvx_packets
        assert scaled.dma_bytes == k * c.dma_bytes

    @given(cost())
    @settings(max_examples=40)
    def test_timing_monotone_in_cost(self, c):
        from repro.npu.timing import TimingModel, V75
        timing = TimingModel(V75)
        bigger = KernelCost().merge(c)
        bigger.hvx_packets += 1000
        bigger.dma_bytes += 10**6
        assert timing.seconds(bigger) >= timing.seconds(c)


class TestSoftmaxProperties:
    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**31 - 1),
           st.sampled_from(["lut", "poly16", "poly32"]))
    @settings(max_examples=20, deadline=None)
    def test_softmax_is_distribution(self, rows, col_blocks, seed, method):
        from repro.kernels.softmax import OnChipSoftmax
        from repro.npu.hvx import HVXContext
        from repro.npu.memory import TCM
        scores = np.random.default_rng(seed).normal(
            0, 3, (rows, 64 * col_blocks)).astype(np.float16)
        softmax = OnChipSoftmax(HVXContext(), method, tcm=TCM())
        out = softmax(scores).astype(np.float64)
        assert np.all(out >= 0)
        assert np.allclose(out.sum(axis=1), 1.0, atol=5e-3)


# ----------------------------------------------------------------------
# paged KV block pool (repro.llm.block_pool)
# ----------------------------------------------------------------------
_KV_OP = st.tuples(st.integers(0, 3),   # 0=append 1=fork 2=truncate 3=free
                   st.integers(0, 3),   # sequence slot
                   st.integers(1, 9))   # token count / truncate target


def _pool_invariants(cache):
    """Refcount accounting must match the live block tables exactly."""
    pool = cache.pool
    refs = {}
    for layer in cache.layers:
        for table in layer.tables:
            for handle in table:
                refs[handle] = refs.get(handle, 0) + 1
        for snapshot in getattr(layer, "_snapshots", ()):  # none by default
            for handle in snapshot:
                refs[handle] = refs.get(handle, 0) + 1
        # every table handle is backed by storage and vice versa
        live_in_layer = {h for table in layer.tables for h in table}
        assert live_in_layer <= set(layer._storage)
    assert pool.blocks_in_use == sum(
        len(layer._storage) for layer in cache.layers)
    for handle, expected in refs.items():
        assert pool.refcount(handle) == expected, (
            f"handle {handle}: pool says {pool.refcount(handle)}, "
            f"tables say {expected}")
    assert 0 <= pool.used_bytes <= pool.capacity_bytes
    assert pool.peak_bytes >= pool.used_bytes


class TestBlockPoolProperties:
    @given(st.lists(_KV_OP, min_size=1, max_size=40),
           st.integers(0, 2**31 - 1), st.sampled_from(["fp16", "q8"]))
    @settings(max_examples=30, deadline=None)
    def test_random_lifecycle_keeps_accounting_exact(self, ops, seed, dtype):
        """alloc/fork/truncate/free in any order: refcounts == live refs,
        usage never exceeds the budget, and the pool drains to zero."""
        from repro.llm.block_pool import PagedKVCache
        cache = PagedKVCache(2, 4, 64, 2, 4, dtype=dtype, block_size=4)
        rng = np.random.default_rng(seed)
        for opcode, seq, amount in ops:
            length = cache.sequence_length(seq)
            if opcode == 0 and length + amount <= 64:
                block = rng.normal(0, 1, (amount, 2, 4)).astype(np.float16)
                for layer in cache.layers:
                    layer.append(seq, block, block)
            elif opcode == 1:
                cache.fork(seq, [(seq + 1) % 4])
            elif opcode == 2:
                cache.truncate(seq, min(amount, length))
            elif opcode == 3:
                cache.free_sequence(seq)
            _pool_invariants(cache)
        for seq in range(4):
            cache.free_sequence(seq)
        assert cache.pool.blocks_in_use == 0
        assert cache.pool.used_bytes == 0

    @given(st.integers(1, 20), st.integers(1, 8), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_cow_fork_never_aliases_writes(self, prefix, tail, seed):
        """Divergent appends after a fork leave the source view bitwise
        intact, for any prefix/block alignment."""
        from repro.llm.block_pool import PagedKVCache
        cache = PagedKVCache(1, 4, 64, 2, 4, dtype="fp16", block_size=4)
        rng = np.random.default_rng(seed)
        layer = cache[0]
        block = rng.normal(0, 1, (prefix, 2, 4)).astype(np.float16)
        layer.append(0, block, block * 0.5)
        before_k, before_v = (a.copy() for a in layer.view(0))
        cache.fork(0, [1, 2])
        for target in (1, 2):
            divergent = rng.normal(0, 1, (tail, 2, 4)).astype(np.float16)
            layer.append(target, divergent, divergent)
        after_k, after_v = layer.view(0)
        np.testing.assert_array_equal(before_k, after_k)
        np.testing.assert_array_equal(before_v, after_v)
        fk1 = layer.view(1)[0]
        fk2 = layer.view(2)[0]
        np.testing.assert_array_equal(fk1[:prefix], before_k)
        np.testing.assert_array_equal(fk2[:prefix], before_k)
        assert not np.array_equal(fk1[prefix:], fk2[prefix:]) or tail == 0

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_double_free_raises(self, seed):
        from repro.errors import EngineError
        from repro.llm.block_pool import BlockPool
        pool = BlockPool(1024, block_size=4)
        handle = pool.alloc(64)
        assert pool.decref(handle)
        with pytest.raises(EngineError):
            pool.decref(handle)

    @given(st.integers(1, 6), st.integers(1, 40))
    @settings(max_examples=25, deadline=None)
    def test_pool_budget_is_enforced(self, capacity_blocks, appended):
        """Appending past the byte budget raises instead of overdrawing."""
        from repro.errors import EngineError
        from repro.llm.block_pool import BlockPool, PagedLayerKVCache
        probe = PagedLayerKVCache(1, 256, 2, 4, BlockPool(1, block_size=4))
        block_bytes = probe.block_nbytes()
        pool = BlockPool(capacity_blocks * block_bytes, block_size=4)
        layer = PagedLayerKVCache(1, 256, 2, 4, pool)
        token = np.zeros((1, 2, 4), np.float16)
        fits = capacity_blocks * 4
        try:
            for _ in range(appended):
                layer.append(0, token, token)
        except EngineError:
            assert appended > fits
        else:
            assert appended <= fits
        assert pool.used_bytes <= pool.capacity_bytes
