"""Unit tests for the FP16 FlashAttention kernel (Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KernelError
from repro.kernels.flash_attention import (
    FlashAttention,
    attention_fp32_reference,
)
from repro.npu.memory import TCM


def _make_qkv(rng, n_q, n_kv, d):
    return (rng.normal(0, 1, (n_q, d)).astype(np.float16),
            rng.normal(0, 1, (n_kv, d)).astype(np.float16),
            rng.normal(0, 1, (n_kv, d)).astype(np.float16))


class TestNumericalAccuracy:
    @pytest.mark.parametrize("method", ["lut", "poly16", "poly32"])
    def test_close_to_fp32_reference(self, method, rng):
        q, k, v = _make_qkv(rng, 8, 96, 64)
        fa = FlashAttention(method, tcm=TCM())
        out, _ = fa(q, k, v)
        ref = attention_fp32_reference(q, k, v)
        scale = np.abs(ref).max()
        assert np.abs(out.astype(np.float32) - ref).max() / scale < 0.01

    def test_unaligned_shapes(self, rng):
        q, k, v = _make_qkv(rng, 3, 50, 48)
        fa = FlashAttention("lut", tcm=TCM())
        out, _ = fa(q, k, v)
        assert out.shape == (3, 48)
        ref = attention_fp32_reference(q, k, v)
        assert np.abs(out.astype(np.float32) - ref).max() < 0.05

    def test_single_query_decode_shape(self, rng):
        """The decode case: one query against a long KV cache."""
        q, k, v = _make_qkv(rng, 1, 512, 64)
        fa = FlashAttention("lut", tcm=TCM())
        out, _ = fa(q, k, v)
        ref = attention_fp32_reference(q, k, v)
        assert np.abs(out.astype(np.float32) - ref).max() < 0.02

    def test_blockwise_invariance(self, rng):
        """Result is independent of the KV block size (online softmax)."""
        q, k, v = _make_qkv(rng, 4, 160, 32)
        out_32, _ = FlashAttention("lut", tcm=TCM(), block_kv=32)(q, k, v)
        out_96, _ = FlashAttention("lut", tcm=TCM(), block_kv=96)(q, k, v)
        assert np.abs(out_32.astype(np.float32)
                      - out_96.astype(np.float32)).max() < 2e-2

    def test_extreme_scores_stay_finite(self):
        """Safe softmax: huge logits must not overflow FP16."""
        q = np.full((1, 32), 15.0, dtype=np.float16)
        k = np.full((64, 32), 15.0, dtype=np.float16)
        v = np.ones((64, 32), dtype=np.float16)
        out, _ = FlashAttention("lut", tcm=TCM())(q, k, v, scale=1.0)
        assert np.isfinite(out.astype(np.float32)).all()
        assert np.allclose(out.astype(np.float32), 1.0, atol=1e-2)

    @given(st.integers(1, 8), st.integers(1, 4), st.integers(0, 50))
    @settings(max_examples=20, deadline=None)
    def test_rows_are_convex_combinations(self, n_q, kv_blocks, seed):
        """Each output row lies in the convex hull of the value rows."""
        rng = np.random.default_rng(seed)
        q, k, v = _make_qkv(rng, n_q, kv_blocks * 32, 32)
        out, _ = FlashAttention("lut", tcm=TCM())(q, k, v)
        out32 = out.astype(np.float32)
        v32 = v.astype(np.float32)
        assert np.all(out32 <= v32.max(axis=0) + 0.05)
        assert np.all(out32 >= v32.min(axis=0) - 0.05)


class TestCausalMasking:
    def test_first_token_attends_to_itself_only(self, rng):
        q, k, v = _make_qkv(rng, 4, 4, 32)
        pos = np.arange(4)
        out, _ = FlashAttention("lut", tcm=TCM())(q, k, v, q_positions=pos,
                                                  k_positions=pos)
        # row 0 can only see key 0 -> output equals v[0]
        assert np.allclose(out[0].astype(np.float32),
                           v[0].astype(np.float32), atol=1e-2)

    def test_matches_masked_reference(self, rng):
        q, k, v = _make_qkv(rng, 6, 6, 32)
        pos = np.arange(6)
        out, _ = FlashAttention("lut", tcm=TCM())(q, k, v, q_positions=pos,
                                                  k_positions=pos)
        ref = attention_fp32_reference(q, k, v, q_positions=pos,
                                       k_positions=pos)
        assert np.abs(out.astype(np.float32) - ref).max() < 0.02

    def test_position_length_check(self, rng):
        q, k, v = _make_qkv(rng, 4, 8, 32)
        fa = FlashAttention("lut", tcm=TCM())
        with pytest.raises(KernelError):
            fa(q, k, v, q_positions=np.arange(3), k_positions=np.arange(8))


class TestCostAccounting:
    def test_breakdown_phases_populated(self, rng):
        q, k, v = _make_qkv(rng, 4, 128, 64)
        _, breakdown = FlashAttention("lut", tcm=TCM())(q, k, v)
        assert breakdown.qk_matmul.hmx_tile_macs > 0
        assert breakdown.pv_matmul.hmx_tile_macs > 0
        assert breakdown.softmax.vgather_instrs > 0
        assert breakdown.rescale.hvx_packets > 0

    def test_softmax_cost_scales_with_true_queries(self, rng):
        """Padded rows are masked: softmax work tracks n_q, not tiles."""
        _, bd1 = FlashAttention("lut", tcm=TCM())(
            *_make_qkv(rng, 1, 256, 64))
        _, bd16 = FlashAttention("lut", tcm=TCM())(
            *_make_qkv(rng, 16, 256, 64))
        assert bd16.softmax.vgather_instrs > 4 * bd1.softmax.vgather_instrs
        # matmul cost is tile-quantized: identical for 1 and 16 queries
        assert bd16.qk_matmul.hmx_tile_macs == bd1.qk_matmul.hmx_tile_macs

    def test_poly32_softmax_costs_more_than_lut(self, rng):
        from repro.npu.timing import TimingModel, V75
        timing = TimingModel(V75)
        q, k, v = _make_qkv(rng, 8, 512, 64)
        _, bd_lut = FlashAttention("lut", tcm=TCM())(q, k, v)
        _, bd_poly = FlashAttention("poly32", tcm=TCM())(q, k, v)
        assert timing.seconds(bd_poly.softmax) > timing.seconds(bd_lut.softmax)

    def test_block_size_validation(self):
        with pytest.raises(KernelError):
            FlashAttention("lut", tcm=TCM(), block_kv=48)

    def test_lut_requires_tcm(self):
        with pytest.raises(KernelError):
            FlashAttention("lut", tcm=None)

    @pytest.mark.parametrize("items,kv_items", [(3, 2), (2, 3), (2, 0)])
    def test_query_items_must_be_a_multiple_of_kv_items(self, items,
                                                         kv_items):
        fa = FlashAttention("poly32")
        with pytest.raises(KernelError, match="whole multiple"):
            fa(np.zeros((items, 1, 16), dtype=np.float16),
               np.zeros((kv_items, 4, 16), dtype=np.float16),
               np.zeros((kv_items, 4, 16), dtype=np.float16))

    def test_operand_validation(self, rng):
        fa = FlashAttention("poly32")
        with pytest.raises(KernelError):
            fa(np.zeros((2, 8), dtype=np.float16),
               np.zeros((4, 16), dtype=np.float16),
               np.zeros((4, 16), dtype=np.float16))
        with pytest.raises(KernelError):
            fa(np.zeros(8, dtype=np.float16),
               np.zeros((4, 8), dtype=np.float16),
               np.zeros((4, 8), dtype=np.float16))
