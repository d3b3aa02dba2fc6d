"""Unit tests for the HMX matrix-unit model and tile layouts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TileShapeError
from repro.npu.hmx import (
    TILE_DIM,
    TILE_ELEMS,
    HMXUnit,
    hmx_layout_order,
    matrix_from_hmx_layout,
    matrix_to_hmx_layout,
    pad_to_tiles,
    padded_fp32,
    tile_permute,
    tile_unpermute,
)
from repro.testing import laid_out


class TestTilePermute:
    def test_roundtrip(self, rng):
        tile = rng.normal(size=(TILE_DIM, TILE_DIM)).astype(np.float16)
        assert np.array_equal(tile_unpermute(tile_permute(tile)), tile)

    def test_paired_row_interleave(self):
        """Fig. 4a: two adjacent rows store as the transposed 2x32 block."""
        tile = np.zeros((TILE_DIM, TILE_DIM))
        tile[0, :] = np.arange(TILE_DIM)          # even row
        tile[1, :] = np.arange(TILE_DIM) + 100    # odd row
        flat = tile_permute(tile)
        # first 64 elements: e0, o0, e1, o1, ...
        assert flat[0] == 0 and flat[1] == 100
        assert flat[2] == 1 and flat[3] == 101

    def test_wrong_shape_rejected(self):
        with pytest.raises(TileShapeError):
            tile_permute(np.zeros((16, 32)))
        with pytest.raises(TileShapeError):
            tile_unpermute(np.zeros(100))

    @given(st.integers(min_value=0, max_value=999))
    @settings(max_examples=30)
    def test_permutation_is_bijection(self, seed):
        tile = np.random.default_rng(seed).permutation(TILE_ELEMS)
        tile = tile.reshape(TILE_DIM, TILE_DIM)
        flat = tile_permute(tile)
        assert sorted(flat.tolist()) == list(range(TILE_ELEMS))


class TestMatrixLayout:
    def test_roundtrip_aligned(self, rng):
        matrix = rng.normal(size=(64, 96)).astype(np.float16)
        layout, padded = matrix_to_hmx_layout(matrix)
        back = matrix_from_hmx_layout(layout, padded, matrix.shape)
        assert np.array_equal(back, matrix)

    def test_roundtrip_with_padding(self, rng):
        matrix = rng.normal(size=(50, 70)).astype(np.float16)
        layout, padded = matrix_to_hmx_layout(matrix)
        assert padded == (64, 96)
        back = matrix_from_hmx_layout(layout, padded, matrix.shape)
        assert np.array_equal(back, matrix)

    def test_tiles_are_column_major(self):
        """Fig. 4b: tiles are emitted column-by-column."""
        matrix = np.zeros((64, 64))
        matrix[32:, :32] = 1.0  # tile (1, 0): second in column-major order
        layout, _ = matrix_to_hmx_layout(matrix)
        assert np.all(layout[TILE_ELEMS:2 * TILE_ELEMS] == 1.0)
        assert np.all(layout[:TILE_ELEMS] == 0.0)

    def test_pad_to_tiles(self):
        assert pad_to_tiles(np.zeros((32, 32))).shape == (32, 32)
        assert pad_to_tiles(np.zeros((33, 1))).shape == (64, 32)

    def test_pad_requires_2d(self):
        with pytest.raises(TileShapeError):
            pad_to_tiles(np.zeros(10))

    def test_layout_order_is_permutation(self):
        order = hmx_layout_order(64, 32)
        assert sorted(order.tolist()) == list(range(64 * 32))

    def test_layout_order_requires_alignment(self):
        with pytest.raises(TileShapeError):
            hmx_layout_order(30, 32)

    def test_layout_order_matches_layout(self, rng):
        matrix = rng.normal(size=(32, 64)).astype(np.float32)
        order = hmx_layout_order(32, 64)
        layout, _ = matrix_to_hmx_layout(matrix)
        assert np.array_equal(matrix.ravel()[order], layout)

    def test_buffer_size_validation(self):
        with pytest.raises(TileShapeError):
            matrix_from_hmx_layout(np.zeros(10), (32, 32))
        with pytest.raises(TileShapeError):
            matrix_from_hmx_layout(np.zeros(32 * 32), (30, 32))


def reference_to_layout(matrix):
    """:func:`matrix_to_hmx_layout` one tile at a time."""
    padded = pad_to_tiles(matrix)
    rows, cols = padded.shape
    out = np.empty(rows * cols, dtype=padded.dtype)
    pos = 0
    for tc in range(cols // TILE_DIM):
        for tr in range(rows // TILE_DIM):
            tile = padded[tr * TILE_DIM:(tr + 1) * TILE_DIM,
                          tc * TILE_DIM:(tc + 1) * TILE_DIM]
            out[pos:pos + TILE_ELEMS] = tile_permute(tile)
            pos += TILE_ELEMS
    return out, (rows, cols)


def reference_from_layout(flat, padded_shape, original_shape=None):
    """:func:`matrix_from_hmx_layout` one tile at a time."""
    rows, cols = padded_shape
    out = np.empty((rows, cols), dtype=flat.dtype)
    pos = 0
    for tc in range(cols // TILE_DIM):
        for tr in range(rows // TILE_DIM):
            out[tr * TILE_DIM:(tr + 1) * TILE_DIM,
                tc * TILE_DIM:(tc + 1) * TILE_DIM] = tile_unpermute(
                    flat[pos:pos + TILE_ELEMS])
            pos += TILE_ELEMS
    if original_shape is not None:
        out = out[:original_shape[0], :original_shape[1]]
    return out


@pytest.mark.parametrize("shape", [(1, 1), (32, 32), (50, 70), (96, 33),
                                   (128, 64)])
@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.int64])
@pytest.mark.parametrize("order", ["C", "F"])
def test_layout_reshapes_match_the_tile_loops(shape, dtype, order):
    """Byte for byte, in both directions, with the crop's memory layout."""
    values = np.random.default_rng(list(shape)).normal(0, 100, shape)
    matrix = np.asarray(values, dtype=dtype, order=order)
    layout, padded = matrix_to_hmx_layout(matrix)
    expected, expected_padded = reference_to_layout(matrix)
    assert padded == expected_padded and layout.dtype == expected.dtype
    assert layout.tobytes() == expected.tobytes()
    assert not np.shares_memory(layout, matrix)
    for crop in (None, shape):
        back = matrix_from_hmx_layout(layout, padded, crop)
        expected_back = reference_from_layout(layout, padded, crop)
        assert back.tobytes() == expected_back.tobytes()
        assert back.strides == expected_back.strides
        assert not np.shares_memory(back, layout)


class TestHMXUnit:
    def test_gemm_matches_numpy(self, rng):
        a = rng.normal(size=(5, 40)).astype(np.float16)
        b = rng.normal(size=(40, 33)).astype(np.float16)
        hmx = HMXUnit()
        out = hmx.gemm(a, b)
        ref = a.astype(np.float32) @ b.astype(np.float32)
        assert out.shape == (5, 33)
        assert np.allclose(out.astype(np.float32), ref, rtol=2e-3, atol=2e-3)

    def test_record_gemm_counts_tile_macs_and_gemm_records_none(self, rng):
        a = rng.normal(size=(1, 64)).astype(np.float16)
        b = rng.normal(size=(64, 96)).astype(np.float16)
        hmx = HMXUnit()
        hmx.gemm(a, b)
        assert hmx.trace.as_dict() == {}
        hmx.record_gemm(1, 64, 96)
        assert hmx.trace.count("hmx_tile_mac") == 1 * 2 * 3
        assert hmx.trace.count("hmx_tile_out") == 1 * 3

    @pytest.mark.parametrize("a_layout,w_layout,k_step", [
        ("C", "C", (2, TILE_DIM)),                       # the real rows
        ("strided", "C", (2, TILE_DIM)),
        ("C", "F", (1, 1, TILE_DIM, TILE_DIM)),          # tile pairs
        ("C", "transposed", (1, 1, TILE_DIM, TILE_DIM)),
        ("F", "C", (1, 1, TILE_DIM, TILE_DIM)),
    ])
    def test_gemm_routes_by_operand_strides(self, monkeypatch, a_layout,
                                            w_layout, k_step):
        """Row-major operands multiply only their real rows per K step;
        any other layout is multiplied tile by tile."""
        steps = []
        accumulate = HMXUnit._accumulate_k_tile

        def spy(activations, weights, accumulator):
            steps.append(activations.shape)
            accumulate(activations, weights, accumulator)

        monkeypatch.setattr(HMXUnit, "_accumulate_k_tile", staticmethod(spy))
        a = laid_out(padded_fp32(np.ones((2, 64), np.float16)), a_layout)
        w = laid_out(padded_fp32(np.ones((64, 96), np.float16)), w_layout)
        out = HMXUnit().gemm(a, w, shape=(2, 64, 96))
        assert steps == [k_step] * 2
        assert np.all(out == np.float16(64))

    def test_single_token_wastes_tile(self):
        """The paper's core observation: m=1 costs as much as m=32."""
        assert HMXUnit.tile_macs_for_gemm(1, 64, 64) == \
            HMXUnit.tile_macs_for_gemm(32, 64, 64)
        assert HMXUnit.tile_macs_for_gemm(33, 64, 64) == \
            2 * HMXUnit.tile_macs_for_gemm(32, 64, 64)

    def test_fp32_accumulation(self):
        """FP16 inputs, FP32 accumulate: sum of many small values survives."""
        k = 2048
        a = np.full((1, k), 0.1, dtype=np.float16)
        b = np.full((k, 1), 0.1, dtype=np.float16)
        out = HMXUnit().gemm(a, b, out_dtype=np.float32)
        # pure-FP16 accumulation would stall near 512 once the running sum
        # saturates FP16 precision; FP32 accumulation stays accurate
        assert abs(out[0, 0] - k * 0.1 * 0.1) / (k * 0.01) < 2e-3

    def test_tile_mac_shape_checks(self):
        hmx = HMXUnit()
        acc = np.zeros((TILE_DIM, TILE_DIM), dtype=np.float32)
        with pytest.raises(TileShapeError):
            hmx.tile_mac(np.zeros((16, 32)), np.zeros((32, 32)), acc)
        with pytest.raises(TileShapeError):
            hmx.tile_mac(np.zeros((32, 32)), np.zeros((32, 32)),
                         np.zeros((16, 16)))

    def test_gemm_dim_checks(self):
        hmx = HMXUnit()
        with pytest.raises(TileShapeError):
            hmx.gemm(np.zeros((2, 3)), np.zeros((4, 5)))
        with pytest.raises(TileShapeError):
            hmx.gemm(np.zeros(3), np.zeros((3, 4)))

    @staticmethod
    def _prewidened(case: str = ""):
        """A (5, 40) @ (40, 33) product, padded and widened, then ``case``."""
        a = padded_fp32(np.ones((5, 40), np.float16))     # 32 x 64
        w = padded_fp32(np.ones((40, 33), np.float16))    # 64 x 64
        shape = (5, 40, 33)
        if case == "fp16 activations":
            a = a.astype(np.float16)
        elif case == "fp16 weights":
            w = w.astype(np.float16)
        elif case == "unpadded activations":
            a = np.ones((5, 64), np.float32)
        elif case == "unpadded weights":
            w = np.ones((64, 33), np.float32)
        elif case == "inner dimensions":
            w = np.ones((96, 64), np.float32)
        elif case == "stacks":
            a, w = np.stack([a] * 2), np.stack([w] * 3)
        elif case == "1-D matrix":
            a = padded_fp32(np.zeros(5, np.float16))
        elif case:
            shape = {"m too large": (33, 40, 33), "k too small": (5, 32, 33),
                     "n too large": (5, 40, 65), "two dims": (2, 32)}[case]
        return a, w, shape

    def test_prewidened_gemm_crops_to_shape(self):
        a, w, shape = self._prewidened()
        out = HMXUnit().gemm(a, w, shape=shape)
        assert out.shape == (5, 33) and np.all(out == np.float16(40))

    @pytest.mark.parametrize("case", [
        "fp16 activations", "fp16 weights", "unpadded activations",
        "unpadded weights", "inner dimensions", "stacks",
        "m too large", "k too small", "n too large", "two dims",
        "1-D matrix"])
    def test_prewidened_gemm_checks(self, case):
        """Pre-widened operands must be FP32, padded, and fit ``shape``,
        which is three ints; a 1-D matrix cannot be widened."""
        with pytest.raises(TileShapeError):
            a, w, shape = self._prewidened(case)
            HMXUnit().gemm(a, w, shape=shape)

    def test_emit_output_tile_scale_bias(self):
        hmx = HMXUnit()
        acc = np.ones((TILE_DIM, TILE_DIM), dtype=np.float32)
        scale = np.full(TILE_DIM, 2.0, dtype=np.float32)
        bias = np.full(TILE_DIM, 1.0, dtype=np.float32)
        out = hmx.emit_output_tile(acc, scale, bias)
        assert np.all(out == np.float16(3.0))

    def test_emit_output_tile_bad_scale(self):
        hmx = HMXUnit()
        acc = np.zeros((TILE_DIM, TILE_DIM), dtype=np.float32)
        with pytest.raises(TileShapeError):
            hmx.emit_output_tile(acc, channel_scale=np.zeros(8))

    def test_tile_macs_positive_dims(self):
        with pytest.raises(TileShapeError):
            HMXUnit.tile_macs_for_gemm(0, 32, 32)

    @given(st.integers(1, 100), st.integers(1, 100), st.integers(1, 100))
    @settings(max_examples=50)
    def test_tile_mac_count_formula(self, m, k, n):
        count = HMXUnit.tile_macs_for_gemm(m, k, n)
        expected = -(-m // 32) * -(-k // 32) * -(-n // 32)
        assert count == expected


class TestLayoutGemmEquivalence:
    def test_gemm_through_layout_roundtrip(self, rng):
        """GEMM on layout-roundtripped weights equals GEMM on originals."""
        a = rng.normal(size=(4, 48)).astype(np.float16)
        w = rng.normal(size=(48, 80)).astype(np.float16)
        layout, padded = matrix_to_hmx_layout(w)
        w_back = matrix_from_hmx_layout(layout, padded, w.shape)
        out_direct = HMXUnit().gemm(a, w)
        out_layout = HMXUnit().gemm(a, w_back)
        assert np.array_equal(out_direct, out_layout)
