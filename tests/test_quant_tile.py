"""Unit tests for tile-group quantization (§5.1.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QuantizationError
from repro.npu.hmx import hmx_layout_order, pad_to_tiles
from repro.quant.schemes import (
    dequantize_q4_0,
    dequantize_q8_0,
    quantization_mse,
    quantize_q4_0,
    quantize_q8_0,
)
from repro.quant.tile_quant import (
    QuantizedWeight,
    dequantize_layout_stream,
    dequantize_weight,
    quantize_conventional_group,
    quantize_tile_group,
    tile_group_geometry,
)


class TestTileGroupQuantization:
    def test_roundtrip_shape(self, rng):
        w = rng.normal(size=(50, 70)).astype(np.float32)
        q = quantize_tile_group(w)
        back = dequantize_weight(q)
        assert back.shape == w.shape

    def test_error_comparable_to_conventional(self, rng):
        """§5.1.1 claim: 2x16 tile groups have comparable error to 1x32."""
        w = rng.normal(0, 0.5, (256, 512)).astype(np.float32)
        tile = quantize_tile_group(w)
        conv = quantize_conventional_group(w)
        mse_tile = quantization_mse(w, dequantize_weight(tile))
        mse_conv = quantization_mse(w, dequantize_weight(conv))
        assert 0.5 < mse_tile / mse_conv < 2.0

    def test_groups_are_2x16_tiles(self):
        """A tile group of 32 covers a 2x16 patch of the matrix."""
        assert tile_group_geometry(32) == (2, 16)
        assert tile_group_geometry(64) == (2, 32)

    def test_geometry_validation(self):
        with pytest.raises(QuantizationError):
            tile_group_geometry(33)
        with pytest.raises(QuantizationError):
            tile_group_geometry(128)

    def test_group_scale_isolation(self, rng):
        """An outlier only affects the 2x16 tile patch it sits in."""
        w = rng.normal(0, 0.1, (64, 64)).astype(np.float32)
        w[0, 0] = 50.0  # outlier in the first tile group
        q = quantize_tile_group(w)
        back = dequantize_weight(q).astype(np.float32)
        err = np.abs(w - back)
        # the damaged patch is rows 0-1, cols 0-15
        damaged = err[:2, :16].max()
        clean = err[4:, 16:].max()
        assert damaged > 10 * clean

    def test_storage_bytes(self, rng):
        w = rng.normal(size=(64, 64)).astype(np.float32)
        q = quantize_tile_group(w, bits=4)
        expected = 64 * 64 // 2 + (64 * 64 // 32) * 2
        assert q.storage_bytes == expected

    def test_q8_variant(self, rng):
        w = rng.normal(size=(64, 64)).astype(np.float32)
        q4 = quantize_tile_group(w, bits=4)
        q8 = quantize_tile_group(w, bits=8)
        mse4 = quantization_mse(w, dequantize_weight(q4))
        mse8 = quantization_mse(w, dequantize_weight(q8))
        assert mse8 < mse4 / 50

    def test_requires_matrix(self):
        with pytest.raises(QuantizationError):
            quantize_tile_group(np.zeros(10))

    def test_unsupported_bits(self, rng):
        with pytest.raises(QuantizationError):
            quantize_tile_group(rng.normal(size=(32, 32)), bits=2)

    @given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_recovers_padding(self, tr, tc, seed):
        rng = np.random.default_rng(seed)
        shape = (tr * 32 - seed % 7, tc * 32 - seed % 5)
        w = rng.normal(size=shape).astype(np.float32)
        q = quantize_tile_group(w)
        assert dequantize_weight(q).shape == shape


class TestConventionalGroupQuantization:
    def test_groups_run_down_columns(self, rng):
        """An outlier poisons its 32-element column run, nothing else."""
        w = rng.normal(0, 0.1, (64, 64)).astype(np.float32)
        w[0, 5] = 50.0
        q = quantize_conventional_group(w)
        back = dequantize_weight(q).astype(np.float32)
        err = np.abs(w - back)
        damaged = err[:32, 5].max()
        clean = np.delete(err, 5, axis=1).max()
        assert damaged > 10 * clean

    def test_column_length_validation(self, rng):
        with pytest.raises(QuantizationError):
            quantize_conventional_group(rng.normal(size=(30, 32)))

    def test_requires_matrix(self):
        with pytest.raises(QuantizationError):
            quantize_conventional_group(np.zeros(32))


class TestLayoutStream:
    def test_hmx_stream_is_layout_ordered(self, rng):
        """The dequantized stream is directly HMX memory order (§5.1.1)."""
        w = rng.normal(size=(64, 32)).astype(np.float32)
        q = quantize_tile_group(w)
        stream = dequantize_layout_stream(q).astype(np.float32)
        matrix = dequantize_weight(q).astype(np.float32)
        padded = pad_to_tiles(matrix)
        order = hmx_layout_order(*q.padded_shape)
        assert np.allclose(padded.ravel()[order], stream, atol=1e-3)

    def test_layout_validation(self, rng):
        w = rng.normal(size=(32, 32)).astype(np.float32)
        q = quantize_tile_group(w)
        with pytest.raises(QuantizationError):
            QuantizedWeight(groups=q.groups, layout="bogus",
                            original_shape=(32, 32), padded_shape=(32, 32))


# ----------------------------------------------------------------------
# references: the index-order gather and scatter the layout reshapes
# replaced
# ----------------------------------------------------------------------
def reference_tile_groups(weight, bits):
    padded = pad_to_tiles(np.asarray(weight, dtype=np.float32))
    values = padded.ravel()[hmx_layout_order(*padded.shape)]
    return (quantize_q4_0 if bits == 4 else quantize_q8_0)(values)


def reference_dequantize_weight(quantized):
    groups = quantized.groups
    flat = (dequantize_q4_0 if groups.bits == 4 else dequantize_q8_0)(
        groups).astype(np.float32)
    rows, cols = quantized.padded_shape
    if quantized.layout == "hmx_tile":
        out = np.empty(rows * cols, dtype=np.float32)
        out[hmx_layout_order(rows, cols)] = flat
        matrix = out.reshape(rows, cols)
    else:
        matrix = flat.reshape(cols, rows).T
    o_rows, o_cols = quantized.original_shape
    return matrix[:o_rows, :o_cols].astype(np.float16)


@pytest.mark.parametrize("shape", [(32, 32), (33, 33), (50, 70), (64, 33),
                                   (96, 160)])
@pytest.mark.parametrize("bits", [4, 8])
def test_tile_groups_match_the_order_gather_and_scatter(shape, bits):
    w = np.random.default_rng(list(shape)).normal(0, 0.05, shape)
    quantized = quantize_tile_group(w, bits=bits)
    expected = reference_tile_groups(w, bits)
    assert quantized.groups.codes.tobytes() == expected.codes.tobytes()
    assert quantized.groups.scales.tobytes() == expected.scales.tobytes()
    variants = [quantized]
    if shape[0] % 32 == 0:
        variants.append(quantize_conventional_group(w, bits=bits))
    for variant in variants:
        got = dequantize_weight(variant)
        reference = reference_dequantize_weight(variant)
        assert got.dtype == reference.dtype
        assert got.tobytes() == reference.tobytes()
        assert got.strides == reference.strides
