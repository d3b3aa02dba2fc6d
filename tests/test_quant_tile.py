"""Unit tests for tile-group quantization (§5.1.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QuantizationError
from repro.llm import NPUTransformer, TransformerWeights, tiny_config
from repro.npu.hmx import hmx_layout_order, pad_to_tiles, padded_fp32
from repro.quant.coalesce import pack_supergroups_q4
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
from repro.testing.oracles import hmx_order_tile_groups


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


# ----------------------------------------------------------------------
# input checks: non-finite weights and group sizes that run past a row pair
# ----------------------------------------------------------------------
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_weight_names_its_first_element(value):
    w = np.random.default_rng(0).normal(0, 0.05, (40, 50))
    w[33, 7] = value
    w[35, 2] = np.nan  # later in row-major order
    with pytest.raises(QuantizationError, match=rf"\(33, 7\) is {value}"):
        quantize_tile_group(w)


@pytest.mark.parametrize("group_size", [2, 4, 8, 16, 32, 64])
def test_every_even_divisor_of_a_row_pair_is_a_group_size(group_size):
    w = np.random.default_rng(group_size).normal(0, 0.05, (40, 70))
    quantized = quantize_tile_group(w, group_size=group_size)
    expected, _ = hmx_order_tile_groups(w, 4, group_size)
    assert quantized.groups.codes.tobytes() == expected.codes.tobytes()
    assert tile_group_geometry(group_size) == (2, group_size // 2)


@pytest.mark.parametrize("group_size", [0, 1, 6, 12, 48, 96, 128])
def test_group_sizes_that_run_past_a_row_pair_are_rejected(group_size):
    """Three tiles hold 3072 elements, a whole number of runs of 6, 12, 48,
    96 or 128; a run of 6 would take columns 30 and 31 of one row pair
    and column 0 of the next."""
    w = np.random.default_rng(0).normal(0, 0.05, (32, 96))
    with pytest.raises(QuantizationError, match="even divisor of 64"):
        tile_group_geometry(group_size)
    with pytest.raises(QuantizationError, match="even divisor of 64"):
        quantize_tile_group(w, group_size=group_size)


# ----------------------------------------------------------------------
# a model's prepared weights, against the HMX-order definition
# ----------------------------------------------------------------------
def _same_bytes(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.strides == expected.strides
    assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("config", [
    tiny_config(),
    tiny_config(name="wide", hidden_dim=512, intermediate_dim=1536,
                n_heads=8, n_kv_heads=2)], ids=["tiny", "wide"])
def test_prepared_model_weights_equal_the_hmx_order_reference(config):
    """Every prepared array of a model (Q4 fused q/k/v and gate/up, Q4
    ``wo``, Q8 ``w_down``) as permute-then-quantize builds it."""
    weights = TransformerWeights.generate(config, seed=0)
    model = NPUTransformer(weights)
    names = {"qkv": ("wq", "wk", "wv"), "wo": ("wo",),
             "gate_up": ("w_gate", "w_up"), "w_down": ("w_down",)}
    for layer, prepared in zip(weights.layers, model._prepared):
        for key, weight in prepared.items():
            bits = 8 if key == "w_down" else 4
            matrices = []
            for name, part in zip(names[key], weight.parts):
                groups, matrix = hmx_order_tile_groups(layer[name], bits)
                _same_bytes(part.quantized.groups.codes, groups.codes)
                _same_bytes(part.quantized.groups.scales, groups.scales)
                if bits == 4:
                    _same_bytes(part.packed.data,
                                pack_supergroups_q4(groups).data)
                matrices.append(padded_fp32(matrix))
            _same_bytes(weight.padded_fp32,
                        np.concatenate(matrices, axis=1))
