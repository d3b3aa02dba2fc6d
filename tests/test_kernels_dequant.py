"""Unit tests for the dequantization kernels (Fig. 9, Fig. 15)."""

import numpy as np
import pytest

from repro.errors import KernelError
from repro.kernels import dequant
from repro.kernels.dequant import (
    DEQUANT_STRATEGIES,
    broadcast_scales_vlut,
    broadcast_scales_vsplat,
    dequantize_stream,
    int4_to_fp16_unpack,
    int4_to_fp16_vlut,
)
from repro.kernels.gemm import MixedPrecisionGemm
from repro.npu.hmx import matrix_to_hmx_layout, pad_to_tiles
from repro.npu.hvx import HVXContext
from repro.npu.memory import DMAEngine
from repro.npu.timing import scatter_conflict_factor
from repro.quant.codebooks import NF4_CODEBOOK, Q4_0_CODEBOOK
from repro.quant.coalesce import pack_aos_q4, pack_supergroups_q4
from repro.quant.tile_quant import (
    dequantize_weight,
    quantize_conventional_group,
    quantize_tile_group,
)


class TestInt4Converters:
    def test_vlut_matches_unpack(self):
        """Fig. 9: both conversion paths produce identical FP16 values."""
        hvx = HVXContext()
        codes = np.arange(16, dtype=np.uint8)
        via_lut = int4_to_fp16_vlut(hvx, codes)
        via_unpack = int4_to_fp16_unpack(hvx, codes)
        assert np.array_equal(via_lut.astype(np.float16), via_unpack)

    def test_vlut_is_one_instruction_per_vector(self):
        hvx = HVXContext()
        int4_to_fp16_vlut(hvx, np.zeros(128, dtype=np.uint8))
        assert hvx.trace.count("vlut16") == 1
        assert hvx.trace.count("vconv") == 0  # no qfloat conversion needed

    def test_unpack_pays_qfloat_conversion(self):
        hvx = HVXContext("qfloat")
        int4_to_fp16_unpack(hvx, np.zeros(128, dtype=np.uint8))
        # 128 codes expand to 256 bytes of FP16: one conversion per register
        assert hvx.trace.count("vconv") == 2

    def test_unpack_skips_conversion_on_v79(self):
        hvx = HVXContext("ieee")
        int4_to_fp16_unpack(hvx, np.zeros(128, dtype=np.uint8))
        assert hvx.trace.count("vconv") == 0

    def test_vlut_supports_other_codebooks(self):
        """§5.2.2: NF4/FP4/IQ4_NL just swap table contents."""
        hvx = HVXContext()
        codes = np.arange(16, dtype=np.uint8)
        out = int4_to_fp16_vlut(hvx, codes, NF4_CODEBOOK)
        assert np.array_equal(out, NF4_CODEBOOK.values)


class TestScaleBroadcast:
    def test_vlut_matches_vsplat(self, rng):
        scales = rng.uniform(0.01, 1.0, 8).astype(np.float16)
        hvx_a, hvx_b = HVXContext(), HVXContext()
        via_lut = broadcast_scales_vlut(hvx_a, scales)
        via_splat = broadcast_scales_vsplat(hvx_b, scales)
        assert np.array_equal(via_lut, via_splat)

    def test_vlut_uses_fewer_instructions(self, rng):
        scales = rng.uniform(0.01, 1.0, 16).astype(np.float16)
        hvx_a, hvx_b = HVXContext(), HVXContext()
        broadcast_scales_vlut(hvx_a, scales)
        broadcast_scales_vsplat(hvx_b, scales)
        assert hvx_a.trace.total() < hvx_b.trace.total()

    def test_vlut_requires_multiple_of_four(self):
        with pytest.raises(KernelError):
            broadcast_scales_vlut(HVXContext(), np.zeros(6, dtype=np.float16))


class TestDequantizeStream:
    def _tile_setup(self, rng, shape=(64, 128)):
        w = rng.normal(0, 0.1, shape).astype(np.float32)
        quantized = quantize_tile_group(w)
        packed = pack_supergroups_q4(quantized.groups)
        return w, quantized, packed

    def test_all_strategies_register(self):
        assert DEQUANT_STRATEGIES == ("baseline", "hmx_layout", "ours",
                                      "no_dequant")

    def test_ours_produces_layout_stream(self, rng):
        w, quantized, packed = self._tile_setup(rng)
        hvx = HVXContext()
        out = dequantize_stream(quantized, "ours", hvx, packed=packed)
        expected = dequantize_weight(quantized)
        from repro.npu.hmx import hmx_layout_order, pad_to_tiles
        order = hmx_layout_order(*quantized.padded_shape)
        padded = pad_to_tiles(expected.astype(np.float32))
        assert np.allclose(out.weights_fp16.astype(np.float32),
                           padded.ravel()[order], atol=1e-3)

    def test_baseline_scatter_equals_sequential_result(self, rng):
        """All strategies reconstruct the same HMX-layout weights."""
        w = rng.normal(0, 0.1, (64, 64)).astype(np.float32)
        conv = quantize_conventional_group(w)
        tile = quantize_tile_group(w)
        hvx_a, hvx_b = HVXContext(), HVXContext()
        base_out = dequantize_stream(conv, "baseline", hvx_a,
                                     packed=pack_aos_q4(conv.groups))
        ours_out = dequantize_stream(tile, "ours", hvx_b,
                                     packed=pack_supergroups_q4(tile.groups))
        # values differ only by which grouping quantized them; both are
        # valid layout streams of (near-identical) dequantized weights
        assert base_out.weights_fp16.size == ours_out.weights_fp16.size
        diff = np.abs(base_out.weights_fp16.astype(np.float32)
                      - ours_out.weights_fp16.astype(np.float32))
        assert diff.mean() < 0.01

    def test_only_baseline_scatters(self, rng):
        w, quantized, packed = self._tile_setup(rng)
        conv = quantize_conventional_group(
            rng.normal(0, 0.1, (64, 128)).astype(np.float32))
        counts = {}
        for strategy, q, p in (
                ("baseline", conv, pack_aos_q4(conv.groups)),
                ("hmx_layout", quantized, pack_aos_q4(quantized.groups)),
                ("ours", quantized, packed)):
            hvx = HVXContext()
            dequantize_stream(q, strategy, hvx, packed=p)
            counts[strategy] = hvx.trace.count("vscatter")
        assert counts["baseline"] > 0
        assert counts["hmx_layout"] == 0 and counts["ours"] == 0

    def test_instruction_count_ordering(self, rng):
        """ours < hmx_layout < baseline in total issue packets."""
        from repro.npu.timing import KernelCost, TimingModel, V75
        timing = TimingModel(V75)
        w = rng.normal(0, 0.1, (128, 256)).astype(np.float32)
        tile = quantize_tile_group(w)
        conv = quantize_conventional_group(w)
        seconds = {}
        for strategy, q, p in (
                ("baseline", conv, pack_aos_q4(conv.groups)),
                ("hmx_layout", tile, pack_aos_q4(tile.groups)),
                ("ours", tile, pack_supergroups_q4(tile.groups))):
            hvx = HVXContext()
            dma = DMAEngine()
            dequantize_stream(q, strategy, hvx, dma, packed=p)
            seconds[strategy] = timing.seconds(
                KernelCost.from_trace(hvx.trace, dma))
        assert seconds["ours"] < seconds["hmx_layout"] < seconds["baseline"]

    def test_dma_streams_packed_bytes(self, rng):
        w, quantized, packed = self._tile_setup(rng)
        dma = DMAEngine()
        dequantize_stream(quantized, "ours", HVXContext(), dma, packed=packed)
        assert dma.total_bytes() == packed.data.size

    def test_no_dequant_moves_bytes_only(self, rng):
        w, quantized, packed = self._tile_setup(rng)
        hvx = HVXContext()
        out = dequantize_stream(quantized, "no_dequant", hvx, packed=packed)
        assert out.weights_fp16 is None
        assert hvx.trace.count("vlut16") == 0

    def test_strategy_layout_mismatch(self, rng):
        w, quantized, packed = self._tile_setup(rng)
        with pytest.raises(KernelError):
            dequantize_stream(quantized, "baseline", HVXContext(),
                              packed=packed)

    def test_unknown_strategy(self, rng):
        w, quantized, packed = self._tile_setup(rng)
        with pytest.raises(KernelError):
            dequantize_stream(quantized, "fastest", HVXContext())

    def test_q8_stream(self, rng):
        w = rng.normal(0, 0.1, (64, 64)).astype(np.float32)
        quantized = quantize_tile_group(w, bits=8)
        hvx = HVXContext()
        out = dequantize_stream(quantized, "ours", hvx)
        assert out.weights_fp16.size == 64 * 64
        assert hvx.trace.count("vconv_b_hf") > 0  # int8 conversion path


_BASELINE_CHARGES = {"vand": 192, "vconv": 192, "vconv_b_hf": 192,
                     "vmem_ld": 192, "vmpy_hf": 192, "vscatter": 96,
                     "vsplat": 192, "vsub_b": 192}
_HMX_LAYOUT_CHARGES = {"vlut16": 192, "vmem_ld": 192, "vmem_st": 192,
                       "vmpy_hf": 192, "vror": 384, "vsplat": 192}
#: (bits, strategy) -> (instruction counts, DMA bytes) of one pass over
#: the (96, 64) weight of ``TestLazyValues`` in qfloat mode
LOCKED_CHARGES = {
    (4, "baseline"): (_BASELINE_CHARGES, 3456),
    (4, "hmx_layout"): (_HMX_LAYOUT_CHARGES, 3456),
    (4, "ours"): ({"stall": 72, "vand": 24, "vlsr": 24, "vlut16": 96,
                   "vmem_ld": 48, "vmem_st": 96, "vmpy_hf": 48}, 3456),
    (4, "no_dequant"): ({"vmem_ld": 27, "vmem_st": 27}, 3456),
    (8, "baseline"): (_BASELINE_CHARGES, 6528),
    (8, "hmx_layout"): (_HMX_LAYOUT_CHARGES, 6528),
    (8, "ours"): ({"stall": 72, "vconv_b_hf": 48, "vlut16": 48,
                   "vmem_ld": 72, "vmem_st": 96, "vmpy_hf": 48}, 6528),
    (8, "no_dequant"): ({"vmem_ld": 51, "vmem_st": 51}, 6528),
}


class TestLazyValues:
    """Charges are recorded eagerly; FP16 values only when read."""

    @staticmethod
    def _run(bits, strategy, qfloat_mode="qfloat", shape=(96, 64)):
        kernel = MixedPrecisionGemm(strategy=strategy, bits=bits,
                                    qfloat_mode=qfloat_mode)
        prepared = kernel.prepare_weight(
            np.random.default_rng(7).normal(0, 0.05, shape))
        hvx, dma = HVXContext(qfloat_mode), DMAEngine()
        out = dequantize_stream(prepared.quantized, strategy, hvx, dma,
                                packed=prepared.packed)
        return prepared, out, hvx.trace.as_dict(), dma.total_bytes()

    @pytest.mark.parametrize("bits,strategy", sorted(LOCKED_CHARGES))
    @pytest.mark.parametrize("qfloat_mode", ["qfloat", "ieee"])
    def test_charges_are_locked(self, bits, strategy, qfloat_mode):
        _, _, counts, dma_bytes = self._run(bits, strategy, qfloat_mode)
        expected, expected_bytes = LOCKED_CHARGES[bits, strategy]
        if qfloat_mode == "ieee":
            expected = {op: n for op, n in expected.items() if op != "vconv"}
        assert counts == expected
        assert dma_bytes == expected_bytes

    def test_baseline_scatter_replays_are_locked(self):
        """A span over 2048 rows pays bank-conflict replays."""
        _, _, counts, dma_bytes = self._run(4, "baseline", shape=(2080, 32))
        assert counts["vscatter"] == 1040 + 8
        assert dma_bytes == 37440

    @pytest.mark.parametrize("shape", [(96, 64), (64, 33)])
    @pytest.mark.parametrize("bits", [4, 8])
    @pytest.mark.parametrize("strategy", ["baseline", "hmx_layout", "ours"])
    def test_values_read_are_the_layout_stream(self, bits, strategy, shape):
        prepared, out, _, _ = self._run(bits, strategy, shape=shape)
        layout, _ = matrix_to_hmx_layout(
            pad_to_tiles(prepared.dequantized_matrix))
        assert np.array_equal(out.weights_fp16.view(np.uint16),
                              layout.view(np.uint16))

    @pytest.mark.parametrize("bits", [4, 8])
    @pytest.mark.parametrize("strategy", DEQUANT_STRATEGIES)
    def test_gemm_never_computes_values(self, bits, strategy, monkeypatch):
        kernel = MixedPrecisionGemm(strategy=strategy, bits=bits)
        prepared = kernel.prepare_weight(
            np.random.default_rng(1).normal(0, 0.05, (64, 96)))

        def forbidden(*args, **kwargs):
            raise AssertionError("dequantized values were computed")

        monkeypatch.setattr(dequant, "_groups_dequant_values", forbidden)
        monkeypatch.setattr(dequant, "matrix_to_hmx_layout", forbidden)
        out, cost = kernel(np.ones((2, 64), dtype=np.float16), prepared)
        assert out.shape == (2, 96) and cost.hvx_packets > 0


class TestScatterConflictFactor:
    def test_monotone_in_rows(self):
        assert scatter_conflict_factor(1024) <= scatter_conflict_factor(4096)

    def test_clipped(self):
        assert scatter_conflict_factor(1) == 1.0
        assert scatter_conflict_factor(10**6) == 1.8

    def test_validation(self):
        with pytest.raises(KernelError):
            scatter_conflict_factor(0)
