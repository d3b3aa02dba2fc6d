"""Runtime weight dequantization kernels (§5.2.2, Fig. 9, Fig. 15).

Dequantization is the HVX-side cost of running 4-bit weights through the
FP16 HMX unit, and its layout determines whether that cost is tolerable.
This module implements the four strategies of the Fig. 15 ablation:

* ``baseline`` — conventional column-major quantization groups: unpack
  each group with the mask-unpack-convert sequence, then **scatter** the
  elements to their positions in the HMX tile layout (vector scatter is
  the dominating cost);
* ``hmx_layout`` — tile-group quantization (§5.1.1): the dequantized
  stream is already in HMX order so writes are sequential, but the AoS
  group granularity under-fills registers and needs merge instructions;
* ``ours`` — tile groups **plus** super-group coalescing (§5.1.2) and
  the LUT tricks of §5.2.2: full-register loads, ``vlut16`` INT4→FP16
  conversion, and four-groups-per-instruction scale broadcast;
* ``no_dequant`` — copy the quantized bytes without converting: the
  performance upper bound of any dequantization-based method.

Each strategy leaves a complete instruction trace, so benchmarks can
convert one invocation into per-generation latency, and returns the FP16
weights (in HMX layout order where applicable), computed only when a
caller reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from ..errors import KernelError
from ..obs import context as obs_context
from ..npu.hvx import HVXContext, VGATHER_ELEMENTS, vectors_for_bytes
from ..npu.hmx import matrix_to_hmx_layout
from ..npu.memory import DMAEngine
from ..npu.timing import (
    OURS_SUPER_GROUP_OVERHEAD_PACKETS,
    scatter_conflict_factor,
)
from ..quant.codebooks import Codebook, Q4_0_CODEBOOK
from ..quant.coalesce import PackedWeight
from ..quant.schemes import QuantizedGroups
from ..quant.tile_quant import QuantizedWeight
from .lut import scale_broadcast_indices

__all__ = [
    "DEQUANT_STRATEGIES",
    "int4_to_fp16_vlut",
    "int4_to_fp16_unpack",
    "broadcast_scales_vlut",
    "broadcast_scales_vsplat",
    "dequantize_stream",
]

DEQUANT_STRATEGIES = ("baseline", "hmx_layout", "ours", "no_dequant")


# ----------------------------------------------------------------------
# element converters (Fig. 9)
# ----------------------------------------------------------------------
def int4_to_fp16_vlut(hvx: HVXContext, codes: np.ndarray,
                      codebook: Codebook = Q4_0_CODEBOOK) -> np.ndarray:
    """INT4 -> FP16 via a single table lookup per vector (Fig. 9, right).

    The 16-entry table holds the codebook reconstruction values, so the
    same instruction supports Q4_0, FP4, NF4 or IQ4_NL by swapping table
    contents.  No qfloat conversion is needed because the table already
    stores IEEE FP16 bit patterns.
    """
    return hvx.vlut16(codes, codebook.values)


def int4_to_fp16_unpack(hvx: HVXContext, codes: np.ndarray) -> np.ndarray:
    """INT4 -> FP16 via the conventional mask-unpack-convert sequence.

    Mask the nibble, recentre by -8, convert to FP16 — and on pre-V79
    parts pay the extra qfloat->IEEE conversion (Fig. 9, left).
    """
    masked = hvx.vand(np.asarray(codes, dtype=np.uint8), 0x0F)
    centred = hvx.vsub_b(masked, 8)
    return hvx.vconv_b_to_hf(centred)


# ----------------------------------------------------------------------
# scale broadcast (§5.2.2)
# ----------------------------------------------------------------------
def broadcast_scales_vlut(hvx: HVXContext, scales: np.ndarray,
                          group_size: int = 32) -> np.ndarray:
    """Broadcast four groups' scales with one vlut16 per four groups.

    The scales become LUT contents; a predefined constant index vector
    replicates scale ``g`` across group ``g``'s lanes.
    """
    scales = np.asarray(scales, dtype=np.float16).ravel()
    if scales.size % 4 != 0:
        raise KernelError(f"vlut scale broadcast needs a multiple of 4 groups, "
                          f"got {scales.size}")
    indices = scale_broadcast_indices(group_size, 4)
    out = np.empty(scales.size * group_size, dtype=np.float16)
    for block in range(scales.size // 4):
        table = np.zeros(16, dtype=np.float16)
        table[:4] = scales[block * 4:(block + 1) * 4]
        looked = hvx.vlut16(indices, table)
        out[block * 4 * group_size:(block + 1) * 4 * group_size] = looked
    return out


def broadcast_scales_vsplat(hvx: HVXContext, scales: np.ndarray,
                            group_size: int = 32) -> np.ndarray:
    """Conventional broadcast: one splat (plus merge) per group."""
    scales = np.asarray(scales, dtype=np.float16).ravel()
    out = np.empty(scales.size * group_size, dtype=np.float16)
    for g, scale in enumerate(scales):
        lanes = hvx.vsplat_hf(float(scale), group_size)
        # merging two half-register groups into one full register
        hvx.trace.record("vror", 1)
        out[g * group_size:(g + 1) * group_size] = lanes
    return out


# ----------------------------------------------------------------------
# full-stream dequantization (Fig. 15 variants)
# ----------------------------------------------------------------------
@dataclass
class DequantOutput:
    """Result of one dequantization pass over a weight.

    The pass records its charges when it runs.  Its FP16 values are
    produced on the first read of :attr:`weights_fp16`: the GEMM
    multiplies the weight's prepared matrix and never reads them.
    """

    strategy: str
    n_elements: int
    produce: Optional[Callable[[], np.ndarray]] = field(default=None,
                                                        repr=False)

    @cached_property
    def weights_fp16(self) -> Optional[np.ndarray]:
        """The HMX-layout FP16 stream; ``None`` for ``no_dequant``."""
        return None if self.produce is None else self.produce()


def _dma_stream_weights(dma: Optional[DMAEngine], packed_bytes: int) -> None:
    if dma is not None and packed_bytes > 0:
        dma.transfer_1d(packed_bytes, direction="ddr_to_tcm")


def _groups_dequant_values(groups: QuantizedGroups,
                           codebook: Codebook) -> np.ndarray:
    if groups.bits == 8:
        centred = groups.codes.astype(np.float32) - 128.0
        values = centred * groups.scales.astype(np.float32)[:, None]
    else:
        table = codebook.values.astype(np.float32)
        values = table[groups.codes] * groups.scales.astype(np.float32)[:, None]
    return values.astype(np.float16)


def dequantize_stream(quantized: QuantizedWeight, strategy: str,
                      hvx: HVXContext, dma: Optional[DMAEngine] = None,
                      packed: Optional[PackedWeight] = None,
                      codebook: Codebook = Q4_0_CODEBOOK,
                      coalesce: int = 8) -> DequantOutput:
    """Dequantize a full weight with one of the Fig. 15 strategies.

    Parameters mirror the on-device data flow: ``quantized`` carries the
    codes/scales and layout, ``packed`` optionally supplies the byte
    stream whose size sets the DMA traffic, ``hvx`` records instruction
    costs, ``dma`` records weight streaming from DDR.

    Returns the FP16 weights in HMX layout order (ready for the matrix
    unit), computed when first read, except for ``no_dequant``, which
    only moves bytes.
    """
    if strategy not in DEQUANT_STRATEGIES:
        raise KernelError(
            f"unknown dequantization strategy {strategy!r}; expected one of "
            f"{DEQUANT_STRATEGIES}")
    groups = quantized.groups
    n_elements = groups.n_elements
    packed_bytes = packed.data.size if packed is not None else quantized.storage_bytes
    with obs_context.current().tracer.span(
            "kernel.dequant", category="kernel", strategy=strategy,
            bits=groups.bits, n_elements=n_elements,
            packed_bytes=packed_bytes):
        _dma_stream_weights(dma, packed_bytes)

        if strategy == "no_dequant":
            # stream quantized bytes through the vector unit untouched
            n_vec = vectors_for_bytes(packed_bytes)
            hvx.trace.record("vmem_ld", n_vec)
            hvx.trace.record("vmem_st", n_vec)
            return DequantOutput(strategy=strategy, n_elements=n_elements)

        if strategy == "baseline":
            return _dequant_baseline(quantized, hvx, codebook)
        if strategy == "hmx_layout":
            return _dequant_hmx_layout(quantized, hvx, codebook)
        return _dequant_ours(quantized, hvx, codebook, coalesce)


def _dequant_baseline(quantized: QuantizedWeight, hvx: HVXContext,
                      codebook: Codebook) -> DequantOutput:
    """Conventional layout: per-group unpack + scatter into tile layout."""
    if quantized.layout != "column_major":
        raise KernelError("the baseline strategy expects conventional "
                          "column-major quantization groups")
    groups = quantized.groups
    n_groups = groups.n_groups
    group_size = groups.group_size
    # per-group partial register load of the 18-byte AoS record
    hvx.trace.record("vmem_ld", n_groups)
    # mask-unpack-convert on every group's codes (partial registers: one
    # instruction sequence per group regardless of fill)
    hvx.trace.record("vand", n_groups)
    hvx.trace.record("vsub_b", n_groups)
    hvx.trace.record("vconv_b_hf", n_groups)
    if hvx.qfloat_mode == "qfloat":
        hvx.trace.record("vconv", n_groups)
    # scalar scale broadcast + multiply per group
    hvx.trace.record("vsplat", n_groups)
    hvx.trace.record("vmpy_hf", n_groups)
    # scatter every element to its position in the HMX tile layout, one
    # vscatter per 64 elements, plus bank-conflict replays that grow
    # with the scattered column span
    rows, cols = quantized.padded_shape
    n_scatters = -(-rows * cols // VGATHER_ELEMENTS)
    hvx.trace.record("vscatter", n_scatters)
    replays = scatter_conflict_factor(rows) - 1.0
    if replays > 0:
        hvx.trace.record("vscatter", int(round(n_scatters * replays)))

    def scatter() -> np.ndarray:
        values = _groups_dequant_values(groups, codebook)  # column-major
        return matrix_to_hmx_layout(values.reshape(cols, rows).T)[0]

    return DequantOutput("baseline", groups.n_elements, scatter)


def _dequant_hmx_layout(quantized: QuantizedWeight, hvx: HVXContext,
                        codebook: Codebook) -> DequantOutput:
    """Tile-group layout without coalescing: sequential but under-filled."""
    if quantized.layout != "hmx_tile":
        raise KernelError("the hmx_layout strategy expects tile-group "
                          "quantized weights")
    groups = quantized.groups
    n_groups = groups.n_groups
    # AoS records stream sequentially, but each 18-byte group still costs a
    # load, two merge ops to extract codes/scale from the register, a
    # 16-entry lookup, a scale splat, a multiply and a sequential store.
    hvx.trace.record("vmem_ld", n_groups)
    hvx.trace.record("vror", 2 * n_groups)
    hvx.trace.record("vlut16", n_groups)
    hvx.trace.record("vsplat", n_groups)
    hvx.trace.record("vmpy_hf", n_groups)
    hvx.trace.record("vmem_st", n_groups)
    return DequantOutput("hmx_layout", groups.n_elements,
                         lambda: _groups_dequant_values(groups, codebook).ravel())


def _dequant_ours(quantized: QuantizedWeight, hvx: HVXContext,
                  codebook: Codebook, coalesce: int) -> DequantOutput:
    """Tile groups + super-group coalescing + LUT dequantization (§5.2.2)."""
    if quantized.layout != "hmx_tile":
        raise KernelError("our strategy expects tile-group quantized weights")
    groups = quantized.groups
    if groups.n_groups % coalesce != 0:
        raise KernelError(
            f"{groups.n_groups} groups do not divide into super-groups of {coalesce}")
    n_super = groups.n_groups // coalesce
    elems_per_super = coalesce * groups.group_size           # 256 by default
    code_bytes = elems_per_super * groups.bits // 8
    out_bytes = elems_per_super * 2                          # FP16 output
    # per super-group: full-register loads of codes+scales
    hvx.trace.record("vmem_ld", n_super * vectors_for_bytes(code_bytes + 2 * coalesce))
    if groups.bits == 4:
        # nibble expansion: two ops produce byte indices for vlut16
        hvx.trace.record("vlsr", n_super * vectors_for_bytes(code_bytes))
        hvx.trace.record("vand", n_super * vectors_for_bytes(code_bytes))
        # vlut16 over the byte indices (one per index vector)
        hvx.trace.record("vlut16", n_super * vectors_for_bytes(elems_per_super))
    else:
        # 8-bit codes convert directly (no table needed)
        hvx.trace.record("vconv_b_hf", n_super * vectors_for_bytes(elems_per_super))
    # scale broadcast: one vlut16 per 4 groups
    hvx.trace.record("vlut16", n_super * (coalesce // 4 if coalesce >= 4 else 1))
    # paired multiply of codes by broadcast scales over the FP16 outputs
    hvx.trace.record("vmpy_hf", n_super * vectors_for_bytes(out_bytes) // 2)
    # sequential stores of the FP16 stream
    hvx.trace.record("vmem_st", n_super * vectors_for_bytes(out_bytes))
    # loop control / address generation / synchronization
    hvx.trace.record("stall", n_super * OURS_SUPER_GROUP_OVERHEAD_PACKETS)
    return DequantOutput("ours", groups.n_elements,
                         lambda: _groups_dequant_values(groups, codebook).ravel())
