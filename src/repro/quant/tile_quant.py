"""Tile-group quantization — the paper's hardware-aware scheme (§5.1.1).

Conventional group quantization forms groups of 32 *along the
accumulation axis* of a column-major weight matrix.  On the HMX unit this
layout is hostile: elements contiguous in the quantization group land
scattered across the permuted tile layout (Fig. 6), forcing expensive
vector scatter operations at dequantization time.

The paper's scheme instead:

1. permutes the weights into the HMX memory layout *first* (column-major
   32x32 tiles, paired-row shuffle — Fig. 4);
2. applies round-to-nearest group quantization over *contiguous runs of
   32 elements in the new memory order*, which correspond to 2x16
   rectangular tiles of the original matrix;
3. stores codes and scales in that order, so runtime dequantization
   writes FP16 weights to TCM purely sequentially.

Because pretrained weights are approximately zero-mean Gaussian, the
statistics inside a reshaped 2x16 tile group match those of a
conventional 1x32 run, so quantization error is comparable — the claim
Table 4 verifies and our benchmarks re-measure.

:func:`tile_groups` computes those groups in one pass over the matrix,
without permuting it: each group is a 2 x ``group_size / 2`` patch of
the padded matrix, so a ``(rows / 2, 2, cols / (group_size / 2),
group_size / 2)`` view holds one group per ``[row pair, :, column run,
:]``.  Only the uint8 codes and FP16 scales are permuted into HMX group
order, and the dequantized weight is produced in matrix order.  The
result is bitwise the permute-then-quantize formulation
(``matrix_to_hmx_layout`` -> ``quantize_q4_0`` / ``quantize_q8_0``), which
the ``tile_quant`` oracle holds it to.

This module provides both quantizers behind one interface so accuracy
(Table 4) and layout/performance (Fig. 15) experiments share code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import GroupSizeError, QuantizationError
from ..npu.hmx import TILE_DIM, pad_to_tiles
from .schemes import (
    Q4_GROUP_SIZE,
    QuantizedGroups,
    dequantize_q4_0,
    dequantize_q8_0,
    quantize_q4_0,
    quantize_q8_0,
)

__all__ = [
    "QuantizedWeight",
    "TileGroups",
    "tile_groups",
    "quantize_tile_group",
    "quantize_conventional_group",
    "dequantize_weight",
    "tile_group_geometry",
]

#: Per bit width: the scale divisor (absmax / divisor), the signed level
#: range codes are clipped to, and the zero point that makes them unsigned.
_LEVELS = {4: (8.0, -8.0, 7.0, 8), 8: (127.0, -127.0, 127.0, 128)}


@dataclass
class QuantizedWeight:
    """A quantized weight matrix plus the metadata to reconstruct it.

    ``layout`` is ``"hmx_tile"`` for the paper's scheme (codes stored in
    HMX memory order) or ``"column_major"`` for the conventional scheme
    (codes stored column-by-column in original order).
    """

    groups: QuantizedGroups
    layout: str
    original_shape: Tuple[int, int]
    padded_shape: Tuple[int, int]

    _LAYOUTS = ("hmx_tile", "column_major")

    def __post_init__(self) -> None:
        if self.layout not in self._LAYOUTS:
            raise QuantizationError(f"unknown layout {self.layout!r}")

    @property
    def storage_bytes(self) -> int:
        """On-device storage: packed codes plus FP16 scales."""
        code_bytes = self.groups.n_elements * self.groups.bits // 8
        return code_bytes + self.groups.n_groups * 2


@dataclass(frozen=True)
class TileGroups:
    """A weight's tile groups in matrix order, beside their stored form.

    ``levels`` views the tile-padded matrix as ``(rows / 2, 2, cols / h,
    h)`` with ``h = group_size / 2``, so group ``(r, c)`` is
    ``levels[r, :, c, :]``; each element holds its signed level (its code
    minus the zero point, 8 for Q4 and 128 for Q8) as FP32, and
    ``scales[r, c]`` is the group's FP16 scale.  ``quantized`` holds the
    same codes and scales in HMX group order, as the device stores them.
    """

    quantized: QuantizedWeight
    levels: np.ndarray
    scales: np.ndarray

    def dequantized(self) -> np.ndarray:
        """The dequantized FP16 weight in its original shape.

        A view of the tile-padded matrix, in C order; a caller widening
        it assigns it straight into its FP32 destination.
        """
        values = np.multiply(self.levels,
                             self.scales.astype(np.float32)[:, None, :, None],
                             out=np.empty(self.levels.shape, dtype=np.float16))
        rows, cols = self.quantized.original_shape
        return values.reshape(self.quantized.padded_shape)[:rows, :cols]


def _from_stored(quantized: QuantizedWeight) -> TileGroups:
    """The matrix-order groups of a stored tile-group weight: only the
    uint8 codes and the FP16 scales are permuted back."""
    groups = quantized.groups
    if groups.bits not in _LEVELS:
        raise QuantizationError(f"unsupported bit width {groups.bits}")
    rows, cols = quantized.padded_shape
    half = tile_group_geometry(groups.group_size)[1]
    row_pairs, tile_cols = rows // 2, cols // TILE_DIM
    # HMX order: tile column, row pair, column, row in pair
    stored = groups.codes.reshape(tile_cols, row_pairs, TILE_DIM, 2)
    levels = np.empty((row_pairs, 2, cols // half, half), dtype=np.float32)
    zero = _LEVELS[groups.bits][3]
    for row in (0, 1):
        np.subtract(stored[..., row].transpose(1, 0, 2), zero,
                    out=levels[:, row].reshape(row_pairs, tile_cols,
                                               TILE_DIM),
                    dtype=np.float32)
    scales = groups.scales.reshape(tile_cols, row_pairs, -1) \
        .transpose(1, 0, 2).reshape(row_pairs, -1)
    return TileGroups(quantized=quantized, levels=levels, scales=scales)


def _dequant_flat(groups: QuantizedGroups) -> np.ndarray:
    if groups.bits == 4:
        return dequantize_q4_0(groups)
    if groups.bits == 8:
        return dequantize_q8_0(groups)
    raise QuantizationError(f"unsupported bit width {groups.bits}")


def _quant_flat(flat: np.ndarray, bits: int, group_size: int) -> QuantizedGroups:
    if bits == 4:
        return quantize_q4_0(flat, group_size)
    if bits == 8:
        return quantize_q8_0(flat, group_size)
    raise QuantizationError(f"unsupported bit width {bits}")


def _reject_nonfinite(weight: np.ndarray) -> None:
    """Name the first non-finite element, in row-major order."""
    index = int(np.flatnonzero(~np.isfinite(weight))[0])
    row, col = divmod(index, weight.shape[1])
    raise QuantizationError(
        f"weight element ({row}, {col}) is {weight[row, col]}: tile groups "
        f"need finite weights")


def tile_groups(weight: np.ndarray, bits: int = 4,
                group_size: int = Q4_GROUP_SIZE) -> TileGroups:
    """Quantize with the paper's HMX-layout tile groups (§5.1.1).

    The weight is zero-padded to whole 32x32 tiles and group-quantized
    over the 2 x ``group_size / 2`` patches that ``group_size``
    consecutive elements of HMX memory order cover (2x16 tiles for
    groups of 32).  Per group the scale is ``absmax / 8`` (Q4) or
    ``absmax / 127`` (Q8), stored in FP16, and codes round to nearest.
    ``group_size`` must be an even divisor of 64, so that no group runs
    past a tile row pair.  Non-finite weights are rejected.
    """
    w = np.asarray(weight, dtype=np.float32)
    if w.ndim != 2:
        raise QuantizationError(f"expected a weight matrix, got shape {w.shape}")
    if bits not in _LEVELS:
        raise QuantizationError(f"unsupported bit width {bits}")
    if w.size == 0:
        raise GroupSizeError("cannot quantize an empty tensor")
    half = tile_group_geometry(group_size)[1]
    padded = pad_to_tiles(w)
    rows, cols = padded.shape
    view = padded.reshape(rows // 2, 2, cols // half, half)
    # absmax by pairwise maxima: numpy reduces a short last axis slowly
    absmax = np.abs(view[:, 0])
    np.maximum(absmax, np.abs(view[:, 1]), out=absmax)
    width = half
    while width > 1:  # group sizes divide 64, so half is a power of two
        width //= 2
        absmax = np.maximum(absmax[..., :width], absmax[..., width:])
    absmax = absmax[..., 0]
    if not np.isfinite(absmax).all():
        _reject_nonfinite(w)
    divisor, low, high, zero = _LEVELS[bits]
    scales = (absmax / divisor).astype(np.float16)
    wide = scales.astype(np.float32)
    levels = view / np.where(wide > 0, wide, 1.0)[:, None, :, None]
    np.rint(levels, out=levels)
    np.clip(levels, low, high, out=levels)
    # rint rounds a small negative value to -0.0; adding +0.0 turns it
    # into the +0.0 that a code minus its zero point gives
    levels += 0.0
    # codes and scales into HMX order: tile column, row pair, column, row
    # in pair; each row of the pair is one strided pass
    row_pairs, tile_cols = rows // 2, cols // TILE_DIM
    codes = np.empty((tile_cols, row_pairs, TILE_DIM, 2), dtype=np.uint8)
    for row in (0, 1):
        np.add(levels[:, row].reshape(row_pairs, tile_cols, TILE_DIM)
               .transpose(1, 0, 2), zero, out=codes[..., row],
               casting="unsafe")
    stored = scales.reshape(row_pairs, tile_cols, -1).transpose(1, 0, 2)
    groups = QuantizedGroups(codes=codes.reshape(-1, group_size),
                             scales=stored.reshape(-1), bits=bits,
                             group_size=group_size)
    return TileGroups(
        quantized=QuantizedWeight(groups=groups, layout="hmx_tile",
                                  original_shape=w.shape,
                                  padded_shape=padded.shape),
        levels=levels, scales=scales)


def quantize_tile_group(weight: np.ndarray, bits: int = 4,
                        group_size: int = Q4_GROUP_SIZE) -> QuantizedWeight:
    """The stored form of :func:`tile_groups`: codes and FP16 scales in
    HMX group order."""
    return tile_groups(weight, bits, group_size).quantized
def quantize_conventional_group(weight: np.ndarray, bits: int = 4,
                                group_size: int = Q4_GROUP_SIZE) -> QuantizedWeight:
    """Quantize with conventional column-major accumulation-axis groups.

    This is the llama.cpp CPU-backend layout the paper uses as the
    mismatch example (Fig. 6): groups of 32 run down each column.
    The column length must divide into whole groups, which holds for all
    transformer projection shapes (multiples of 32).
    """
    w = np.asarray(weight, dtype=np.float32)
    if w.ndim != 2:
        raise QuantizationError(f"expected a weight matrix, got shape {w.shape}")
    if w.shape[0] % group_size != 0:
        raise QuantizationError(
            f"column length {w.shape[0]} does not divide into groups of {group_size}")
    column_major = w.T.ravel()  # column-by-column traversal of the matrix
    groups = _quant_flat(column_major, bits, group_size)
    return QuantizedWeight(groups=groups, layout="column_major",
                           original_shape=w.shape, padded_shape=w.shape)


def dequantize_weight(quantized: QuantizedWeight) -> np.ndarray:
    """Reconstruct the FP16 weight matrix in its original shape.

    Tile groups are dequantized in matrix order, after their codes (not
    FP16 values) are permuted back, in C order; column-major groups come
    back in F order.
    """
    if quantized.layout == "hmx_tile":
        return np.ascontiguousarray(_from_stored(quantized).dequantized())
    flat = _dequant_flat(quantized.groups)
    rows, cols = quantized.padded_shape
    matrix = flat.reshape(cols, rows).T
    o_rows, o_cols = quantized.original_shape
    return matrix[:o_rows, :o_cols].astype(np.float16)


def dequantize_layout_stream(quantized: QuantizedWeight) -> np.ndarray:
    """Dequantize codes *in storage order* (what the NPU kernel streams).

    For the HMX-tile layout the result is directly the FP16 weight bytes
    in the order the matrix unit consumes them — no scatter needed.  For
    the conventional layout the stream is in column-major original order
    and still requires scatter into the tile layout (the Fig. 15
    baseline).
    """
    return _dequant_flat(quantized.groups)


def tile_group_geometry(group_size: int = Q4_GROUP_SIZE) -> Tuple[int, int]:
    """Shape of the original-matrix patch one tile group covers.

    With the paired-row shuffle, ``group_size`` consecutive layout
    elements cover 2 rows x ``group_size // 2`` columns — the "2x16
    tiles" of Section 5.1.1 for groups of 32.  A tile row pair holds
    ``2 * TILE_DIM`` = 64 layout elements, so only even divisors of 64
    tile it: any other size would run a group past a row pair (a run of
    6 would take columns 30 and 31 of one pair and column 0 of the next).
    """
    if group_size <= 0 or group_size % 2 or (2 * TILE_DIM) % group_size:
        raise QuantizationError(
            f"group size must be an even divisor of {2 * TILE_DIM}, "
            f"got {group_size}")
    return 2, group_size // 2
