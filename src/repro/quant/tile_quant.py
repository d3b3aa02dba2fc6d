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

This module provides both quantizers behind one interface so accuracy
(Table 4) and layout/performance (Fig. 15) experiments share code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import QuantizationError
from ..npu.hmx import (
    TILE_DIM,
    matrix_from_hmx_layout,
    matrix_to_hmx_layout,
    pad_to_tiles,
)
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
    "quantize_tile_group",
    "quantize_conventional_group",
    "dequantize_weight",
    "tile_group_geometry",
]


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


def quantize_tile_group(weight: np.ndarray, bits: int = 4,
                        group_size: int = Q4_GROUP_SIZE) -> QuantizedWeight:
    """Quantize with the paper's HMX-layout tile groups (§5.1.1).

    The weight is zero-padded to whole 32x32 tiles, permuted into HMX
    memory order, then group-quantized over contiguous runs of
    ``group_size`` elements of that order (2x16 tiles for groups of 32).
    """
    w = np.asarray(weight, dtype=np.float32)
    if w.ndim != 2:
        raise QuantizationError(f"expected a weight matrix, got shape {w.shape}")
    padded = pad_to_tiles(w)
    layout_values, _ = matrix_to_hmx_layout(padded)
    groups = _quant_flat(layout_values, bits, group_size)
    return QuantizedWeight(groups=groups, layout="hmx_tile",
                           original_shape=w.shape, padded_shape=padded.shape)


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
    """Reconstruct the FP16 weight matrix in its original shape."""
    flat = _dequant_flat(quantized.groups)
    rows, cols = quantized.padded_shape
    if quantized.layout == "hmx_tile":
        matrix = matrix_from_hmx_layout(flat, (rows, cols))
    else:
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
    tiles" of Section 5.1.1 for groups of 32.
    """
    if group_size % 2 != 0 or group_size > 2 * TILE_DIM:
        raise QuantizationError(
            f"group size must be even and at most {2 * TILE_DIM}, got {group_size}")
    return 2, group_size // 2
