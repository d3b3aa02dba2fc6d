"""Functional model of the Hexagon Matrix eXtension (HMX) unit.

The HMX unit (Section 3.1.2, Fig. 4) is the source of the NPU's matrix
throughput.  Its basic data unit is a *tile*: a 32x32 FP16 matrix stored
in 2 KiB with a special permuted layout —

* within a tile, every two adjacent rows are stored as the transposed
  2x32 sub-matrix (elements of the even and odd row interleave
  column-by-column, Fig. 4a);
* across a weight matrix, tiles are laid out column-major because the
  hardware computes a tile-level inner product (Fig. 4b).

The unit multiplies pairs of activation/weight tiles, accumulating into an
internal higher-precision accumulator, and can independently scale and
bias each output channel (column).  This module implements those
semantics exactly (FP16 inputs, FP32 accumulation, FP16 output) and
counts tile multiply-accumulate operations for the timing model.

The layout helpers here are the foundation of the paper's *tile-group
quantization* (Section 5.1.1): quantization groups are formed in this
memory order so dequantized weights stream contiguously into TCM.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from ..errors import TileShapeError
from .hvx import InstructionTrace

__all__ = [
    "TILE_DIM",
    "TILE_ELEMS",
    "TILE_BYTES_FP16",
    "tile_permute",
    "tile_unpermute",
    "pad_to_tiles",
    "matrix_to_hmx_layout",
    "matrix_from_hmx_layout",
    "hmx_layout_order",
    "HMXUnit",
]

TILE_DIM = 32
TILE_ELEMS = TILE_DIM * TILE_DIM
TILE_BYTES_FP16 = TILE_ELEMS * 2


def tile_permute(tile: np.ndarray) -> np.ndarray:
    """Permute one 32x32 tile into the FP16 HMX memory order (Fig. 4a).

    Every two adjacent rows ``(2p, 2p+1)`` are stored as the transposed
    2x32 sub-matrix: ``(2p, 0), (2p+1, 0), (2p, 1), (2p+1, 1), ...``.
    Returns the flat 1024-element array in memory order.
    """
    tile = np.asarray(tile)
    if tile.shape != (TILE_DIM, TILE_DIM):
        raise TileShapeError(f"HMX tile must be {TILE_DIM}x{TILE_DIM}, got {tile.shape}")
    paired = tile.reshape(TILE_DIM // 2, 2, TILE_DIM)
    return paired.transpose(0, 2, 1).reshape(TILE_ELEMS).copy()


def tile_unpermute(flat: np.ndarray) -> np.ndarray:
    """Inverse of :func:`tile_permute`: memory order back to a 32x32 tile."""
    flat = np.asarray(flat)
    if flat.size != TILE_ELEMS:
        raise TileShapeError(f"HMX tile buffer must have {TILE_ELEMS} elements, got {flat.size}")
    paired = flat.reshape(TILE_DIM // 2, TILE_DIM, 2)
    return paired.transpose(0, 2, 1).reshape(TILE_DIM, TILE_DIM).copy()


def pad_to_tiles(matrix: np.ndarray) -> np.ndarray:
    """Zero-pad a matrix so its last two dimensions are multiples of 32.

    Leading dimensions, if any, stack matrices that are padded alike.
    Aligned input is returned as is; a padded copy keeps the input's
    Fortran order when it has one.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim < 2:
        raise TileShapeError(f"expected a 2-D matrix, got shape {matrix.shape}")
    rows, cols = matrix.shape[-2:]
    padded_rows = -(-rows // TILE_DIM) * TILE_DIM
    padded_cols = -(-cols // TILE_DIM) * TILE_DIM
    if padded_rows == rows and padded_cols == cols:
        return matrix
    out = np.zeros(matrix.shape[:-2] + (padded_rows, padded_cols),
                   dtype=matrix.dtype, order="F" if matrix.flags.fnc else "C")
    out[..., :rows, :cols] = matrix
    return out


def _padded_fp32(matrix: np.ndarray) -> np.ndarray:
    """``pad_to_tiles(matrix).astype(np.float32)``, converting only real elements.

    The result also has that expression's memory layout: BLAS rounds a
    tile product differently when a weight tile is stored transposed, so
    the layout is part of the numerics.
    """
    rows, cols = matrix.shape[-2:]
    if rows % TILE_DIM == 0 and cols % TILE_DIM == 0:
        return matrix.astype(np.float32)
    return pad_to_tiles(matrix.astype(
        np.float32, order="F" if matrix.flags.fnc else "C"))


def matrix_to_hmx_layout(matrix: np.ndarray) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Convert a matrix into the full HMX weight memory layout.

    The matrix is zero-padded to whole tiles; tiles are emitted in
    column-major order (Fig. 4b) and each tile is internally permuted
    (Fig. 4a).  Returns ``(flat_layout, padded_shape)``.
    """
    padded = pad_to_tiles(matrix)
    rows, cols = padded.shape
    tiles_r, tiles_c = rows // TILE_DIM, cols // TILE_DIM
    out = np.empty(rows * cols, dtype=padded.dtype)
    pos = 0
    for tc in range(tiles_c):
        for tr in range(tiles_r):
            tile = padded[tr * TILE_DIM:(tr + 1) * TILE_DIM,
                          tc * TILE_DIM:(tc + 1) * TILE_DIM]
            out[pos:pos + TILE_ELEMS] = tile_permute(tile)
            pos += TILE_ELEMS
    return out, (rows, cols)


def matrix_from_hmx_layout(flat: np.ndarray, padded_shape: Tuple[int, int],
                           original_shape: Optional[Tuple[int, int]] = None) -> np.ndarray:
    """Inverse of :func:`matrix_to_hmx_layout`.

    ``original_shape`` crops away the zero padding when provided.
    """
    rows, cols = padded_shape
    if rows % TILE_DIM or cols % TILE_DIM:
        raise TileShapeError(f"padded shape must be tile-aligned, got {padded_shape}")
    flat = np.asarray(flat)
    if flat.size != rows * cols:
        raise TileShapeError(
            f"layout buffer size {flat.size} does not match padded shape {padded_shape}")
    tiles_r, tiles_c = rows // TILE_DIM, cols // TILE_DIM
    out = np.empty((rows, cols), dtype=flat.dtype)
    pos = 0
    for tc in range(tiles_c):
        for tr in range(tiles_r):
            tile = tile_unpermute(flat[pos:pos + TILE_ELEMS])
            out[tr * TILE_DIM:(tr + 1) * TILE_DIM,
                tc * TILE_DIM:(tc + 1) * TILE_DIM] = tile
            pos += TILE_ELEMS
    if original_shape is not None:
        out = out[:original_shape[0], :original_shape[1]]
    return out


def hmx_layout_order(rows: int, cols: int) -> np.ndarray:
    """Return flat original-matrix indices in HMX memory order.

    ``order[i]`` is the row-major index (into the *padded* matrix) of the
    element stored at layout position ``i``.  Quantizing padded weights in
    this order is exactly the paper's tile-group quantization.
    """
    if rows % TILE_DIM or cols % TILE_DIM:
        raise TileShapeError(f"shape ({rows}, {cols}) must be tile-aligned")
    index_matrix = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    layout, _ = matrix_to_hmx_layout(index_matrix)
    return layout


class HMXUnit:
    """The HMX matrix engine: tile MACs with FP32 accumulation.

    Each :meth:`tile_mac` multiplies a 32x32 FP16 activation tile by a
    32x32 FP16 weight tile and accumulates into an FP32 accumulator,
    which models the "higher-precision floating point numbers for
    accumulation internally" noted in Section 5.2.1.  The trace records
    one ``hmx_tile_mac`` per operation for the timing model;
    :meth:`gemm` charges the same counts per GEMM (:meth:`record_gemm`).
    """

    def __init__(self, trace: Optional[InstructionTrace] = None) -> None:
        self.trace = trace if trace is not None else InstructionTrace()

    def record_gemm(self, m: int, k: int, n: int, count: int = 1) -> None:
        """Charge ``count`` GEMMs of shape ``(m, k) @ (k, n)``.

        Each costs one ``hmx_tile_mac`` per (m, k, n) tile triple and one
        ``hmx_tile_out`` per drained (m, n) output tile.
        """
        tiles_m, tiles_k, tiles_n = (-(-d // TILE_DIM) for d in (m, k, n))
        self.trace.record("hmx_tile_mac", count * tiles_m * tiles_k * tiles_n)
        self.trace.record("hmx_tile_out", count * tiles_m * tiles_n)

    def tile_mac(self, activation_tile: np.ndarray, weight_tile: np.ndarray,
                 accumulator: np.ndarray) -> np.ndarray:
        """Accumulate ``activation_tile @ weight_tile`` into ``accumulator``."""
        a = np.asarray(activation_tile, dtype=np.float16)
        w = np.asarray(weight_tile, dtype=np.float16)
        if a.shape != (TILE_DIM, TILE_DIM) or w.shape != (TILE_DIM, TILE_DIM):
            raise TileShapeError(
                f"tile_mac expects {TILE_DIM}x{TILE_DIM} tiles, got {a.shape} and {w.shape}")
        acc = np.asarray(accumulator, dtype=np.float32)
        if acc.shape != (TILE_DIM, TILE_DIM):
            raise TileShapeError(f"accumulator must be {TILE_DIM}x{TILE_DIM}, got {acc.shape}")
        self.trace.record("hmx_tile_mac")
        acc += a.astype(np.float32) @ w.astype(np.float32)
        return acc

    def emit_output_tile(self, accumulator: np.ndarray,
                         channel_scale: Optional[np.ndarray] = None,
                         channel_bias: Optional[np.ndarray] = None) -> np.ndarray:
        """Convert an accumulator to an FP16 output tile.

        Per Section 3.1.2 the HMX unit "can independently scale and add
        biases to each channel (column) of the output tile".
        """
        acc = np.asarray(accumulator, dtype=np.float32)
        if channel_scale is not None:
            scale = np.asarray(channel_scale, dtype=np.float32)
            if scale.shape != (TILE_DIM,):
                raise TileShapeError(f"channel scale must have {TILE_DIM} entries")
            acc = acc * scale[np.newaxis, :]
        if channel_bias is not None:
            bias = np.asarray(channel_bias, dtype=np.float32)
            if bias.shape != (TILE_DIM,):
                raise TileShapeError(f"channel bias must have {TILE_DIM} entries")
            acc = acc + bias[np.newaxis, :]
        self.trace.record("hmx_tile_out")
        return acc.astype(np.float16)

    def gemm(self, activations: np.ndarray, weights: np.ndarray,
             out_dtype: np.dtype = np.float16) -> np.ndarray:
        """Full GEMM ``activations @ weights`` through tile decomposition.

        Both operands are padded to whole tiles; the per-(m,n) tile output
        is the inner product over the K tile dimension, accumulated in
        FP32 one K tile at a time exactly as :meth:`tile_mac` would.  Each
        K step runs every (m, n) tile product as one stacked matmul of
        32x32 tiles.  Leading dimensions, if any, stack independent GEMMs
        of one shape.  Tile MAC counts grow as
        ``ceil(m/32) * ceil(k/32) * ceil(n/32)``, which is why a
        single-token decode (m=1) wastes 31/32 of the activation tile —
        the underutilization the paper's test-time scaling exploits.
        """
        a = np.asarray(activations, dtype=np.float16)
        w = np.asarray(weights, dtype=np.float16)
        if a.ndim < 2 or a.ndim != w.ndim or a.shape[:-2] != w.shape[:-2]:
            raise TileShapeError(
                f"gemm expects 2-D operands or equal stacks of them, got "
                f"{a.shape} @ {w.shape}")
        if a.shape[-1] != w.shape[-2]:
            raise TileShapeError(
                f"inner dimensions differ: {a.shape} @ {w.shape}")
        batch = a.shape[:-2]
        m, k = a.shape[-2:]
        n = w.shape[-1]
        a_pad, w_pad = _padded_fp32(a), _padded_fp32(w)
        tiles_m, tiles_k = (d // TILE_DIM for d in a_pad.shape[-2:])
        tiles_n = w_pad.shape[-1] // TILE_DIM
        # a_tiles[..., i, :, t, :] is activation tile (i, t) and
        # w_tiles[..., t, :, j, :] weight tile (t, j), both views
        a_tiles = a_pad.reshape(batch + (tiles_m, TILE_DIM, tiles_k, TILE_DIM))
        w_tiles = w_pad.reshape(batch + (tiles_k, TILE_DIM, tiles_n, TILE_DIM))
        acc = np.zeros(batch + (tiles_m, tiles_n, TILE_DIM, TILE_DIM),
                       dtype=np.float32)
        for tk in range(tiles_k):
            self._accumulate_k_tile(a_tiles[..., tk, :],
                                    w_tiles[..., tk, :, :, :].swapaxes(-3, -2),
                                    acc)
        self.record_gemm(m, k, n, math.prod(batch))
        out = acc.swapaxes(-3, -2).reshape(
            batch + (tiles_m * TILE_DIM, tiles_n * TILE_DIM))
        return out[..., :m, :n].astype(out_dtype)

    @staticmethod
    def _accumulate_k_tile(activation_tiles: np.ndarray,
                           weight_tiles: np.ndarray,
                           accumulator: np.ndarray) -> None:
        """One K step of :meth:`gemm`: ``acc[.., i, j] += a[.., i] @ w[.., j]``.

        ``activation_tiles`` is ``(..., tiles_m, 32, 32)``,
        ``weight_tiles`` ``(..., tiles_n, 32, 32)`` and ``accumulator``
        ``(..., tiles_m, tiles_n, 32, 32)``.  The stacked matmul issues
        one 32x32x32 FP32 product per tile pair, the same BLAS call
        :meth:`tile_mac` makes, so the sums match it bit for bit.
        """
        accumulator += np.matmul(activation_tiles[..., :, None, :, :],
                                 weight_tiles[..., None, :, :, :])

    @staticmethod
    def tile_macs_for_gemm(m: int, k: int, n: int) -> int:
        """Number of tile MAC operations a GEMM of this shape issues."""
        if min(m, k, n) <= 0:
            raise TileShapeError(f"GEMM dimensions must be positive, got ({m}, {k}, {n})")
        tiles = lambda d: -(-d // TILE_DIM)  # noqa: E731 - tiny local helper
        return tiles(m) * tiles(k) * tiles(n)
