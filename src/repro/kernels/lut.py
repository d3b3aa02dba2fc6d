"""Lookup-table construction for the LUT-based kernels (§5.2).

Two table families:

* the **exp LUT** for Softmax — 32768 FP16 entries covering every
  non-positive FP16 input (safe softmax guarantees ``x <= 0`` after
  subtracting the row max, so the sign bit carries no information and
  can be dropped).  Entries are precomputed with 64-bit intermediates,
  which is why LUT-exp is *more* accurate than 16-bit polynomial
  evaluation (§7.4).  The table occupies 64 KiB of TCM — ~0.8% of the
  8 MiB capacity;
* the **vlut16 dequantization tables** — 16 FP16 entries mapping a 4-bit
  code to its reconstruction value (Fig. 9), one per supported codebook,
  plus the constant index pattern that broadcasts four groups' scales
  with a single ``vlut16`` (§5.2.2).
"""

from __future__ import annotations

import numpy as np

from ..errors import LUTError
from ..npu.datatypes import bits_to_fp16, fp16_to_bits
from ..npu.memory import TCM, TCMRegion
from ..quant.codebooks import Codebook

__all__ = [
    "EXP_LUT_ENTRIES",
    "EXP_LUT_BYTES",
    "build_exp_lut",
    "build_reduced_exp_lut",
    "reduced_exp_lookup",
    "exp_lut_offsets",
    "ExpLUT",
    "scale_broadcast_indices",
    "codebook_lut_values",
]

EXP_LUT_ENTRIES = 32768
EXP_LUT_BYTES = EXP_LUT_ENTRIES * 2  # 64 KiB


def build_exp_lut(base: float = np.e) -> np.ndarray:
    """Precompute the FP16 exp table for non-positive inputs.

    Index ``p`` (15 bits) is the magnitude bit pattern of an FP16 value
    ``v >= 0``; the entry stores ``base ** (-v)`` rounded once from a
    float64 intermediate.  Non-finite magnitude patterns (``v = inf`` or
    NaN payloads) map to 0, which is the correct safe-softmax limit for
    ``-inf`` and a harmless value for NaN patterns that cannot occur
    after ``S - rowmax``.
    """
    if base <= 1.0:
        raise LUTError(f"exp LUT base must exceed 1, got {base}")
    patterns = np.arange(EXP_LUT_ENTRIES, dtype=np.uint16)
    magnitudes = bits_to_fp16(patterns).astype(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        entries = np.power(float(base), -magnitudes)
    entries = np.where(np.isfinite(magnitudes), entries, 0.0)
    entries = np.nan_to_num(entries, nan=0.0)
    return entries.astype(np.float16)


def build_reduced_exp_lut(index_bits: int, base: float = np.e) -> np.ndarray:
    """Ablation: a smaller exp table addressed by truncated FP16 bits.

    The paper's table spends 64 KiB (15 index bits).  Dropping the low
    ``15 - index_bits`` mantissa bits shrinks the table by the same
    power of two at the cost of quantizing the exp input — the accuracy
    side of the table-size trade-off the ablation benchmarks sweep.
    """
    if not 4 <= index_bits <= 15:
        raise LUTError(f"index bits must be in [4, 15], got {index_bits}")
    drop = 15 - index_bits
    patterns = (np.arange(2 ** index_bits, dtype=np.uint16)
                << np.uint16(drop)).astype(np.uint16)
    magnitudes = bits_to_fp16(patterns).astype(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        entries = np.power(float(base), -magnitudes)
    entries = np.where(np.isfinite(magnitudes), entries, 0.0)
    return np.nan_to_num(entries, nan=0.0).astype(np.float16)


def reduced_exp_lookup(table: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Evaluate ``base**x`` (x <= 0) through a reduced table."""
    table = np.asarray(table, dtype=np.float16)
    size = table.size
    if size & (size - 1) or not 16 <= size <= EXP_LUT_ENTRIES:
        raise LUTError(f"reduced table size must be a power of two in "
                       f"[16, {EXP_LUT_ENTRIES}], got {size}")
    index_bits = int(np.log2(size))
    drop = 15 - index_bits
    arr = np.asarray(values, dtype=np.float16)
    if arr.size and float(arr.max()) > 0.0:
        raise LUTError("reduced exp LUT inputs must be non-positive")
    bits = fp16_to_bits(arr) & np.uint16(0x7FFF)
    idx = (bits >> np.uint16(drop)).astype(np.int64)
    return table[idx]


def exp_lut_offsets(values: np.ndarray) -> np.ndarray:
    """Byte offsets into the exp LUT for non-positive FP16 inputs.

    Implements the paper's addressing trick: ignore the MSB (sign bit)
    and left-shift the remaining 15 bits by one to form the 2-byte
    element offset required by ``vgather``.
    """
    arr = np.asarray(values, dtype=np.float16)
    if arr.size and float(arr.max()) > 0.0:
        raise LUTError(
            "exp LUT inputs must be non-positive (safe softmax subtracts the "
            f"row max); got max {float(arr.max())}")
    bits = fp16_to_bits(arr)
    return ((bits & np.uint16(0x7FFF)).astype(np.int64)) << 1


class ExpLUT:
    """An exp lookup table resident in TCM.

    Construction happens once at system initialization (no inference-time
    overhead); :meth:`lookup` runs the gather through an
    :class:`~repro.npu.hvx.HVXContext` so instruction costs are recorded.
    """

    def __init__(self, tcm: TCM, base: float = np.e) -> None:
        self.base = float(base)
        self.table = build_exp_lut(base)
        self.region: TCMRegion = tcm.alloc(EXP_LUT_BYTES)
        tcm.write(self.region, self.table)
        self._tcm = tcm

    def lookup(self, hvx, values: np.ndarray) -> np.ndarray:
        """Gather ``base ** x`` for FP16 ``x <= 0`` via ``vgather``."""
        arr = np.asarray(values, dtype=np.float16)
        offsets = exp_lut_offsets(arr.ravel())
        table_bytes = self._tcm.view(self.region)[:EXP_LUT_BYTES]
        raw = hvx.vgather(table_bytes, offsets)
        return bits_to_fp16(raw).reshape(arr.shape)

    @property
    def words(self) -> np.ndarray:
        """The table's TCM bytes as little-endian FP16 words (a view).

        ``words[bits & 0x7FFF]`` reads the memory :meth:`lookup` gathers,
        without charging it.
        """
        return self._tcm.view(self.region)[:EXP_LUT_BYTES].view("<f2")

    def free(self) -> None:
        self._tcm.free(self.region)


def scale_broadcast_indices(group_size: int = 32, n_groups: int = 4) -> np.ndarray:
    """Constant vlut16 index pattern that broadcasts four groups' scales.

    With the scales of four groups loaded as LUT contents, applying this
    predefined index vector replicates scale ``g`` across the lanes of
    group ``g`` in one ``vlut16`` (§5.2.2).  Entry count is
    ``n_groups * group_size`` bytes — one full 128-byte register for the
    default 4 groups of 32.
    """
    if group_size <= 0 or n_groups <= 0 or n_groups > 16:
        raise LUTError(
            f"invalid broadcast geometry: {n_groups} groups of {group_size}")
    return np.repeat(np.arange(n_groups, dtype=np.uint8), group_size)


def codebook_lut_values(codebook: Codebook) -> np.ndarray:
    """The 16 FP16 entries loaded into vlut16 for a 4-bit codebook."""
    return codebook.values.astype(np.float16)
