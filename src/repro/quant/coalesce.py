"""Super-group coalescing of quantization groups (§5.1.2, Fig. 7).

Quantized weights default to an Array-of-Structures (AoS) layout: each
Q4_0 group is 16 bytes of packed INT4 codes followed by a 2-byte FP16
scale.  A single group is far too small to fill a 128-byte HVX register,
so register loads are mostly wasted.

The paper coalesces 8 groups into a *super-group* and reorganizes its
content so that the INT4 codes of 256 consecutive elements occupy exactly
one full HVX vector register, followed by the 8 scales (16 bytes).  This
module implements nibble packing, both layouts, and the register
utilization metric that quantifies the win.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import QuantizationError
from ..npu.hvx import VECTOR_BYTES
from .schemes import QuantizedGroups

__all__ = [
    "SUPER_GROUP_FACTOR",
    "pack_nibbles",
    "unpack_nibbles",
    "pack_aos_q4",
    "unpack_aos_q4",
    "pack_supergroups_q4",
    "unpack_supergroups_q4",
    "register_utilization",
    "PackedWeight",
]

SUPER_GROUP_FACTOR = 8  # 8 groups of 32 -> 256 INT4 values = 128 bytes


@dataclass(frozen=True)
class PackedWeight:
    """A packed quantized byte stream plus its layout descriptor."""

    data: np.ndarray  # uint8
    layout: str       # "aos" or "supergroup"
    n_groups: int
    group_size: int
    coalesce: int = 1


def pack_nibbles(codes: np.ndarray) -> np.ndarray:
    """Pack unsigned 4-bit codes pairwise into bytes (low nibble first)."""
    flat = np.asarray(codes, dtype=np.uint8).ravel()
    if flat.size % 2 != 0:
        raise QuantizationError(f"nibble packing needs an even count, got {flat.size}")
    if np.any(flat > 15):
        raise QuantizationError("codes exceed 4-bit range")
    return (flat[0::2] | (flat[1::2] << np.uint8(4))).astype(np.uint8)


def unpack_nibbles(packed: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pack_nibbles`."""
    data = np.asarray(packed, dtype=np.uint8).ravel()
    out = np.empty(data.size * 2, dtype=np.uint8)
    out[0::2] = data & np.uint8(0x0F)
    out[1::2] = data >> np.uint8(4)
    return out


def _require_q4(groups: QuantizedGroups) -> None:
    if groups.bits != 4:
        raise QuantizationError(f"expected 4-bit groups, got {groups.bits}-bit")
    if groups.group_size % 2 != 0:
        raise QuantizationError("group size must be even for nibble packing")


def _pack_records(groups: QuantizedGroups, coalesce: int) -> np.ndarray:
    """Records of ``coalesce`` groups: their packed codes, then their scales."""
    n_records = groups.n_groups // coalesce
    codes = pack_nibbles(groups.codes).reshape(
        n_records, coalesce * groups.group_size // 2)
    scales = groups.scales.astype(np.float16).view(np.uint8).reshape(
        n_records, 2 * coalesce)
    return np.concatenate([codes, scales], axis=1).ravel()


def _unpack_records(packed: PackedWeight, coalesce: int) -> QuantizedGroups:
    """Inverse of :func:`_pack_records`."""
    code_bytes = coalesce * packed.group_size // 2
    data = packed.data.reshape(packed.n_groups // coalesce,
                               code_bytes + 2 * coalesce)
    codes = unpack_nibbles(data[:, :code_bytes]).reshape(packed.n_groups,
                                                         packed.group_size)
    scales = data[:, code_bytes:].copy().view(np.float16)
    return QuantizedGroups(codes=codes, scales=scales.ravel(), bits=4,
                           group_size=packed.group_size)


def pack_aos_q4(groups: QuantizedGroups) -> PackedWeight:
    """Conventional AoS layout: [codes(16B) | scale(2B)] per group."""
    _require_q4(groups)
    return PackedWeight(data=_pack_records(groups, 1), layout="aos",
                        n_groups=groups.n_groups,
                        group_size=groups.group_size)


def unpack_aos_q4(packed: PackedWeight) -> QuantizedGroups:
    """Inverse of :func:`pack_aos_q4`."""
    if packed.layout != "aos":
        raise QuantizationError(f"expected aos layout, got {packed.layout!r}")
    return _unpack_records(packed, 1)


def pack_supergroups_q4(groups: QuantizedGroups,
                        coalesce: int = SUPER_GROUP_FACTOR) -> PackedWeight:
    """Coalesced super-group layout (Fig. 7).

    Each super-group stores the packed codes of ``coalesce`` groups
    contiguously (one full HVX register for the default 8x32 = 256
    elements), followed by the ``coalesce`` FP16 scales.
    """
    _require_q4(groups)
    if coalesce <= 0:
        raise QuantizationError(f"coalesce factor must be positive, got {coalesce}")
    if groups.n_groups % coalesce != 0:
        raise QuantizationError(
            f"{groups.n_groups} groups do not divide into super-groups of {coalesce}")
    return PackedWeight(data=_pack_records(groups, coalesce),
                        layout="supergroup", n_groups=groups.n_groups,
                        group_size=groups.group_size, coalesce=coalesce)


def unpack_supergroups_q4(packed: PackedWeight) -> QuantizedGroups:
    """Inverse of :func:`pack_supergroups_q4`."""
    if packed.layout != "supergroup":
        raise QuantizationError(f"expected supergroup layout, got {packed.layout!r}")
    return _unpack_records(packed, packed.coalesce)


def register_utilization(packed: PackedWeight) -> float:
    """Fraction of each 128-byte register load holding INT4 codes.

    For the AoS layout a register load aligned to a group start covers
    the 16-byte code chunk plus the trailing scale and the next groups'
    mixed content; the *useful contiguous* code run is one group's codes.
    For the super-group layout it is ``coalesce`` groups' codes, a full
    register at the default factor — the quantity Fig. 7 maximizes.
    """
    if packed.layout == "aos":
        contiguous = packed.group_size // 2
    else:
        contiguous = packed.coalesce * packed.group_size // 2
    return min(contiguous, VECTOR_BYTES) / VECTOR_BYTES
