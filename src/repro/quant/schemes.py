"""Base quantization schemes: Q4_0, Q8_0, per-channel and per-tensor RTN.

These are the reference schemes the paper builds on:

* ``Q4_0`` — llama.cpp's symmetric 4-bit scheme: groups of 32 weights
  share one FP16 scale; 16 bytes of packed nibbles + 2 bytes of scale
  give 4.5 bits per weight (Section 7.1);
* ``Q8_0`` — symmetric 8-bit, 8.5 BPW, used for the FFN down projection
  to protect accuracy (Section 7.1);
* per-channel / per-tensor round-to-nearest — the coarse-grained schemes
  native to mobile NPUs and QNN, whose accuracy collapse on reasoning
  tasks motivates the whole design (Table 1, Section 3.3).

All quantizers are round-to-nearest (RTN); scales are stored in FP16 as
on device, so quantization error measurements include scale rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import GroupSizeError, QuantizationError

__all__ = [
    "Q4_GROUP_SIZE",
    "Q4_0_BPW",
    "Q8_0_BPW",
    "quantize_q4_0",
    "dequantize_q4_0",
    "quantize_q8_0",
    "dequantize_q8_0",
    "quantize_per_channel",
    "quantize_per_tensor",
    "QuantizedGroups",
    "quantization_mse",
    "bits_per_weight",
]

Q4_GROUP_SIZE = 32
Q4_0_BPW = (16 + 2) * 8 / 32  # 4.5 bits per weight
Q8_0_BPW = (32 + 2) * 8 / 32  # 8.5 bits per weight


@dataclass
class QuantizedGroups:
    """Group-quantized values: integer codes plus per-group FP16 scales.

    ``codes`` has shape ``(n_groups, group_size)`` holding *unsigned*
    codes (bias already added for 4-bit), ``scales`` has one FP16 entry
    per group.  ``bits`` distinguishes 4- and 8-bit payloads.
    """

    codes: np.ndarray
    scales: np.ndarray
    bits: int
    group_size: int

    def __post_init__(self) -> None:
        if self.codes.ndim != 2 or self.codes.shape[1] != self.group_size:
            raise QuantizationError(
                f"codes must be (n_groups, {self.group_size}), got {self.codes.shape}")
        if self.scales.shape != (self.codes.shape[0],):
            raise QuantizationError(
                f"scales must be ({self.codes.shape[0]},), got {self.scales.shape}")

    @property
    def n_groups(self) -> int:
        return self.codes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.codes.size


def _validate_group_shape(values: np.ndarray, group_size: int) -> np.ndarray:
    flat = np.asarray(values, dtype=np.float32).ravel()
    if group_size <= 0:
        raise GroupSizeError(f"group size must be positive, got {group_size}")
    if flat.size == 0:
        raise GroupSizeError("cannot quantize an empty tensor")
    if flat.size % group_size != 0:
        raise GroupSizeError(
            f"{flat.size} elements do not divide into groups of {group_size}")
    return flat.reshape(-1, group_size)


def quantize_q4_0(values: np.ndarray, group_size: int = Q4_GROUP_SIZE) -> QuantizedGroups:
    """Symmetric 4-bit RTN group quantization (llama.cpp Q4_0 convention).

    Per group the scale is ``absmax / 8``; codes are
    ``clip(round(x / scale) + 8, 0, 15)`` so dequantized values span
    ``[-8, 7] * scale`` — the range the vlut16 dequantization table in
    Fig. 9 reproduces.
    """
    groups = _validate_group_shape(values, group_size)
    absmax = np.abs(groups).max(axis=1)
    scales = (absmax / 8.0).astype(np.float16)
    safe = np.where(scales.astype(np.float32) > 0, scales.astype(np.float32), 1.0)
    q = np.rint(groups / safe[:, None]).astype(np.int32)
    codes = np.clip(q + 8, 0, 15).astype(np.uint8)
    return QuantizedGroups(codes=codes, scales=scales, bits=4, group_size=group_size)


def dequantize_q4_0(quantized: QuantizedGroups) -> np.ndarray:
    """Dequantize Q4_0 codes back to FP16 values, flat in group order."""
    if quantized.bits != 4:
        raise QuantizationError(f"expected 4-bit payload, got {quantized.bits}-bit")
    centred = quantized.codes.astype(np.float32) - 8.0
    out = centred * quantized.scales.astype(np.float32)[:, None]
    return out.astype(np.float16).ravel()


def quantize_q8_0(values: np.ndarray, group_size: int = Q4_GROUP_SIZE) -> QuantizedGroups:
    """Symmetric 8-bit RTN group quantization (llama.cpp Q8_0 convention)."""
    groups = _validate_group_shape(values, group_size)
    absmax = np.abs(groups).max(axis=1)
    scales = (absmax / 127.0).astype(np.float16)
    safe = np.where(scales.astype(np.float32) > 0, scales.astype(np.float32), 1.0)
    q = np.clip(np.rint(groups / safe[:, None]), -127, 127).astype(np.int32)
    codes = (q + 128).astype(np.uint8)
    return QuantizedGroups(codes=codes, scales=scales, bits=8, group_size=group_size)


def dequantize_q8_0(quantized: QuantizedGroups) -> np.ndarray:
    """Dequantize Q8_0 codes back to FP16 values, flat in group order."""
    if quantized.bits != 8:
        raise QuantizationError(f"expected 8-bit payload, got {quantized.bits}-bit")
    centred = quantized.codes.astype(np.float32) - 128.0
    out = centred * quantized.scales.astype(np.float32)[:, None]
    return out.astype(np.float16).ravel()


def quantize_per_channel(weight: np.ndarray, bits: int = 4,
                         axis: int = 1) -> Tuple[np.ndarray, np.ndarray]:
    """Coarse per-channel symmetric quantization (QNN-style).

    One scale per output channel.  Returns the *dequantized* weight and
    the scales; this is the scheme whose reasoning-task collapse is shown
    in Table 1.
    """
    w = np.asarray(weight, dtype=np.float32)
    if w.ndim != 2:
        raise QuantizationError(f"per-channel quantization expects a matrix, got {w.shape}")
    if bits not in (4, 8):
        raise QuantizationError(f"unsupported bit width {bits}")
    qmax = 2 ** (bits - 1) - 1 if bits == 8 else 8
    reduce_axis = 1 - axis
    absmax = np.abs(w).max(axis=reduce_axis, keepdims=True)
    scales = (absmax / qmax).astype(np.float16).astype(np.float32)
    safe = np.where(scales > 0, scales, 1.0)
    lo, hi = (-8, 7) if bits == 4 else (-127, 127)
    q = np.clip(np.rint(w / safe), lo, hi)
    return (q * safe).astype(np.float16), scales.squeeze(reduce_axis)


def quantize_per_tensor(weight: np.ndarray, bits: int = 4) -> Tuple[np.ndarray, float]:
    """Coarsest scheme: one scale for the whole tensor."""
    w = np.asarray(weight, dtype=np.float32)
    if bits not in (4, 8):
        raise QuantizationError(f"unsupported bit width {bits}")
    qmax = 8 if bits == 4 else 127
    scale = float(np.float16(np.abs(w).max() / qmax)) or 1.0
    lo, hi = (-8, 7) if bits == 4 else (-127, 127)
    q = np.clip(np.rint(w / scale), lo, hi)
    return (q * scale).astype(np.float16), scale


def quantization_mse(original: np.ndarray, dequantized: np.ndarray) -> float:
    """Mean squared quantization error between two equal-size tensors."""
    a = np.asarray(original, dtype=np.float64).ravel()
    b = np.asarray(dequantized, dtype=np.float64).ravel()
    if a.size != b.size:
        raise QuantizationError(f"size mismatch: {a.size} vs {b.size}")
    return float(np.mean((a - b) ** 2))


def bits_per_weight(quantized: QuantizedGroups) -> float:
    """Effective storage cost in bits per weight (codes + FP16 scales)."""
    payload_bits = quantized.bits * quantized.group_size + 16
    return payload_bits / quantized.group_size
