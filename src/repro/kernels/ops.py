"""Miscellaneous transformer operators (the "Misc. Ops" of §5.2.1).

RMSNorm, RoPE, SwiGLU activation and residual addition.  The paper
classifies these as minor contributors to decode latency, but the LLM
engine still needs them numerically (FP16 storage, FP32 internal
accumulation where reductions are involved).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import KernelError

__all__ = ["rms_norm", "rope_rotate", "silu", "swiglu", "residual_add",
           "rope_frequencies"]


def rms_norm(x: np.ndarray, weight: np.ndarray,
             eps: float = 1e-6) -> np.ndarray:
    """RMSNorm over the last axis: ``x / rms(x) * weight`` (FP32 reduce)."""
    arr = np.asarray(x, dtype=np.float16)
    w = np.asarray(weight, dtype=np.float16)
    if arr.shape[-1] != w.shape[-1]:
        raise KernelError(f"weight width {w.shape} does not match input {arr.shape}")
    x32 = arr.astype(np.float32)
    # the FP32 mean, as np.mean takes it: an FP32 sum over the count
    mean_sq = np.add.reduce(x32 * x32, axis=-1, keepdims=True) / arr.shape[-1]
    normed = x32 / np.sqrt(mean_sq + eps)
    return np.multiply(normed, w, dtype=np.float32).astype(np.float16)


def rope_frequencies(head_dim: int, max_positions: int,
                     theta: float = 10000.0) -> Tuple[np.ndarray, np.ndarray]:
    """Precompute RoPE cos/sin tables of shape ``(max_positions, head_dim/2)``."""
    if head_dim % 2 != 0:
        raise KernelError(f"head dim must be even for RoPE, got {head_dim}")
    inv_freq = 1.0 / theta ** (np.arange(0, head_dim, 2, dtype=np.float64) / head_dim)
    angles = np.outer(np.arange(max_positions, dtype=np.float64), inv_freq)
    return np.cos(angles).astype(np.float32), np.sin(angles).astype(np.float32)


def rope_rotate(x: np.ndarray, positions: np.ndarray, cos_table: np.ndarray,
                sin_table: np.ndarray) -> np.ndarray:
    """Apply rotary position embedding to ``(tokens, head_dim)`` vectors.

    Uses the interleaved-pair convention: dimensions ``(2i, 2i+1)`` rotate
    together by the position's angle for frequency ``i``.
    """
    arr = np.asarray(x, dtype=np.float16).astype(np.float32)
    pos = np.asarray(positions, dtype=np.int64)
    if arr.ndim != 2:
        raise KernelError(f"rope expects (tokens, head_dim), got {arr.shape}")
    if pos.shape[0] != arr.shape[0]:
        raise KernelError(f"positions {pos.shape} do not match tokens {arr.shape[0]}")
    if pos.size and int(pos.max()) >= cos_table.shape[0]:
        raise KernelError(
            f"position {int(pos.max())} exceeds RoPE table length {cos_table.shape[0]}")
    cos = cos_table[pos]
    sin = sin_table[pos]
    even = arr[:, 0::2]
    odd = arr[:, 1::2]
    # each pair is rotated in FP32 and stored FP16
    out = np.empty(arr.shape, dtype=np.float16)
    np.subtract(even * cos, odd * sin, out=out[:, 0::2])
    np.add(even * sin, odd * cos, out=out[:, 1::2])
    return out


def silu(x: np.ndarray) -> np.ndarray:
    """SiLU activation ``x * sigmoid(x)`` with FP32 internals."""
    x32 = np.asarray(x, dtype=np.float16).astype(np.float32)
    out = x32 / (1.0 + np.exp(-x32)) if x32.size else x32
    return out.astype(np.float16)


def swiglu(gate: np.ndarray, up: np.ndarray) -> np.ndarray:
    """SwiGLU combine: ``silu(gate) * up`` (the Qwen/Llama FFN core)."""
    g = np.asarray(gate, dtype=np.float16)
    u = np.asarray(up, dtype=np.float16)
    if g.shape != u.shape:
        raise KernelError(f"gate/up shapes differ: {g.shape} vs {u.shape}")
    return np.multiply(silu(g), u, dtype=np.float32).astype(np.float16)


def residual_add(x: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """Residual addition in FP16."""
    a = np.asarray(x, dtype=np.float16)
    b = np.asarray(residual, dtype=np.float16)
    if a.shape != b.shape:
        raise KernelError(f"residual shapes differ: {a.shape} vs {b.shape}")
    return np.add(a, b, dtype=np.float32).astype(np.float16)
