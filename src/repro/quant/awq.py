"""Activation-aware weight quantization (AWQ), simplified (§3.3, Table 1).

The paper's Table 1 contrasts QNN's per-channel quantization with AWQ
per-group 4-bit quantization to show that fine-grained, activation-aware
scaling is what preserves reasoning ability.  This module implements the
core AWQ mechanism on top of our group quantizers:

1. estimate per-input-channel activation magnitudes from a calibration
   batch;
2. grid-search a smoothing exponent ``alpha`` so that weights are scaled
   by ``s_c = act_mag_c ** alpha`` before quantization (and activations
   by ``1 / s_c`` at runtime, folded into the previous op);
3. pick the ``alpha`` minimizing the output-reconstruction error of the
   layer on the calibration batch.

This is the published AWQ search reduced to its essentials — enough to
demonstrate the accuracy ordering of Table 1 with real arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import QuantizationError
from .schemes import Q4_GROUP_SIZE
from .tile_quant import QuantizedWeight, dequantize_weight, tile_groups

__all__ = ["AWQResult", "awq_quantize", "activation_channel_scales"]


@dataclass
class AWQResult:
    """Outcome of the AWQ search for one linear layer."""

    quantized: QuantizedWeight
    channel_scales: np.ndarray  # per-input-channel weight multiplier s_c
    alpha: float
    reconstruction_error: float

    def dequantized_weight(self) -> np.ndarray:
        """Effective FP16 weight after undoing the channel scaling."""
        scaled = dequantize_weight(self.quantized).astype(np.float32)
        return (scaled / self.channel_scales[:, None]).astype(np.float16)


def activation_channel_scales(calibration: np.ndarray) -> np.ndarray:
    """Mean absolute activation magnitude per input channel."""
    acts = np.asarray(calibration, dtype=np.float32)
    if acts.ndim != 2:
        raise QuantizationError(
            f"calibration batch must be (tokens, channels), got {acts.shape}")
    mags = np.abs(acts).mean(axis=0)
    return np.maximum(mags, 1e-8)


def _layer_error(weight: np.ndarray, quantized_effective: np.ndarray,
                 calibration: np.ndarray) -> float:
    reference = calibration @ weight
    approx = calibration @ quantized_effective.astype(np.float32)
    return float(np.mean((reference - approx) ** 2))


def awq_quantize(weight: np.ndarray, calibration: np.ndarray, bits: int = 4,
                 group_size: int = Q4_GROUP_SIZE,
                 alpha_grid: Optional[np.ndarray] = None) -> AWQResult:
    """AWQ-style quantization of one ``(in, out)`` weight matrix.

    ``calibration`` is a ``(tokens, in)`` activation sample.  For each
    candidate ``alpha`` the weight rows are multiplied by
    ``mag ** alpha``, tile-group quantized, rescaled back, and scored by
    output reconstruction MSE on the calibration batch; the best
    candidate wins.  ``alpha = 0`` reduces to plain RTN group
    quantization, so AWQ can never lose to it on the calibration batch.
    """
    w = np.asarray(weight, dtype=np.float32)
    if w.ndim != 2:
        raise QuantizationError(f"expected a weight matrix, got shape {w.shape}")
    acts = np.asarray(calibration, dtype=np.float32)
    if acts.shape[1] != w.shape[0]:
        raise QuantizationError(
            f"calibration channels {acts.shape[1]} != weight input dim {w.shape[0]}")
    if alpha_grid is None:
        alpha_grid = np.linspace(0.0, 1.0, 11)

    magnitudes = activation_channel_scales(acts)
    best: Optional[Tuple[float, float, QuantizedWeight, np.ndarray]] = None
    for alpha in alpha_grid:
        scales = magnitudes ** float(alpha)
        scales = scales / np.exp(np.mean(np.log(scales)))  # normalize geometric mean
        groups = tile_groups(w * scales[:, None], bits=bits,
                             group_size=group_size)
        effective = groups.dequantized().astype(np.float32) / scales[:, None]
        error = _layer_error(w, effective, acts)
        if best is None or error < best[0]:
            best = (error, float(alpha), groups.quantized, scales)

    error, alpha, quantized, scales = best
    return AWQResult(quantized=quantized, channel_scales=scales, alpha=alpha,
                     reconstruction_error=error)
