"""On-chip Softmax with three exponential implementations (§5.2.1).

The Softmax bottleneck analysis in the paper (Fig. 8) shows exponential
computation dominating Attention at scale.  Three interchangeable exp
kernels are provided:

* ``poly32`` — the conventional path: replace ``exp`` with ``exp2``,
  split the input into integer ``k`` and fraction ``f``, evaluate
  ``2**f`` by a Taylor polynomial in FP32, and add ``k`` to the IEEE
  exponent field.  Polynomial evaluation is a dependent chain, which
  limits instruction-level parallelism under VLIW — modelled by a
  per-operation stall factor;
* ``poly16`` — the same algorithm in FP16 arithmetic (cheaper, less
  accurate, still chained);
* ``lut`` — the paper's method: a single ``vgather`` from a precomputed
  64 KiB FP16 table per 64 elements, plus two bit-manipulation ops to
  form offsets.  Because table entries are rounded once from float64,
  LUT-exp is *more accurate* than ``poly16`` while being faster.

:class:`OnChipSoftmax` assembles safe softmax (subtract row max) from
these kernels with FP32 row summation, as in Algorithm 1.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import KernelError
from ..obs import context as obs_context
from ..npu.datatypes import add_to_exponent_fp16, add_to_exponent_fp32, split_int_frac
from ..npu.hvx import HVXContext, vectors_for_bytes
from ..npu.memory import TCM
from .lut import ExpLUT

__all__ = [
    "CHAIN_STALL_PACKETS",
    "EXP_METHODS",
    "exp_poly32",
    "exp_poly16",
    "exp_lut",
    "OnChipSoftmax",
]

# Dependent polynomial operations cannot fill the 4 VLIW slots; each op in
# the chain effectively occupies several issue packets (§5.2.1: "polynomial
# evaluation involves sequential dependencies, limiting instruction-level
# parallelism under the VLIW architecture").  Calibrated, together with
# the vgather occupancy in the timing model, against the Fig. 14 speedup
# band (1.26-2.19x over FP32 exp, up to 1.60x over FP16 exp).
CHAIN_STALL_PACKETS = 2.1

# Per-row overheads of the row-wise reduction passes (cross-vector shuffle
# trees, scalar bookkeeping) and the gather latency the LUT path cannot
# hide on the last gather of a short row.
ROW_REDUCE_PACKETS = 16
LUT_ROW_EXPOSED_PACKETS = 24
CALL_FIXED_PACKETS = 200

EXP_METHODS = ("poly32", "poly16", "lut")

_LN2 = float(np.log(2.0))
# Taylor coefficients of 2**f = sum (f ln2)^k / k! for f in [0, 1).
_EXP2_COEFFS = [
    1.0,
    _LN2,
    _LN2 ** 2 / 2.0,
    _LN2 ** 3 / 6.0,
    _LN2 ** 4 / 24.0,
    _LN2 ** 5 / 120.0,
]


def _charge_chain(hvx: HVXContext, nbytes: int, n_ops: int) -> None:
    """Charge a dependent-chain op sequence over ``nbytes`` of lanes."""
    vectors = vectors_for_bytes(nbytes)
    hvx.trace.record("vmpy_hf", int(round(vectors * n_ops * CHAIN_STALL_PACKETS)))


def exp_poly32(hvx: HVXContext, x: np.ndarray, base: float = float(np.e)) -> np.ndarray:
    """FP32 polynomial ``base**x`` via the exp2 decomposition."""
    arr = np.asarray(x, dtype=np.float32)
    t = arr * np.float32(np.log2(base))
    k, f = split_int_frac(t)
    poly = np.full_like(f, _EXP2_COEFFS[-1], dtype=np.float32)
    for coeff in reversed(_EXP2_COEFFS[:-1]):
        poly = poly * f + np.float32(coeff)
    k_clipped = np.clip(k, -126, 126)
    out = add_to_exponent_fp32(poly, k_clipped)
    out = np.where(t < -126.0, 0.0, out)
    # 1 scale + 2 split + 5 FMA + 2 exponent-insert ops, all chained, FP32 lanes
    _charge_chain(hvx, arr.size * 4, n_ops=10)
    return out.astype(np.float32)


def exp_poly16(hvx: HVXContext, x: np.ndarray, base: float = float(np.e)) -> np.ndarray:
    """FP16 polynomial ``base**x``: same chain, half-width arithmetic.

    Every intermediate rounds to FP16, which is what costs accuracy
    relative to the LUT (whose entries round once from float64).
    """
    arr = np.asarray(x, dtype=np.float16)
    t = (arr.astype(np.float16) * np.float16(np.log2(base))).astype(np.float16)
    k, f32 = split_int_frac(t.astype(np.float32))
    f = f32.astype(np.float16)
    poly = np.full_like(f, np.float16(_EXP2_COEFFS[4]), dtype=np.float16)
    for coeff in reversed(_EXP2_COEFFS[:4]):  # degree 4 in FP16
        poly = (poly * f + np.float16(coeff)).astype(np.float16)
    # apply 2**k in two steps so deep-negative k lands on FP16 subnormals
    # instead of wrapping the exponent field: an exponent-field add for the
    # representable part, then a multiply for the remainder
    k_field = np.clip(k, -14, 15)
    out = add_to_exponent_fp16(poly, k_field)
    k_rest = np.clip(k - k_field, -24, 0)
    out = (out * np.exp2(k_rest.astype(np.float16))).astype(np.float16)
    out = np.where(t.astype(np.float32) < -25.0, np.float16(0.0), out)
    # 1 scale + 2 split + 4 FMA + 3 exponent/scale ops + 2 half-register
    # pack/unpack ops chained, FP16 lanes, plus qfloat->IEEE conversions
    # on pre-V79 parts
    n_ops = 12 + (2 if hvx.qfloat_mode == "qfloat" else 0)
    _charge_chain(hvx, arr.size * 2, n_ops=n_ops)
    return out.astype(np.float16)


def exp_lut(hvx: HVXContext, x: np.ndarray, table: ExpLUT) -> np.ndarray:
    """LUT ``base**x`` for non-positive FP16 inputs (§5.2.1).

    One ``vgather`` per 64 elements plus two bit ops per vector to strip
    the sign bit and form byte offsets.
    """
    arr = np.asarray(x, dtype=np.float16)
    # offset formation: vand (drop sign) + vasl (byte offset)
    hvx.trace.record("vand", vectors_for_bytes(arr.size * 2))
    hvx.trace.record("vasl", vectors_for_bytes(arr.size * 2))
    return table.lookup(hvx, arr)


class OnChipSoftmax:
    """Row-wise safe softmax on the HVX unit with pluggable exp.

    Follows Algorithm 1's precision discipline: inputs, outputs and the
    exp evaluation are FP16 (for ``poly16``/``lut``); the row summation
    is upcast to FP32.  ``poly32`` keeps the whole pipeline in FP32 as
    the conventional baseline.
    """

    def __init__(self, hvx: HVXContext, method: str = "lut",
                 tcm: Optional[TCM] = None, base: float = float(np.e)) -> None:
        if method not in EXP_METHODS:
            raise KernelError(f"unknown exp method {method!r}; expected {EXP_METHODS}")
        self.method = method
        self.hvx = hvx
        self.base = base
        self._lut: Optional[ExpLUT] = None
        if method == "lut":
            if tcm is None:
                raise KernelError("the LUT softmax needs a TCM to host its table")
            self._lut = ExpLUT(tcm, base=base)

    def exp(self, values: np.ndarray) -> np.ndarray:
        """Apply the configured exponential to non-positive inputs."""
        if self.method == "poly32":
            return exp_poly32(self.hvx, values, self.base)
        if self.method == "poly16":
            return exp_poly16(self.hvx, values, self.base)
        return exp_lut(self.hvx, values, self._lut)

    def _row_reduce_charges(self, matrix: np.ndarray) -> None:
        """Charge the vector ops of a row-wise max/sum reduction pass."""
        n_vectors = vectors_for_bytes(matrix.size * 2)
        self.hvx.trace.record("vmax_hf", n_vectors)
        # cross-vector reduction tree + scalar bookkeeping per row
        self.hvx.trace.record("stall", matrix.shape[0] * ROW_REDUCE_PACKETS)

    def __call__(self, scores: np.ndarray) -> np.ndarray:
        """Softmax along the last axis of an FP16 score matrix."""
        s = np.asarray(scores)
        if s.ndim != 2:
            raise KernelError(f"softmax expects a 2-D score matrix, got {s.shape}")
        with obs_context.current().tracer.span(
                "kernel.softmax", category="kernel", rows=s.shape[0],
                cols=s.shape[1], method=self.method):
            return self._softmax(s)

    def _softmax(self, s: np.ndarray) -> np.ndarray:
        self.hvx.trace.record("stall", CALL_FIXED_PACKETS)
        if self.method == "lut":
            # the last gather of each row exposes its latency (cannot be
            # overlapped with further gathers from the same row)
            self.hvx.trace.record("stall", s.shape[0] * LUT_ROW_EXPOSED_PACKETS)
        if self.method == "poly32":
            work = s.astype(np.float32)
        else:
            work = s.astype(np.float16)
        self._row_reduce_charges(work)
        row_max = work.max(axis=1, keepdims=True)
        shifted = self.hvx.vsub_hf(work, row_max) if self.method != "poly32" \
            else (work - row_max)
        if self.method == "poly32":
            self.hvx.trace.record("vadd_qf32", vectors_for_bytes(work.size * 4))
        probs = self.exp(shifted)
        # FP32 row summation (upcast), per Algorithm 1
        upcast = probs.astype(np.float32)
        self.hvx.trace.record("vadd_qf32", vectors_for_bytes(upcast.size * 4))
        denom = upcast.sum(axis=1, keepdims=True)
        denom = np.where(denom > 0, denom, 1.0)
        out = upcast / denom
        self.hvx.trace.record("vmpy_hf", vectors_for_bytes(probs.size * 2))
        if self.method == "poly32":
            return out.astype(np.float32)
        return out.astype(np.float16)
