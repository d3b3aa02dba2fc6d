"""FP16 FlashAttention on the NPU model (Algorithm 1, §5.2.1).

Implements the paper's on-chip attention exactly as Algorithm 1 states:

* ``S = MatMul(Q_i, K_j^T)`` on the HMX unit with FP32 accumulation,
  stored FP16;
* running row max ``m`` and the safe-softmax shift, stored FP16;
* ``P = exp(S - m)`` through a pluggable exponential (``lut`` /
  ``poly16`` / ``poly32``), stored FP16;
* the running denominator ``l`` with FP32 row summation, stored FP16;
* output accumulation ``O = diag(correction) O + P V`` on HMX with FP32
  accumulation, stored FP16;
* final normalization ``O / l``.

A conventional FP32 attention (:func:`attention_fp32_reference`) provides
the accuracy baseline of Table 5.  Every invocation records a per-phase
cost breakdown (``qk_matmul`` / ``softmax`` / ``pv_matmul`` /
``rescale``) so Fig. 8's latency decomposition can be regenerated.

One invocation runs a whole stack of heads — every (sequence, head) of
a decode step, with ragged KV lengths — and computes and charges each
item exactly as a one-head call of its shape would.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import KernelError
from ..obs import trace as obs_trace
from ..npu.hvx import HVXContext, InstructionTrace, vectors_for_bytes
from ..npu.hmx import HMXUnit, TILE_DIM, pad_to_tiles
from ..npu.memory import TCM
from ..npu.timing import KernelCost
from .lut import ExpLUT
from .softmax import (
    CALL_FIXED_PACKETS,
    EXP_METHODS,
    LUT_ROW_EXPOSED_PACKETS,
    ROW_REDUCE_PACKETS,
    exp_lut,
    exp_poly16,
    exp_poly32,
)

__all__ = [
    "AttentionBreakdown",
    "FlashAttention",
    "attention_fp32_reference",
]

_NEG_LIMIT = np.float16(-65504.0)  # most negative finite FP16
_PHASES = ("qk_matmul", "softmax", "pv_matmul", "rescale")


@dataclass
class AttentionBreakdown:
    """Per-phase instruction costs of one attention invocation."""

    qk_matmul: KernelCost = field(default_factory=KernelCost)
    softmax: KernelCost = field(default_factory=KernelCost)
    pv_matmul: KernelCost = field(default_factory=KernelCost)
    rescale: KernelCost = field(default_factory=KernelCost)

    def total(self) -> KernelCost:
        out = KernelCost()
        for part in (self.qk_matmul, self.softmax, self.pv_matmul, self.rescale):
            out.merge(part)
        return out


class FlashAttention:
    """Blockwise FP16 attention with the paper's precision discipline."""

    def __init__(self, method: str = "lut", tcm: Optional[TCM] = None,
                 qfloat_mode: str = "qfloat",
                 block_q: int = TILE_DIM, block_kv: int = TILE_DIM) -> None:
        if method not in EXP_METHODS:
            raise KernelError(f"unknown exp method {method!r}; expected {EXP_METHODS}")
        if block_q % TILE_DIM or block_kv % TILE_DIM:
            raise KernelError(
                f"block sizes must be multiples of {TILE_DIM}, got "
                f"{block_q}x{block_kv}")
        self.method = method
        self.block_q = block_q
        self.block_kv = block_kv
        self.qfloat_mode = qfloat_mode
        self._item_costs: Dict[Tuple[int, int, int], AttentionBreakdown] = {}
        self._stack_costs: Dict[Tuple[int, int, Tuple[int, ...]],
                                AttentionBreakdown] = {}
        # the engines of the compute path; calls are charged from
        # _item_cost, so nothing reads their traces
        self._hmx = HMXUnit()
        self._hvx = HVXContext(qfloat_mode)
        self._lut: Optional[ExpLUT] = None
        if method == "lut":
            if tcm is None:
                raise KernelError("LUT attention needs a TCM for the exp table")
            self._lut = ExpLUT(tcm)

    # ------------------------------------------------------------------
    def _exp(self, hvx: HVXContext, values: np.ndarray) -> np.ndarray:
        if self.method == "poly32":
            return exp_poly32(hvx, values).astype(np.float16)
        if self.method == "poly16":
            return exp_poly16(hvx, values)
        clipped = np.minimum(values, np.float16(0.0))
        return exp_lut(hvx, clipped, self._lut)

    def _exp_values(self, values: np.ndarray) -> np.ndarray:
        """What :meth:`_exp` returns, for the compute path.

        The LUT is read straight from its TCM words at the offsets
        ``vgather`` would form, with no charges recorded.
        """
        if self._lut is None:
            return self._exp(self._hvx, values)
        bits = np.minimum(values, np.float16(0.0)).view(np.uint16)
        return self._lut.words[bits & np.uint16(0x7FFF)]

    # ------------------------------------------------------------------
    def __call__(self, q: np.ndarray, k: np.ndarray, v: np.ndarray,
                 scale: Optional[float] = None,
                 q_positions: Optional[np.ndarray] = None,
                 k_positions: Optional[np.ndarray] = None,
                 kv_lengths: Optional[np.ndarray] = None
                 ) -> "tuple[np.ndarray, AttentionBreakdown]":
        """Attention over one head or a stack: ``softmax(Q K^T * scale) V``.

        ``q`` is ``(n_q, d)`` for one head or ``(items, n_q, d)`` for a
        stack of heads; ``k``/``v`` are ``(n_kv, d)`` or
        ``(items, n_kv, d)``.  ``kv_lengths`` gives each item's number
        of real keys (all ``n_kv`` by default); keys past it are ignored,
        so one call covers caches of ragged lengths.  Optional position
        arrays, ``(n_q,)``/``(n_kv,)`` shared by all items or one row per
        item, enable causal masking (a key is visible to a query iff
        ``k_pos <= q_pos``).  Returns the FP16 output, shaped like ``q``,
        and the per-phase cost breakdown summed over the items.

        Each item computes and is charged exactly what a one-head call
        of its shape does; a one-head call is a stack of one.
        """
        q = np.asarray(q, dtype=np.float16)
        k = np.asarray(k, dtype=np.float16)
        v = np.asarray(v, dtype=np.float16)
        one_head = q.ndim == 2
        if one_head:
            q, k, v = q[np.newaxis], k[np.newaxis], v[np.newaxis]
        if q.ndim != 3 or k.ndim != 3 or v.ndim != 3:
            raise KernelError("attention operands must be (tokens, head_dim) "
                              "or (items, tokens, head_dim)")
        items, n_q, d = q.shape
        n_kv = k.shape[1]
        if k.shape != v.shape or (k.shape[0], k.shape[2]) != (items, d):
            raise KernelError(
                f"shape mismatch: q{q.shape}, k{k.shape}, v{v.shape}")
        scale = np.float32(1.0 / float(np.sqrt(d)) if scale is None
                           else scale)
        kv_len = np.asarray(n_kv if kv_lengths is None else kv_lengths,
                            dtype=np.int64)
        lengths = kv_len.tolist() if kv_len.ndim else [int(kv_len)] * items
        if kv_len.shape not in ((), (items,)) \
                or min(lengths, default=0) < 0 \
                or max(lengths, default=0) > n_kv:
            raise KernelError(f"kv_lengths must be {items} values in "
                              f"[0, {n_kv}], got {kv_len}")
        causal = q_positions is not None and k_positions is not None
        if causal:
            q_positions = _per_item(q_positions, items, n_q, "q_positions")
            k_positions = _per_item(k_positions, items, n_kv, "k_positions")

        # items run longest cache first, so the items taking part in
        # any KV block form a prefix of the stack
        item_rows = [-(-n // TILE_DIM) * TILE_DIM for n in lengths]
        order = sorted(range(items), key=item_rows.__getitem__, reverse=True)
        reordered = order != list(range(items))
        if reordered:
            q, k, v = q[order], k[order], v[order]
            if causal:  # shared positions need no reordering
                q_positions, k_positions = (
                    pos if len(pos) == 1 else pos[order]
                    for pos in (q_positions, k_positions))
        kv_rows = [item_rows[i] for i in order]
        kv_len = [lengths[i] for i in order]
        n_kv_pad = -(-n_kv // TILE_DIM) * TILE_DIM
        # a score is masked where its key is past the item's length or,
        # with positions, in the query's future
        masked = np.arange(n_kv_pad) >= np.array(kv_len)[:, None, None]
        if causal:
            future = np.zeros((items, n_q, n_kv_pad), dtype=bool)
            future[..., :n_kv] = (q_positions[:, :, np.newaxis]
                                  < k_positions[:, np.newaxis, :])
            masked = masked | future

        # operands widened to FP32 once, as the HMX pads and widens them:
        # the query tiles here, each block's keys and values in
        # _kv_tiles, P into zero rows past the true queries
        q_tiles = pad_to_tiles(q.astype(np.float32, order="C"))
        p_tiles = np.zeros((items, q_tiles.shape[1], self.block_kv),
                           dtype=np.float32)
        # running state of the true query rows only: the padded rows of a
        # query tile never reach the output
        out = np.zeros((items, n_q, d), dtype=np.float16)
        m = np.full((items, n_q), _NEG_LIMIT, dtype=np.float16)
        l = np.zeros((items, n_q), dtype=np.float16)

        for kv_start, width, lo, hi in _runs(kv_rows, self.block_kv):
            kv = slice(kv_start, kv_start + width)
            keys = _kv_tiles(k, kv_len, lo, hi, kv)
            values = _kv_tiles(v, kv_len, lo, hi, kv)

            # --- S = Q K^T (HMX, FP32 accumulate, FP16 store) ----------
            # keys are multiplied as stored, transposed: BLAS rounds a
            # transposed tile differently, so the layout is part of the
            # numerics, and the HMX multiplies whole 32-row query tiles
            # here.  The vector side works on the true query rows only
            s = self._hmx.gemm(q_tiles[lo:hi], keys.swapaxes(1, 2),
                               np.float32, shape=(n_q, d, width))
            s = (s * scale).astype(np.float16)
            np.copyto(s, _NEG_LIMIT, where=masked[lo:hi, :, kv])

            # --- online softmax (FP16 with FP32 row sums) --------------
            m_old = m[lo:hi]
            new_m = np.maximum(m_old, s.max(axis=2))
            new_m32 = new_m.astype(np.float32)
            # the per-row rescale factor e^(m - m') is produced by the
            # scalar core fused into the rescale pass, so it carries no
            # vector charges
            correction = np.exp(np.minimum(
                m_old.astype(np.float32) - new_m32, 0.0)
            ).astype(np.float16).astype(np.float32)
            shifted = (s.astype(np.float32)
                       - new_m32[:, :, np.newaxis]).astype(np.float16)
            p = p_tiles[lo:hi, :, :width]
            p[:, :n_q] = self._exp_values(shifted)
            row_sum = p[:, :n_q].sum(axis=2)  # FP32 (Alg. 1)
            l[lo:hi] = (correction * l[lo:hi].astype(np.float32)
                        + row_sum).astype(np.float16)
            m[lo:hi] = new_m

            # --- O = diag(correction) O + P V (HMX) ---------------------
            # P and V are row-major, so only the true query rows of P are
            # multiplied
            rescaled = (out[lo:hi].astype(np.float32)
                        * correction[:, :, np.newaxis])
            pv = self._hmx.gemm(p, values, np.float32,
                                shape=(n_q, width, d))
            out[lo:hi] = (rescaled + pv).astype(np.float16)

        # --- final normalization O / l ---------------------------------
        denom = l.astype(np.float32)
        denom = np.where(denom > 0, denom, 1.0)
        result = (out.astype(np.float32)
                  / denom[:, :, np.newaxis]).astype(np.float16)
        if reordered:  # back to stack order
            result = result[np.argsort(order)]

        d_pad = q_tiles.shape[2]
        breakdown = self._stack_cost(n_q, d_pad, tuple(kv_rows))
        tracer = obs_trace.get_tracer()
        if tracer.enabled:
            # one structural span per item, in stack order, with one
            # cost-only child per Algorithm 1 phase — the Fig. 8
            # decomposition, from the trace
            for n_kv_i, rows in zip(lengths, item_rows):
                cost = self._item_cost(n_q, rows, d_pad)
                with tracer.span("kernel.flash_attention", category="kernel",
                                 n_q=n_q, n_kv=n_kv_i, head_dim=d,
                                 method=self.method,
                                 flops=4.0 * n_q * n_kv_i * d):
                    for phase in _PHASES:
                        with tracer.span(f"kernel.attention.{phase}",
                                         category="kernel") as phase_span:
                            phase_span.add_cost(getattr(cost, phase)
                                                + KernelCost())
        return (result[0] if one_head else result), breakdown

    def _stack_cost(self, n_q: int, d_pad: int, kv_rows: Tuple[int, ...]
                    ) -> AttentionBreakdown:
        """Per-phase charges of a stack: the sum of its items' charges.

        The sum depends on ``n_q``, ``d_pad`` and the multiset of
        tile-padded ``kv_rows`` alone, so the kernel keeps it per sorted
        ``kv_rows``; every call gets a fresh record.
        """
        key = (n_q, d_pad, kv_rows)
        total = self._stack_costs.get(key)
        if total is None:
            total = AttentionBreakdown()
            for rows in kv_rows:
                cost = self._item_cost(n_q, rows, d_pad)
                for phase in _PHASES:
                    getattr(total, phase).merge(getattr(cost, phase))
            self._stack_costs[key] = total
        return AttentionBreakdown(*(getattr(total, phase) + KernelCost()
                                    for phase in _PHASES))

    def _item_cost(self, n_q: int, kv_rows: int, d_pad: int
                   ) -> AttentionBreakdown:
        """Per-phase charges of one head: ``n_q`` queries, ``kv_rows`` keys.

        ``kv_rows`` and ``d_pad`` are tile-padded.  Every charge depends
        on the shape alone, so the kernel records them once per distinct
        shape and keeps the result, and a stack is charged per item from
        it (vector counts round up per call, so they cannot be taken from
        stacked array sizes).  Callers must not mutate the result.
        """
        key = (n_q, kv_rows, d_pad)
        if key in self._item_costs:
            return self._item_costs[key]
        traces = {phase: InstructionTrace() for phase in _PHASES}
        qk, pv = HMXUnit(traces["qk_matmul"]), HMXUnit(traces["pv_matmul"])
        softmax = HVXContext(self.qfloat_mode, traces["softmax"])
        rescale = traces["rescale"]
        n_q_pad = -(-n_q // TILE_DIM) * TILE_DIM
        out_vectors = vectors_for_bytes(n_q_pad * d_pad * 2)
        n_blocks = -(-kv_rows // self.block_kv)
        # cross-vector row reductions + exposed gather latency
        overhead = ROW_REDUCE_PACKETS
        if self.method == "lut":
            overhead += LUT_ROW_EXPOSED_PACKETS
        for kv_start in range(0, kv_rows, self.block_kv):
            width = min(self.block_kv, kv_rows - kv_start)
            valid_vectors = vectors_for_bytes(n_q * width * 2)
            qk.record_gemm(n_q_pad, d_pad, width)
            softmax.trace.record("vmpy_hf", valid_vectors)   # scale
            softmax.trace.record("vmax_hf", valid_vectors)   # row max
            self._exp(softmax, np.zeros((n_q, width), dtype=np.float16))
            softmax.trace.record("vsub_hf", valid_vectors)   # S - m
            softmax.trace.record("vadd_qf32",                # FP32 row sum
                                 vectors_for_bytes(n_q * width * 4))
            softmax.trace.record("stall", max(1, n_q * overhead // n_blocks))
            rescale.record("vmpy_hf", out_vectors)           # diag(c) O
            pv.record_gemm(n_q_pad, width, d_pad)
            rescale.record("vadd_hf", out_vectors)           # + P V
        rescale.record("vmpy_hf", out_vectors)               # O / l
        rescale.record("stall", CALL_FIXED_PACKETS)
        self._item_costs[key] = AttentionBreakdown(**{
            phase: KernelCost.from_trace(trace)
            for phase, trace in traces.items()})
        return self._item_costs[key]


def _runs(kv_rows: List[int], block: int
          ) -> Iterator[Tuple[int, int, int, int]]:
    """``(kv_start, width, lo, hi)`` of every run of a blocked stack.

    ``kv_rows`` are the items' tile-padded KV lengths, longest first.  A
    KV block is as wide as each item's cache allows, so the items in a
    block form a prefix of the stack and items of one width a run of it:
    a block of width ``w < block`` holds the items whose cache ends at
    ``kv_start + w``.
    """
    ascending = kv_rows[::-1]
    for kv_start in range(0, kv_rows[0] if kv_rows else 0, block):
        lo = 0
        for width in range(block, 0, -TILE_DIM):
            # items whose cache reaches kv_start + width
            hi = len(kv_rows) - bisect_left(ascending, kv_start + width)
            if hi > lo:
                yield kv_start, width, lo, hi
                lo = hi


def _kv_tiles(x: np.ndarray, kv_len: List[int], lo: int, hi: int,
              kv: slice) -> np.ndarray:
    """Rows ``kv`` of items ``lo:hi`` of keys or values, as FP32 tiles.

    The block is widened and zero-padded in C order, as the HMX widens
    it, and rows past an item's length are zeros, as in a one-head call
    of that item.
    """
    tiles = pad_to_tiles(x[lo:hi, kv].astype(np.float32, order="C"))
    for i in range(lo, hi):
        if kv_len[i] < kv.stop:
            tiles[i - lo, kv_len[i] - kv.start:] = 0
    return tiles


def _per_item(positions: np.ndarray, items: int, length: int,
              name: str) -> np.ndarray:
    """``(length,)`` shared or ``(items, length)`` positions, as a
    ``(1, length)`` or ``(items, length)`` array."""
    positions = np.asarray(positions)
    if positions.shape not in ((length,), (items, length)):
        raise KernelError(f"{name} of shape {positions.shape} must match "
                          f"{items} items of length {length}")
    return positions.reshape(-1, length)


def attention_fp32_reference(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                             scale: Optional[float] = None,
                             q_positions: Optional[np.ndarray] = None,
                             k_positions: Optional[np.ndarray] = None) -> np.ndarray:
    """Conventional FP32 attention (the Table 5 baseline)."""
    q32 = np.asarray(q, dtype=np.float32)
    k32 = np.asarray(k, dtype=np.float32)
    v32 = np.asarray(v, dtype=np.float32)
    d = q32.shape[1]
    if scale is None:
        scale = 1.0 / float(np.sqrt(d))
    scores = q32 @ k32.T * np.float32(scale)
    if q_positions is not None and k_positions is not None:
        mask = np.asarray(q_positions)[:, None] < np.asarray(k_positions)[None, :]
        scores = np.where(mask, np.float32(-1e30), scores)
    scores = scores - scores.max(axis=1, keepdims=True)
    probs = np.exp(scores)
    probs = probs / probs.sum(axis=1, keepdims=True)
    return (probs @ v32).astype(np.float32)
