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
item exactly as a one-head call of its shape would.  The query heads of
a GQA group share their KV item, whose blocks are multiplied once for
the whole group.  Every key and value is widened to FP32 once per call,
and each block reads a view of it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import astuple, dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import KernelError
from ..obs import context as obs_context
from ..npu.hvx import HVXContext, InstructionTrace, vectors_for_bytes
from ..npu.hmx import HMXUnit, TILE_DIM, pad_to_tiles
from ..npu.memory import TCM
from ..npu.timing import (
    CALL_FIXED_PACKETS,
    LUT_ROW_EXPOSED_PACKETS,
    ROW_REDUCE_PACKETS,
    KernelCost,
)
from .lut import ExpLUT
from .softmax import EXP_METHODS, exp_lut, exp_poly16, exp_poly32

__all__ = [
    "AttentionBreakdown",
    "FlashAttention",
    "attention_fp32_reference",
]

_NEG_LIMIT = np.float16(-65504.0)  # most negative finite FP16
_PHASES = ("qk_matmul", "softmax", "pv_matmul", "rescale")

#: How many stack shapes a kernel keeps summed charges for; a waved
#: Best-of-16 decode meets about ten, and the oldest is dropped past the
#: limit.
STACK_COST_ENTRIES = 256


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
                 block_kv: int = TILE_DIM) -> None:
        if method not in EXP_METHODS:
            raise KernelError(f"unknown exp method {method!r}; expected {EXP_METHODS}")
        if block_kv % TILE_DIM:
            raise KernelError(
                f"KV block size must be a multiple of {TILE_DIM}, got "
                f"{block_kv}")
        self.method = method
        self.block_kv = block_kv
        self.qfloat_mode = qfloat_mode
        self._item_costs: Dict[Tuple[int, int, int], AttentionBreakdown] = {}
        self._stack_costs: Dict[Tuple[int, int, Tuple[int, ...], int],
                                Tuple[Tuple[int, ...], ...]] = {}
        # the engines of the compute path; calls are charged from
        # _item_cost, so nothing reads their traces
        self._hmx = HMXUnit()
        self._hvx = HVXContext(qfloat_mode)
        self._lut: Optional[ExpLUT] = None
        if method == "lut":
            if tcm is None:
                raise KernelError("LUT attention needs a TCM for the exp table")
            self._lut = ExpLUT(tcm)
            self._lut_words = self._lut.words

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
        ``vgather`` would form, with no charges recorded.  ``values``
        are scores less their row max, never positive, so the clamp
        :meth:`_exp` applies could only turn -0 into +0, and the offset
        drops the sign bit anyway.
        """
        if self._lut is None:
            return self._exp(self._hvx, values)
        return self._lut_words[values.view(np.uint16) & np.uint16(0x7FFF)]

    # ------------------------------------------------------------------
    def __call__(self, q: np.ndarray, k: np.ndarray, v: np.ndarray,
                 scale: Optional[float] = None,
                 q_positions: Optional[np.ndarray] = None,
                 k_positions: Optional[np.ndarray] = None,
                 kv_lengths: Optional[np.ndarray] = None
                 ) -> "tuple[np.ndarray, AttentionBreakdown]":
        """Attention over one head or a stack: ``softmax(Q K^T * scale) V``.

        ``q`` is ``(n_q, d)`` for one head or ``(items, n_q, d)`` for a
        stack of query heads; ``k``/``v`` are ``(n_kv, d)`` or
        ``(kv_items, n_kv, d)``.  A stack may hold fewer key/value items
        than query items, as grouped-query attention does: query item
        ``i`` reads KV item ``i // group``, where ``group = items //
        kv_items`` must divide evenly.  ``kv_lengths`` gives each KV
        item's number of real keys (all ``n_kv`` by default); keys past
        it are ignored, so one call covers caches of ragged lengths.
        Optional position arrays enable causal masking (a key is visible
        to a query iff ``k_pos <= q_pos``): ``q_positions`` is ``(n_q,)``
        shared by all items or ``(items, n_q)``, one row per query item;
        ``k_positions`` is ``(n_kv,)`` or ``(kv_items, n_kv)``, one row
        per KV item.  Returns the FP16 output, shaped like ``q``, and the
        per-phase cost breakdown summed over the query items.

        A group's query rows are stacked into one ``Q K^T`` and one
        ``P V`` product per KV item, so each key/value block is
        multiplied once, not once per query head, and the keys and values
        are widened once per call, not once per block.  Each query item
        still computes and is charged exactly as a one-head call on its
        KV item; a one-head call is a stack of one.  A traced call
        records one ``kernel.flash_attention`` span whose phase children
        carry the returned breakdown.
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
        kv_items, n_kv = k.shape[:2]
        if k.shape != v.shape or k.shape[2] != d \
                or not 0 < kv_items <= items or items % kv_items:
            raise KernelError(
                f"shape mismatch: q{q.shape}, k{k.shape}, v{v.shape} (query "
                f"items must be a whole multiple of key/value items)")
        group = items // kv_items
        q_rows = group * n_q  # query rows multiplied per KV item
        scale = np.float32(1.0 / math.sqrt(d) if scale is None else scale)
        kv_len = np.asarray(n_kv if kv_lengths is None else kv_lengths,
                            dtype=np.int64)
        lengths = kv_len.tolist() if kv_len.ndim else [int(kv_len)] * kv_items
        if kv_len.shape not in ((), (kv_items,)) \
                or min(lengths, default=0) < 0 \
                or max(lengths, default=0) > n_kv:
            raise KernelError(f"kv_lengths must be {kv_items} values in "
                              f"[0, {n_kv}], got {kv_len}")
        # query item i is row block i % group of KV item i // group
        q = q.reshape(kv_items, q_rows, d)
        causal = q_positions is not None and k_positions is not None
        if causal:
            q_positions = _per_item(q_positions, items, n_q, "q_positions")
            q_positions = (np.tile(q_positions, group) if len(q_positions) == 1
                           else q_positions.reshape(kv_items, q_rows))
            k_positions = _per_item(k_positions, kv_items, n_kv,
                                    "k_positions")

        # KV items run longest cache first, so the items taking part in
        # any KV block form a prefix of the stack
        item_rows = [-(-n // TILE_DIM) * TILE_DIM for n in lengths]
        order = sorted(range(kv_items), key=item_rows.__getitem__,
                       reverse=True)
        reordered = order != list(range(kv_items))
        if reordered:
            q = q[order]
            if causal:  # shared positions need no reordering
                if len(q_positions) > 1:
                    q_positions = q_positions[order]
                if len(k_positions) > 1:
                    k_positions = k_positions[order]
        kv_rows = [item_rows[i] for i in order]
        kv_len = [lengths[i] for i in order]
        rows = kv_rows[0] if kv_rows else 0  # the longest item's KV rows
        d_pad = -(-d // TILE_DIM) * TILE_DIM

        # keys and values widened to FP32 once per call, as the HMX pads
        # and widens them, in stack order: each item's rows up to its
        # length, the rest zero, as in a one-head call of that item.
        # Every KV block is a view
        keys = np.zeros((kv_items, rows, d_pad), dtype=np.float32)
        values = np.zeros((kv_items, rows, d_pad), dtype=np.float32)
        for lo, hi, source, n in _copies(order, kv_len):
            keys[lo:hi, :n, :d] = k[source:source + hi - lo, :n]
            values[lo:hi, :n, :d] = v[source:source + hi - lo, :n]
        # a score is masked where its key is past the item's length or,
        # with positions, in the query's future
        masked = (np.arange(rows)
                  >= np.array(kv_len)[:, np.newaxis])[:, np.newaxis, :]
        if causal:
            future = np.zeros((kv_items, q_rows, rows), dtype=bool)
            copied = min(n_kv, rows)
            future[..., :copied] = (q_positions[:, :, np.newaxis]
                                    < k_positions[:, np.newaxis, :copied])
            masked = masked | future

        # the query tiles widened once too, and P into zero rows past the
        # true queries
        q_tiles = pad_to_tiles(q.astype(np.float32, order="C"))
        p_tiles = np.zeros((kv_items, q_tiles.shape[1], self.block_kv),
                           dtype=np.float32)
        # running state of the true query rows only: the padded rows of a
        # query tile never reach the output.  Each FP16 rounding step of
        # Algorithm 1 is one ufunc computing in FP32 into an FP16 array
        scores = np.empty((kv_items, q_rows, self.block_kv), dtype=np.float16)
        out = np.zeros((kv_items, q_rows, d), dtype=np.float16)
        m = np.full((kv_items, q_rows), _NEG_LIMIT, dtype=np.float16)
        l = np.zeros((kv_items, q_rows), dtype=np.float16)

        for kv_start, width, lo, hi in _runs(kv_rows, self.block_kv):
            kv = slice(kv_start, kv_start + width)

            # --- S = Q K^T (HMX, FP32 accumulate, FP16 store) ----------
            # keys are multiplied as stored, transposed: BLAS rounds a
            # transposed tile differently, so the layout is part of the
            # numerics, and the HMX multiplies whole 32-row query tiles
            # here.  The vector side works on the true query rows only
            s = scores[lo:hi, :, :width]
            np.multiply(self._hmx.gemm(q_tiles[lo:hi],
                                       keys[lo:hi, kv].swapaxes(1, 2),
                                       np.float32, shape=(q_rows, d, width)),
                        scale, out=s)
            np.copyto(s, _NEG_LIMIT, where=masked[lo:hi, :, kv])

            # --- online softmax (FP16 with FP32 row sums) --------------
            m_old = m[lo:hi]
            new_m = np.maximum(m_old, np.maximum.reduce(s, axis=2))
            # the per-row rescale factor e^(m - m') is produced by the
            # scalar core fused into the rescale pass, so it carries no
            # vector charges; m <= m', so its exponent needs no clamp
            correction = np.exp(np.subtract(m_old, new_m, dtype=np.float32)
                                ).astype(np.float16)
            np.subtract(s, new_m[:, :, np.newaxis], dtype=np.float32, out=s)
            p = p_tiles[lo:hi, :, :width]
            p[:, :q_rows] = self._exp_values(s)
            row_sum = np.add.reduce(p[:, :q_rows], axis=2)  # FP32 (Alg. 1)
            np.add(np.multiply(correction, l[lo:hi], dtype=np.float32),
                   row_sum, out=l[lo:hi])
            m[lo:hi] = new_m

            # --- O = diag(correction) O + P V (HMX) ---------------------
            # P and V are row-major, so only the true query rows of P are
            # multiplied
            rescaled = np.multiply(out[lo:hi], correction[:, :, np.newaxis],
                                   dtype=np.float32)
            np.add(rescaled, self._hmx.gemm(p, values[lo:hi, kv], np.float32,
                                            shape=(q_rows, width, d)),
                   out=out[lo:hi])

        # --- final normalization O / l ---------------------------------
        denom = np.where(l > 0, l, np.float16(1.0))
        result = np.divide(out, denom[:, :, np.newaxis], dtype=np.float32,
                           out=out)
        if reordered:  # back to stack order
            result = result[sorted(range(kv_items), key=order.__getitem__)]
        result = result.reshape(items, n_q, d)

        breakdown = self._stack_cost(n_q, d_pad, tuple(kv_rows), group)
        tracer = obs_context.current().tracer
        if tracer.enabled:
            # one span per call, with one cost-only child per Algorithm 1
            # phase carrying the call's charges — the Fig. 8
            # decomposition, from the trace
            with tracer.span("kernel.flash_attention", category="kernel",
                             items=items, n_q=n_q, n_kv=n_kv, head_dim=d,
                             method=self.method,
                             flops=4.0 * n_q * d * group * sum(lengths)):
                for phase in _PHASES:
                    with tracer.span(f"kernel.attention.{phase}",
                                     category="kernel") as phase_span:
                        phase_span.add_cost(getattr(breakdown, phase)
                                            + KernelCost())
        return (result[0] if one_head else result), breakdown

    def _stack_cost(self, n_q: int, d_pad: int, kv_rows: Tuple[int, ...],
                    group: int) -> AttentionBreakdown:
        """Per-phase charges of a stack: the sum of its query items' charges.

        ``kv_rows`` holds each KV item's tile-padded rows, longest first,
        and ``group`` query items read each KV item.  The sum depends on
        these, ``n_q`` and ``d_pad`` alone, so the kernel keeps it per
        key, filled from :meth:`_item_cost`, and every call gets a fresh
        record.  The table keeps the :data:`STACK_COST_ENTRIES` latest
        keys.
        """
        key = (n_q, d_pad, kv_rows, group)
        total = self._stack_costs.get(key)
        if total is None:
            sums = AttentionBreakdown()
            for rows in kv_rows:
                cost = self._item_cost(n_q, rows, d_pad)
                for phase in _PHASES:
                    for _ in range(group):
                        getattr(sums, phase).merge(getattr(cost, phase))
            if len(self._stack_costs) >= STACK_COST_ENTRIES:
                del self._stack_costs[next(iter(self._stack_costs))]
            total = self._stack_costs[key] = tuple(
                astuple(getattr(sums, phase)) for phase in _PHASES)
        qk, softmax, pv, rescale = total
        return AttentionBreakdown(KernelCost(*qk), KernelCost(*softmax),
                                  KernelCost(*pv), KernelCost(*rescale))

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


def _copies(order: List[int], lengths: List[int]
            ) -> Iterator[Tuple[int, int, int, int]]:
    """``(lo, hi, source, n)``: stack items ``lo:hi`` are the input's
    items ``source:source + hi - lo``, each with ``n > 0`` keys.

    ``order`` lists the input item at each stack position, and
    ``lengths`` each stack item's length; a run of consecutive input
    items of one length (a sequence's KV heads) is copied at once.
    """
    lo = 0
    for i in range(1, len(order) + 1):
        if i == len(order) or order[i] != order[i - 1] + 1 \
                or lengths[i] != lengths[lo]:
            if lengths[lo]:
                yield lo, i, order[lo], lengths[lo]
            lo = i


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
