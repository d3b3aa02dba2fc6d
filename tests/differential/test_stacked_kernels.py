"""Stacked kernels vs the per-head and per-tile loops they replaced.

``HMXUnit.gemm`` makes one matmul per K step (of the real rows, or of
every (m, n) tile pair), and ``FlashAttention`` runs a whole stack of
(sequence, head) items in one call.  The one-tile-at-a-time GEMM they
replaced is :func:`repro.testing.reference_gemm`, shared with the
``hmx`` oracle; the one-head-at-a-time attention loop is kept below.
Outputs must agree bit for bit (compared as raw bits, so -0.0 against
0.0 is a mismatch) and every item must be charged exactly the
per-phase costs its own one-head call records.
"""

from typing import Dict

import numpy as np
import pytest

from repro.kernels.dequant import DEQUANT_STRATEGIES
from repro.kernels.flash_attention import AttentionBreakdown, FlashAttention
from repro.kernels.gemm import MixedPrecisionGemm
from repro.kernels.softmax import (
    CALL_FIXED_PACKETS,
    LUT_ROW_EXPOSED_PACKETS,
    ROW_REDUCE_PACKETS,
)
from repro.npu.hmx import TILE_DIM, HMXUnit, padded_fp32
from repro.npu.hvx import HVXContext, InstructionTrace, vectors_for_bytes
from repro.npu.memory import TCM
from repro.npu.timing import KernelCost
from repro.obs import trace as obs_trace
from repro.quant.tile_quant import dequantize_weight
from repro.testing import HMX_LAYOUTS, laid_out, reference_gemm

_NEG_LIMIT = np.float16(-65504.0)
_PHASES = ("qk_matmul", "softmax", "pv_matmul", "rescale")

# the polynomial exponentials overflow on masked (-65504) scores, in the
# kernel and the reference alike
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _bits(array: np.ndarray) -> np.ndarray:
    array = np.ascontiguousarray(array)
    return array.view({2: np.uint16, 4: np.uint32}[array.dtype.itemsize])


def _pad(matrix: np.ndarray) -> np.ndarray:
    rows, cols = matrix.shape
    if rows % TILE_DIM == 0 and cols % TILE_DIM == 0:
        return matrix
    return np.pad(matrix, ((0, -rows % TILE_DIM), (0, -cols % TILE_DIM)))


# ----------------------------------------------------------------------
# reference: the one-head attention loop
# ----------------------------------------------------------------------
def reference_attention(fa: FlashAttention, q, k, v, q_positions=None,
                        k_positions=None):
    """One head, one block at a time, with every charge recorded inline."""
    q = np.asarray(q, dtype=np.float16)
    k = np.asarray(k, dtype=np.float16)
    v = np.asarray(v, dtype=np.float16)
    n_q, d = q.shape
    n_kv = k.shape[0]
    scale = 1.0 / float(np.sqrt(d))
    causal = q_positions is not None
    traces: Dict[str, InstructionTrace] = {p: InstructionTrace()
                                           for p in _PHASES}
    q_pad, k_pad, v_pad = _pad(q), _pad(k), _pad(v)
    n_q_pad, n_kv_pad = q_pad.shape[0], k_pad.shape[0]
    out = np.zeros((n_q_pad, v_pad.shape[1]), dtype=np.float16)
    m = np.full(n_q_pad, _NEG_LIMIT, dtype=np.float16)
    l = np.zeros(n_q_pad, dtype=np.float16)
    n_blocks = -(-n_kv_pad // fa.block_kv)
    hvx_soft = HVXContext(fa.qfloat_mode, traces["softmax"])
    hvx_rescale = HVXContext(fa.qfloat_mode, traces["rescale"])
    for kv_start in range(0, n_kv_pad, fa.block_kv):
        kv_end = min(kv_start + fa.block_kv, n_kv_pad)
        k_blk, v_blk = k_pad[kv_start:kv_end], v_pad[kv_start:kv_end]
        s = reference_gemm(traces["qk_matmul"], q_pad, k_blk.T, np.float32)
        s = (s * np.float32(scale)).astype(np.float16)
        valid_elems = n_q * s.shape[1]
        hvx_soft.trace.record("vmpy_hf", vectors_for_bytes(valid_elems * 2))
        valid = np.arange(kv_start, kv_end) < n_kv
        s[:, ~valid] = _NEG_LIMIT
        if causal:
            kv_pos = np.full(kv_end - kv_start, np.iinfo(np.int64).max)
            kv_pos[valid] = np.asarray(k_positions)[
                np.arange(kv_start, kv_end)[valid]]
            q_pos = np.full(n_q_pad, np.iinfo(np.int64).max)
            q_pos[:n_q] = np.asarray(q_positions)
            s[q_pos[:, None] < kv_pos[None, :]] = _NEG_LIMIT
        block_max = s.max(axis=1).astype(np.float16)
        hvx_soft.trace.record("vmax_hf", vectors_for_bytes(valid_elems * 2))
        new_m = np.maximum(m, block_max)
        with np.errstate(over="ignore"):
            correction = np.exp(np.minimum(
                m.astype(np.float32) - new_m.astype(np.float32), 0.0)
            ).astype(np.float16)
        p = np.zeros_like(s)
        shifted = (s[:n_q].astype(np.float32)
                   - new_m[:n_q].astype(np.float32)[:, None]).astype(np.float16)
        p[:n_q] = fa._exp(hvx_soft, shifted)
        hvx_soft.trace.record("vsub_hf", vectors_for_bytes(valid_elems * 2))
        row_sum = p.astype(np.float32).sum(axis=1)
        hvx_soft.trace.record("vadd_qf32", vectors_for_bytes(valid_elems * 4))
        overhead = ROW_REDUCE_PACKETS
        if fa.method == "lut":
            overhead += LUT_ROW_EXPOSED_PACKETS
        hvx_soft.trace.record("stall", max(1, n_q * overhead // n_blocks))
        l = (correction.astype(np.float32) * l.astype(np.float32)
             + row_sum).astype(np.float16)
        m = new_m
        out = out.astype(np.float32) * correction.astype(np.float32)[:, None]
        hvx_rescale.trace.record("vmpy_hf", vectors_for_bytes(out.size * 2))
        pv = reference_gemm(traces["pv_matmul"], p, v_blk, np.float32)
        out = (out + pv.astype(np.float32)).astype(np.float16)
        hvx_rescale.trace.record("vadd_hf", vectors_for_bytes(out.size * 2))
    denom = l.astype(np.float32)
    denom = np.where(denom > 0, denom, 1.0)
    out = (out.astype(np.float32) / denom[:, None]).astype(np.float16)
    hvx_rescale.trace.record("vmpy_hf", vectors_for_bytes(out.size * 2))
    hvx_rescale.trace.record("stall", CALL_FIXED_PACKETS)
    breakdown = AttentionBreakdown(**{
        phase: KernelCost.from_trace(trace) for phase, trace in traces.items()})
    return out[:n_q, :v.shape[1]], breakdown


# ----------------------------------------------------------------------
# GEMM
# ----------------------------------------------------------------------
GEMM_SHAPES = [(1, 16, 16), (1, 64, 96), (4, 64, 192), (5, 40, 33),
               (31, 96, 160), (32, 64, 96), (33, 100, 65), (64, 512, 96),
               (128, 96, 192),
               # the prefill.wide benchmark's decode and prefill projections
               (2, 512, 512), (2, 512, 1536), (2, 1536, 512),
               (64, 512, 1536)]


def _gemm(hmx: HMXUnit, a: np.ndarray, w: np.ndarray, widened: bool,
          out_dtype=np.float16) -> np.ndarray:
    """``hmx.gemm(a, w)``, or its operands padded and widened first."""
    if not widened:
        return hmx.gemm(a, w, out_dtype=out_dtype)
    shape = a.shape[-2:] + w.shape[-1:]
    return hmx.gemm(padded_fp32(a), padded_fp32(w), out_dtype=out_dtype,
                    shape=shape)


@pytest.mark.parametrize("m,k,n", GEMM_SHAPES)
@pytest.mark.parametrize("a_layout", HMX_LAYOUTS)
@pytest.mark.parametrize("w_layout", HMX_LAYOUTS)
def test_stacked_gemm_matches_tile_loop(m, k, n, a_layout, w_layout):
    """Both entries, FP16 and FP32 out, against one tile-loop run (its
    FP16 output is its FP32 output cast)."""
    rng = np.random.default_rng([m, k, n])
    a = laid_out(rng.normal(0, 1, (m, k)).astype(np.float16), a_layout)
    w = laid_out(rng.normal(0, 0.1, (k, n)).astype(np.float16), w_layout)
    ref_trace = InstructionTrace()
    reference = reference_gemm(ref_trace, a, w, np.float32)
    for out_dtype in (np.float16, np.float32):
        expected = reference.astype(out_dtype)
        for widened in (False, True):
            trace = InstructionTrace()
            got = _gemm(HMXUnit(trace), a, w, widened, out_dtype)
            assert got.dtype == expected.dtype
            assert got.shape == expected.shape
            assert np.array_equal(_bits(got), _bits(expected))
            assert trace.as_dict() == ref_trace.as_dict()


@pytest.mark.parametrize("m,k,n", GEMM_SHAPES)
@pytest.mark.parametrize("a_layout", HMX_LAYOUTS)
@pytest.mark.parametrize("w_layout", HMX_LAYOUTS)
def test_widened_stack_matches_the_fp16_stack(m, k, n, a_layout, w_layout):
    """Pre-widened stacks multiply as their FP16 stacks do, per layout.

    (A stack need not match its matrices one by one: an F-ordered stack
    reaches BLAS with other strides than its slices do.)
    """
    rng = np.random.default_rng([m, k, n, 3])
    a = laid_out(rng.normal(0, 1, (3, m, k)).astype(np.float16), a_layout)
    w = laid_out(rng.normal(0, 0.1, (3, k, n)).astype(np.float16),
                 w_layout)
    fp16, widened = HMXUnit(), HMXUnit()
    expected = _gemm(fp16, a, w, widened=False)
    got = _gemm(widened, a, w, widened=True)
    assert got.shape == (3, m, n)
    assert np.array_equal(_bits(got), _bits(expected))
    assert widened.trace.as_dict() == fp16.trace.as_dict()


def test_stacked_gemm_keeps_negative_zero_semantics():
    """An all-negative-zero product still accumulates to +0.0."""
    a = np.full((3, 32), -0.0, dtype=np.float16)
    w = np.ones((32, 32), dtype=np.float16)
    got = HMXUnit().gemm(a, w, out_dtype=np.float32)
    assert np.array_equal(_bits(got), _bits(reference_gemm(
        InstructionTrace(), a, w, np.float32)))


@pytest.mark.parametrize("widened", [False, True])
def test_gemm_stack_equals_per_matrix_gemms(widened):
    rng = np.random.default_rng(3)
    a = rng.normal(0, 1, (5, 33, 48)).astype(np.float16)
    w = rng.normal(0, 1, (5, 48, 70)).astype(np.float16)
    stacked, single = HMXUnit(), HMXUnit()
    got = _gemm(stacked, a, w, widened)
    for i in range(5):
        assert np.array_equal(_bits(got[i]), _bits(single.gemm(a[i], w[i])))
    assert stacked.trace.as_dict() == single.trace.as_dict()


@pytest.mark.parametrize("width", [33, 64, 70])
@pytest.mark.parametrize("m", [1, 4, 16, 33])
@pytest.mark.parametrize("bits", [4, 8])
@pytest.mark.parametrize("strategy", DEQUANT_STRATEGIES)
def test_mixed_precision_gemm_matches_tile_loop(strategy, bits, m, width):
    """The stored FP32 weight multiplies bit for bit like its FP16 matrix.

    Conventional groups run down whole columns, so ``baseline`` weights
    keep 64 rows; the tile-group strategies pad both dimensions.  Width
    64 is a weight that needs no padding.
    """
    rng = np.random.default_rng([bits, m, width])
    kernel = MixedPrecisionGemm(strategy=strategy, bits=bits)
    k = 64 if strategy == "baseline" else width
    prepared = kernel.prepare_weight(rng.normal(0, 0.05, (k, width)))
    stored = prepared.padded_fp32
    assert stored.dtype == np.float32 and stored.shape == (
        -(-k // TILE_DIM) * TILE_DIM, -(-width // TILE_DIM) * TILE_DIM)
    if strategy == "baseline":
        assert stored.flags.f_contiguous and not stored.flags.c_contiguous
    else:
        assert stored.flags.c_contiguous and not stored.flags.f_contiguous
    matrix = dequantize_weight(prepared.quantized)
    derived = prepared.dequantized_matrix
    assert derived.tobytes() == matrix.tobytes()
    assert derived.strides == matrix.strides
    acts = rng.normal(0, 1, (m, k)).astype(np.float16)
    expected = reference_gemm(InstructionTrace(), acts, matrix)
    for _ in range(2):  # the second call is charged from the table
        out, _ = kernel(acts, prepared)
        if strategy == "no_dequant":  # computes nothing, by design
            assert np.array_equal(_bits(out), _bits(np.zeros_like(expected)))
            out = HMXUnit().gemm(padded_fp32(acts), stored,
                                 shape=(m, k, width))
        assert np.array_equal(_bits(out), _bits(expected))


# ----------------------------------------------------------------------
# attention
# ----------------------------------------------------------------------
def _items(rng, n_items, n_q, kv_lengths, d):
    n_kv = max(kv_lengths)
    q = rng.normal(0, 1.5, (n_items, n_q, d)).astype(np.float16)
    k = rng.normal(0, 1.5, (n_items, n_kv, d)).astype(np.float16)
    v = rng.normal(0, 1, (n_items, n_kv, d)).astype(np.float16)
    return q, k, v


def _check_stack(fa, q, k, v, kv_lengths, q_positions=None,
                 k_positions=None):
    """Stacked call vs one reference call per item; returns the call's
    output and breakdown."""
    out, total = fa(q, k, v, q_positions=q_positions,
                    k_positions=k_positions, kv_lengths=kv_lengths)
    assert out.shape == q.shape and out.dtype == np.float16
    expected_total = AttentionBreakdown()
    for i, n_kv in enumerate(kv_lengths):
        causal = {} if q_positions is None else {
            "q_positions": np.asarray(q_positions)[i],
            "k_positions": np.asarray(k_positions)[:n_kv]}
        ref_out, ref_cost = reference_attention(fa, q[i], k[i, :n_kv],
                                                v[i, :n_kv], **causal)
        assert np.array_equal(_bits(out[i]), _bits(ref_out)), f"item {i}"
        for phase in _PHASES:
            getattr(expected_total, phase).merge(getattr(ref_cost, phase))
    assert total == expected_total
    return out, total


@pytest.mark.parametrize("method", ["lut", "poly16", "poly32"])
@pytest.mark.parametrize("qfloat_mode", ["qfloat", "ieee"])
@pytest.mark.parametrize("block_kv", [32, 64, 96])
@pytest.mark.parametrize("d", [16, 64, 80])
def test_stacked_decode_attention(method, qfloat_mode, block_kv, d):
    """n_q = 1 against ragged caches, some ending blocks early."""
    rng = np.random.default_rng([d, block_kv])
    kv_lengths = [9, 72, 33, 1, 64, 130, 96, 40]
    fa = FlashAttention(method, tcm=TCM(), qfloat_mode=qfloat_mode,
                        block_kv=block_kv)
    q, k, v = _items(rng, len(kv_lengths), 1, kv_lengths, d)
    q_positions = np.array([[n - 1] for n in kv_lengths])
    _check_stack(fa, q, k, v, kv_lengths, q_positions,
                 np.arange(max(kv_lengths)))


@pytest.mark.parametrize("method", ["lut", "poly16", "poly32"])
@pytest.mark.parametrize("block_kv", [32, 64, 96])
@pytest.mark.parametrize("d", [16, 64, 80])
def test_stacked_causal_prefill_attention(method, block_kv, d):
    """Causal n_q > 1: chunks whose keys start before their queries."""
    rng = np.random.default_rng([d, block_kv, 1])
    n_q = 40
    kv_lengths = [40, 104, 72, 40]
    fa = FlashAttention(method, tcm=TCM(), block_kv=block_kv)
    q, k, v = _items(rng, len(kv_lengths), n_q, kv_lengths, d)
    q_positions = np.array([np.arange(n - n_q, n) for n in kv_lengths])
    _check_stack(fa, q, k, v, kv_lengths, q_positions,
                 np.arange(max(kv_lengths)))


@pytest.mark.parametrize("method", ["lut", "poly16", "poly32"])
def test_stacked_non_causal_attention(method):
    rng = np.random.default_rng(11)
    kv_lengths = [50, 7, 128, 50]
    fa = FlashAttention(method, tcm=TCM(), block_kv=64)
    q, k, v = _items(rng, len(kv_lengths), 3, kv_lengths, 48)
    _check_stack(fa, q, k, v, kv_lengths)


@pytest.mark.parametrize("method", ["lut", "poly32"])
def test_rows_that_see_no_key_match(method):
    """Every key in a query's future: padded keys must still be zeros."""
    rng = np.random.default_rng(13)
    kv_lengths = [40, 7, 70]
    fa = FlashAttention(method, tcm=TCM())
    q, k, v = _items(rng, len(kv_lengths), 2, kv_lengths, 16)
    _check_stack(fa, q, k, v, kv_lengths, np.array([[0, 1]] * 3),
                 np.arange(max(kv_lengths)) + 5)


@pytest.mark.parametrize("method", ["lut", "poly16", "poly32"])
@pytest.mark.parametrize("causal", [False, True])
def test_zero_length_items_return_zeros(method, causal):
    """Empty caches at the tail of a stack: zeros, charged as a reference."""
    rng = np.random.default_rng([19, causal])
    kv_lengths = [40, 9, 72, 0, 0]
    fa = FlashAttention(method, tcm=TCM(), block_kv=64)
    q, k, v = _items(rng, len(kv_lengths), 1, kv_lengths, 16)
    positions = ((np.array([[n - 1] for n in kv_lengths]),
                  np.arange(max(kv_lengths))) if causal else ())
    out, _ = _check_stack(fa, q, k, v, kv_lengths, *positions)
    assert not np.any(_bits(out[3:]))


def test_consecutive_calls_on_one_kernel_carry_no_state():
    """Other item counts, n_q, head dims and block widths, call after call."""
    rng = np.random.default_rng(23)
    fa = FlashAttention("lut", tcm=TCM(), block_kv=64)
    for n_q, kv_lengths, d in [(1, [9, 130, 64, 33] * 4, 64),
                               (40, [40, 104], 80),
                               (1, [96, 1, 0], 16),
                               (3, [50, 7, 128], 64),
                               (33, [70, 33, 64], 64),
                               (1, [200], 64)]:
        q, k, v = _items(rng, len(kv_lengths), n_q, kv_lengths, d)
        q_positions = np.array([np.arange(n - n_q, n) for n in kv_lengths])
        _check_stack(fa, q, k, v, kv_lengths, q_positions,
                     np.arange(max(kv_lengths)))


class TestStackCharges:
    """Each stack is charged from a memo on the kernel.

    The memo is keyed by (n_q, padded head dim, sorted tile-padded KV
    rows) and filled from the per-item charges; ``_check_stack`` holds
    every call to the per-item reference sum.
    """

    KV_LENGTHS = [40, 72, 9, 33]  # 64, 96, 32 and 64 tile-padded rows

    def _stack(self, seed, n_q=1, order=(0, 1, 2, 3)):
        """Four items of ``n_q`` causal queries, in stack ``order``."""
        order = list(order)
        q, k, v = _items(np.random.default_rng(seed), 4, n_q,
                         self.KV_LENGTHS, 16)
        lengths = [self.KV_LENGTHS[i] for i in order]
        positions = np.array([np.arange(n - n_q, n) for n in lengths])
        return (q[order], k[order], v[order], lengths, positions,
                np.arange(max(lengths)))

    def test_first_call_and_repeats_equal_the_reference(self):
        fa = FlashAttention("lut", tcm=TCM())
        stack = self._stack(29)
        _, first = _check_stack(fa, *stack)  # fills the memo
        _, second = _check_stack(fa, *stack)  # reads it
        # the same rows in another stack order are the same charges
        _, permuted = _check_stack(fa, *self._stack(29, order=(2, 0, 3, 1)))
        assert first == second == permuted

    def test_a_mutated_breakdown_does_not_reach_the_next_call(self):
        fa = FlashAttention("lut", tcm=TCM())
        stack = self._stack(31)
        _, first = _check_stack(fa, *stack)
        for phase in _PHASES:
            getattr(first, phase).merge(getattr(first, phase))
        _, second = _check_stack(fa, *stack)
        assert all(getattr(second, phase) is not getattr(first, phase)
                   for phase in _PHASES)

    def test_decode_and_prefill_stacks_of_equal_rows_have_their_own(self):
        fa = FlashAttention("lut", tcm=TCM())
        # a decode, a causal prefill of the same KV rows, the decode again
        costs = [_check_stack(fa, *self._stack(37, n_q))[1]
                 for n_q in (1, 8, 1)]
        assert costs[0] != costs[1] and costs[0] == costs[2]


def test_tracing_emits_one_span_tree_per_item_in_stack_order():
    rng = np.random.default_rng(17)
    kv_lengths = [9, 72, 33, 9]
    fa = FlashAttention("lut", tcm=TCM())
    q, k, v = _items(rng, len(kv_lengths), 1, kv_lengths, 16)
    tracer = obs_trace.Tracer(enabled=True)
    previous = obs_trace.set_tracer(tracer)
    try:
        fa(q, k, v, kv_lengths=kv_lengths)
    finally:
        obs_trace.set_tracer(previous)
    spans = tracer.finished_spans()
    items = [s for s in spans if s.name == "kernel.flash_attention"]
    assert [s.attrs["n_kv"] for s in items] == kv_lengths
    for i, (span, n_kv) in enumerate(zip(items, kv_lengths)):
        _, ref_cost = reference_attention(fa, q[i], k[i, :n_kv], v[i, :n_kv])
        children = [s for s in spans if s.parent == span.index]
        assert [s.name for s in children] == [f"kernel.attention.{phase}"
                                              for phase in _PHASES]
        assert [s.costs for s in children] == [[getattr(ref_cost, phase)]
                                               for phase in _PHASES]


def test_one_head_call_is_a_stack_of_one():
    rng = np.random.default_rng(5)
    q, k, v = _items(rng, 1, 6, [70], 64)
    fa = FlashAttention("lut", tcm=TCM())
    pos = np.arange(64, 70), np.arange(70)
    out, cost = fa(q[0], k[0], v[0], q_positions=pos[0], k_positions=pos[1])
    ref_out, ref_cost = reference_attention(fa, q[0], k[0], v[0], *pos)
    assert out.shape == (6, 64)
    assert np.array_equal(_bits(out), _bits(ref_out))
    assert cost == ref_cost
