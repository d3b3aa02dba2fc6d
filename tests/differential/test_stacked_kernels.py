"""Stacked kernels vs the per-head and per-tile loops they replaced.

``HMXUnit.gemm`` runs every (m, n) tile product of a K step as one
stacked matmul, and ``FlashAttention`` runs a whole stack of (sequence,
head) items in one call.  The loops below are the one-tile-at-a-time
GEMM and the one-head-at-a-time attention those replaced, kept as
references.  Outputs must agree bit for bit (compared as raw bits, so
-0.0 against 0.0 is a mismatch) and every item must be charged exactly
the per-phase costs its own one-head call records.
"""

from typing import Dict

import numpy as np
import pytest

from repro.kernels.flash_attention import AttentionBreakdown, FlashAttention
from repro.kernels.gemm import MixedPrecisionGemm
from repro.kernels.softmax import (
    CALL_FIXED_PACKETS,
    LUT_ROW_EXPOSED_PACKETS,
    ROW_REDUCE_PACKETS,
)
from repro.npu.hmx import TILE_DIM, HMXUnit
from repro.npu.hvx import HVXContext, InstructionTrace, vectors_for_bytes
from repro.npu.memory import TCM
from repro.npu.timing import KernelCost
from repro.obs import trace as obs_trace

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
# reference: the per-tile GEMM loop
# ----------------------------------------------------------------------
def reference_gemm(trace: InstructionTrace, activations: np.ndarray,
                   weights: np.ndarray, out_dtype=np.float16) -> np.ndarray:
    hmx = HMXUnit(trace)
    a_pad = _pad(np.asarray(activations, dtype=np.float16))
    w_pad = _pad(np.asarray(weights, dtype=np.float16))
    m, n = activations.shape[0], weights.shape[1]
    out = np.zeros((a_pad.shape[0], w_pad.shape[1]), dtype=np.float32)
    for tm in range(a_pad.shape[0] // TILE_DIM):
        for tn in range(w_pad.shape[1] // TILE_DIM):
            acc = np.zeros((TILE_DIM, TILE_DIM), dtype=np.float32)
            for tk in range(a_pad.shape[1] // TILE_DIM):
                hmx.tile_mac(a_pad[tm * TILE_DIM:(tm + 1) * TILE_DIM,
                                   tk * TILE_DIM:(tk + 1) * TILE_DIM],
                             w_pad[tk * TILE_DIM:(tk + 1) * TILE_DIM,
                                   tn * TILE_DIM:(tn + 1) * TILE_DIM], acc)
            out[tm * TILE_DIM:(tm + 1) * TILE_DIM,
                tn * TILE_DIM:(tn + 1) * TILE_DIM] = acc
            trace.record("hmx_tile_out")
    return out[:m, :n].astype(out_dtype)


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
               (33, 100, 65), (64, 512, 96), (128, 96, 192)]
LAYOUTS = ["C", "F", "transposed-view"]


def _laid_out(matrix: np.ndarray, layout: str) -> np.ndarray:
    """``matrix`` stored C-order, F-order, or as a strided transposed view.

    BLAS rounds a tile product differently when a tile is stored
    transposed, so the stacked GEMM must keep the reference's layouts.
    """
    if layout == "F":
        return np.asfortranarray(matrix)
    if layout == "transposed-view":  # F-like strides, not contiguous
        rows, cols = matrix.shape
        backing = np.zeros((cols + 3, rows + 5), dtype=matrix.dtype)
        backing[:cols, :rows] = matrix.T
        return backing.T[:rows, :cols]
    return matrix


@pytest.mark.parametrize("m,k,n", GEMM_SHAPES)
@pytest.mark.parametrize("a_layout", LAYOUTS)
@pytest.mark.parametrize("w_layout", LAYOUTS)
@pytest.mark.parametrize("out_dtype", [np.float16, np.float32])
def test_stacked_gemm_matches_tile_loop(m, k, n, a_layout, w_layout,
                                        out_dtype):
    rng = np.random.default_rng([m, k, n])
    a = _laid_out(rng.normal(0, 1, (m, k)).astype(np.float16), a_layout)
    w = _laid_out(rng.normal(0, 0.1, (k, n)).astype(np.float16), w_layout)
    ref_trace, trace = InstructionTrace(), InstructionTrace()
    expected = reference_gemm(ref_trace, a, w, out_dtype)
    got = HMXUnit(trace).gemm(a, w, out_dtype=out_dtype)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert np.array_equal(_bits(got), _bits(expected))
    assert trace.as_dict() == ref_trace.as_dict()


def test_stacked_gemm_keeps_negative_zero_semantics():
    """An all-negative-zero product still accumulates to +0.0."""
    a = np.full((3, 32), -0.0, dtype=np.float16)
    w = np.ones((32, 32), dtype=np.float16)
    got = HMXUnit().gemm(a, w, out_dtype=np.float32)
    assert np.array_equal(_bits(got), _bits(reference_gemm(
        InstructionTrace(), a, w, np.float32)))


def test_gemm_stack_equals_per_matrix_gemms():
    rng = np.random.default_rng(3)
    a = rng.normal(0, 1, (5, 33, 48)).astype(np.float16)
    w = rng.normal(0, 1, (5, 48, 70)).astype(np.float16)
    stacked, single = HMXUnit(), HMXUnit()
    got = stacked.gemm(a, w)
    for i in range(5):
        assert np.array_equal(_bits(got[i]), _bits(single.gemm(a[i], w[i])))
    assert stacked.trace.as_dict() == single.trace.as_dict()


@pytest.mark.parametrize("bits", [4, 8])
@pytest.mark.parametrize("strategy", ["baseline", "hmx_layout", "ours"])
def test_mixed_precision_gemm_matches_tile_loop(bits, strategy):
    rng = np.random.default_rng(bits)
    kernel = MixedPrecisionGemm(strategy=strategy, bits=bits)
    prepared = kernel.prepare_weight(rng.normal(0, 0.05, (96, 160)))
    acts = rng.normal(0, 1, (3, 96)).astype(np.float16)
    out, _ = kernel(acts, prepared)
    expected = reference_gemm(InstructionTrace(), acts,
                              prepared.dequantized_matrix)
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
    """Stacked call vs one reference call per item; returns #items."""
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
    return len(kv_lengths)


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
