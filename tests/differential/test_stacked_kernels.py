"""Stacked kernels vs the per-head and per-tile loops they replaced.

``HMXUnit.gemm`` makes one matmul per K step (of the real rows, or of
every (m, n) tile pair), ``FlashAttention`` runs a whole stack of
(sequence, head) items in one call, its GQA groups sharing their KV
items, and ``MixedPrecisionGemm`` multiplies a fused q/k/v or gate/up
weight in one product.  The one-tile-at-a-time GEMM they replaced is
:func:`repro.testing.reference_gemm`, shared with the ``hmx`` oracle;
the one-head-at-a-time attention loop is kept below, and a fused weight
is held to calling its parts one by one.  Outputs must agree bit for
bit (compared as raw bits, so -0.0 against 0.0 is a mismatch) and every
item must be charged exactly the per-phase costs its own one-head call
records.
"""

import functools
from typing import Dict, List

import numpy as np
import pytest

from repro.kernels.dequant import DEQUANT_STRATEGIES
from repro.kernels.flash_attention import AttentionBreakdown, FlashAttention
from repro.kernels.gemm import FusedWeight, MixedPrecisionGemm
from repro.npu.hmx import TILE_DIM, HMXUnit, padded_fp32
from repro.npu.hvx import HVXContext, InstructionTrace, vectors_for_bytes
from repro.npu.memory import TCM
from repro.npu.timing import (
    CALL_FIXED_PACKETS,
    LUT_ROW_EXPOSED_PACKETS,
    ROW_REDUCE_PACKETS,
    KernelCost,
)
from repro.obs import MetricsRegistry, Tracer, scope
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
    FP16 output is its FP32 output cast), whose tile counts
    ``record_gemm`` charges."""
    rng = np.random.default_rng([m, k, n])
    a = laid_out(rng.normal(0, 1, (m, k)).astype(np.float16), a_layout)
    w = laid_out(rng.normal(0, 0.1, (k, n)).astype(np.float16), w_layout)
    ref_trace = InstructionTrace()
    reference = reference_gemm(ref_trace, a, w, np.float32)
    for out_dtype in (np.float16, np.float32):
        expected = reference.astype(out_dtype)
        for widened in (False, True):
            got = _gemm(HMXUnit(), a, w, widened, out_dtype)
            assert got.dtype == expected.dtype
            assert got.shape == expected.shape
            assert np.array_equal(_bits(got), _bits(expected))
    charged = InstructionTrace()
    HMXUnit(charged).record_gemm(m, k, n)
    assert charged.as_dict() == ref_trace.as_dict()


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
    # products are charged by the kernels' tables, never by gemm
    assert widened.trace.as_dict() == fp16.trace.as_dict() == {}


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
        single.record_gemm(33, 48, 70)
    stacked.record_gemm(33, 48, 70, 5)
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
# fused projections
# ----------------------------------------------------------------------
#: (k, widths) of the q/k/v and gate/up weights of the tiny model and of
#: the prefill.wide benchmark's model, and parts padded in between
FUSED_GROUPS = [(64, (64, 32, 32)), (64, (128, 128)),
                (512, (512, 128, 128)), (512, (1536, 1536)),
                (64, (33, 70))]
FUSED_M = [1, 2, 3, 4, 16, 31, 33, 64, 70]


@functools.lru_cache(maxsize=None)
def _fused_case(strategy, k, widths):
    """A fused weight, and each of its parts prepared on its own."""
    rng = np.random.default_rng([k, *widths])
    weights = [rng.normal(0, 0.05, (k, n)) for n in widths]
    kernel = MixedPrecisionGemm(strategy=strategy)
    return (kernel.prepare_fused(weights),
            [kernel.prepare_weight(w) for w in weights])


def _traced(call):
    """``call()``, with the spans and counters it recorded."""
    tracer, registry = Tracer(), MetricsRegistry()
    with scope(tracer=tracer, metrics=registry):
        result = call()
    spans = [(s.name, s.category, s.attrs, s.costs, s.parent)
             for s in tracer.finished_spans()]
    return result, spans, registry.snapshot()


def _fused_differs(strategy, fused, parts, m) -> List[str]:
    """What a traced call on ``fused`` records other than calling
    ``parts`` one by one: its output bits, cost, spans or counters."""
    acts = np.random.default_rng([m, 7]).normal(
        0, 1, (m, parts[0].quantized.original_shape[0])).astype(np.float16)

    def one_by_one():
        kernel, total = MixedPrecisionGemm(strategy=strategy), KernelCost()
        outputs = []
        for part in parts:
            output, cost = kernel(acts, part)
            outputs.append(output)
            total.merge(cost)
        return np.concatenate(outputs, axis=1), total

    got = _traced(lambda: MixedPrecisionGemm(strategy=strategy)(acts, fused))
    expected = _traced(one_by_one)
    (out, cost), spans, counters = got
    (ref_out, ref_cost), ref_spans, ref_counters = expected
    return [name for name, same in (
        ("output", out.shape == ref_out.shape
         and np.array_equal(_bits(out), _bits(ref_out))),
        ("cost", cost == ref_cost),
        ("spans", spans == ref_spans),
        ("counters", counters == ref_counters)) if not same]


@pytest.mark.parametrize("k,widths", FUSED_GROUPS,
                         ids=lambda g: "x".join(map(str, np.ravel(g))))
@pytest.mark.parametrize("m", FUSED_M)
@pytest.mark.parametrize("strategy", ["baseline", "hmx_layout", "ours",
                                      "no_dequant"])
def test_fused_projection_equals_per_part_calls(strategy, m, k, widths):
    fused, parts = _fused_case(strategy, k, widths)
    assert _fused_differs(strategy, fused, parts, m) == []


@pytest.mark.parametrize("strategy", DEQUANT_STRATEGIES)
def test_fused_weight_stores_each_part_once(strategy):
    """Each part's weight is a column view of the fused matrix, holding
    the bits of the part prepared on its own."""
    fused, parts = _fused_case(strategy, 64, (33, 70))
    assert fused.padded_fp32.flags.f_contiguous == (strategy == "baseline")
    start = 0
    for view, alone in zip(fused.parts, parts):
        assert view.padded_fp32.base is fused.padded_fp32
        assert view.padded_fp32.shape == alone.padded_fp32.shape
        assert np.array_equal(_bits(view.padded_fp32),
                              _bits(alone.padded_fp32))
        assert np.shares_memory(view.padded_fp32,
                                fused.padded_fp32[:, start:])
        assert view.dequantized_matrix.tobytes() == \
            alone.dequantized_matrix.tobytes()
        start += view.padded_fp32.shape[1]
    assert start == fused.padded_fp32.shape[1]


def test_fused_baseline_weight_in_c_order_fails():
    """The memory order is part of the numerics: ``baseline``'s fused
    weight stored in C order does not multiply as its parts do."""
    failing = []
    for k, widths in FUSED_GROUPS:
        fused, parts = _fused_case("baseline", k, widths)
        c_order = FusedWeight(
            parts=fused.parts,
            padded_fp32=np.ascontiguousarray(fused.padded_fp32))
        failing += [(k, widths, m) for m in FUSED_M if "output"
                    in _fused_differs("baseline", c_order, parts, m)]
    assert failing


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
    """Stacked call vs one reference call per query item, each on its KV
    item (``i // group``); returns the call's output and breakdown."""
    out, total = fa(q, k, v, q_positions=q_positions,
                    k_positions=k_positions, kv_lengths=kv_lengths)
    assert out.shape == q.shape and out.dtype == np.float16
    group = len(q) // len(k)
    expected_total = AttentionBreakdown()
    for i in range(len(q)):
        j = i // group
        n_kv = kv_lengths[j]
        causal = {} if q_positions is None else {
            "q_positions": np.asarray(q_positions)[i],
            "k_positions": np.asarray(k_positions)[:n_kv]}
        ref_out, ref_cost = reference_attention(fa, q[i], k[j, :n_kv],
                                                v[j, :n_kv], **causal)
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
@pytest.mark.parametrize("group", [2, 3, 8])
@pytest.mark.parametrize("n_q", [1, 5, 40])
def test_grouped_attention(method, group, n_q):
    """GQA stacks: query item i reads KV item i // group, ragged caches."""
    rng = np.random.default_rng([group, n_q])
    kv_lengths = [72, 40, 130, 40]
    fa = FlashAttention(method, tcm=TCM(), block_kv=64)
    q, _, _ = _items(rng, group * len(kv_lengths), n_q, kv_lengths, 64)
    _, k, v = _items(rng, len(kv_lengths), n_q, kv_lengths, 64)
    q_positions = np.repeat([np.arange(n - n_q, n) for n in kv_lengths],
                            group, axis=0)
    _check_stack(fa, q, k, v, kv_lengths, q_positions,
                 np.arange(max(kv_lengths)))


@pytest.mark.parametrize("group", [2, 4])
def test_grouped_non_causal_attention_with_empty_caches(group):
    rng = np.random.default_rng(group)
    kv_lengths = [50, 0, 7, 128]
    fa = FlashAttention("lut", tcm=TCM(), block_kv=64)
    q, _, _ = _items(rng, group * len(kv_lengths), 3, kv_lengths, 48)
    _, k, v = _items(rng, len(kv_lengths), 3, kv_lengths, 48)
    out, _ = _check_stack(fa, q, k, v, kv_lengths)
    assert not np.any(_bits(out[group:2 * group]))


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

    @pytest.mark.parametrize("group", [1, 3])
    def test_a_mutated_breakdown_does_not_reach_the_next_call(self, group):
        """The summed per-(n_q, d, KV rows, group) entry hands out fresh
        records, and the per-item entries it was summed from stay
        intact (``_check_stack`` holds each call to the reference)."""
        fa = FlashAttention("lut", tcm=TCM())
        q, k, v, lengths, q_pos, k_pos = self._stack(31)
        q = np.repeat(q, group, axis=0)
        q_pos = np.repeat(q_pos, group, axis=0)
        _, first = _check_stack(fa, q, k, v, lengths, q_pos, k_pos)
        for phase in _PHASES:
            getattr(first, phase).merge(getattr(first, phase))
        first.total().merge(first.qk_matmul)
        _, second = _check_stack(fa, q, k, v, lengths, q_pos, k_pos)
        assert all(getattr(second, phase) is not getattr(first, phase)
                   for phase in _PHASES)
        item = fa._item_cost(1, 64, 32)
        reference = reference_attention(fa, q[0], k[0, :40], v[0, :40],
                                        q_pos[0], k_pos[:40])[1]
        assert item == reference

    def test_stacks_of_one_kv_rows_and_other_groups_have_their_own(self):
        """The summed entries are keyed by group as well as KV rows."""
        fa = FlashAttention("lut", tcm=TCM())
        q, k, v, lengths, q_pos, k_pos = self._stack(41)
        costs = [_check_stack(fa, np.repeat(q, group, axis=0), k, v, lengths,
                              np.repeat(q_pos, group, axis=0), k_pos)[1]
                 for group in (1, 2, 1)]
        assert costs[0] != costs[1] and costs[0] == costs[2]

    def test_decode_and_prefill_stacks_of_equal_rows_have_their_own(self):
        fa = FlashAttention("lut", tcm=TCM())
        # a decode, a causal prefill of the same KV rows, the decode again
        costs = [_check_stack(fa, *self._stack(37, n_q))[1]
                 for n_q in (1, 8, 1)]
        assert costs[0] != costs[1] and costs[0] == costs[2]


@pytest.mark.parametrize("group", [1, 2])
def test_tracing_emits_one_span_tree_per_call(group):
    """A traced call is one ``kernel.flash_attention`` span whose phase
    children carry the returned breakdown, the sum of the items'
    one-head charges."""
    rng = np.random.default_rng(17)
    kv_lengths = [9, 72, 33, 9]
    fa = FlashAttention("lut", tcm=TCM())
    q, _, _ = _items(rng, group * len(kv_lengths), 1, kv_lengths, 16)
    _, k, v = _items(rng, len(kv_lengths), 1, kv_lengths, 16)
    tracer = Tracer(enabled=True)
    with scope(tracer=tracer):
        _, breakdown = fa(q, k, v, kv_lengths=kv_lengths)
    spans = tracer.finished_spans()
    (call,) = [s for s in spans if s.parent is None]
    assert call.name == "kernel.flash_attention"
    assert call.attrs["items"] == group * len(kv_lengths)
    assert call.attrs["flops"] == 4.0 * 16 * group * sum(kv_lengths)
    assert not call.costs
    children = [s for s in spans if s.parent == call.index]
    assert len(spans) == 1 + len(children)
    assert [s.name for s in children] == [f"kernel.attention.{phase}"
                                          for phase in _PHASES]
    assert [s.costs for s in children] == [[getattr(breakdown, phase)]
                                           for phase in _PHASES]
    expected = AttentionBreakdown()
    for i, n_kv in enumerate(np.repeat(kv_lengths, group).tolist()):
        j = i // group
        _, ref_cost = reference_attention(fa, q[i], k[j, :n_kv], v[j, :n_kv])
        for phase in _PHASES:
            getattr(expected, phase).merge(getattr(ref_cost, phase))
    assert breakdown == expected


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
