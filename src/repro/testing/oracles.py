"""Differential oracles: paired execution with structured mismatch reports.

Every accuracy claim in the reproduction reduces to the same shape of
argument: *run the same workload under two configurations and show the
outputs agree* — HMX-simulated kernels against a float64 numpy
reference, paged KV decode against contiguous decode, a chaos run with
an empty fault plan against no resilience layer at all, speculative
decode against plain greedy decode.  Before this module each of those
pairings was a hand-written test; this module turns the pattern into
infrastructure.

An :class:`Oracle` packages one pairing: it knows how to *sample* a
random configuration from a seeded RNG, how to *run* the pair for a
concrete configuration, and how to *shrink* a failing configuration
toward a minimal reproduction.  Running returns an
:class:`OracleResult` whose :class:`MismatchRecord` carries enough
structure (bitwise/ULP array diffs, token divergence position, cost
deltas) to debug the failure from the record alone.

Configurations are flat ``{str: int | str}`` dicts so they round-trip
losslessly through the canonical repro strings of
:mod:`repro.testing.fuzz` — a run is a pure function of its config, so
replaying a repro string reproduces the exact trial.

Tolerance discipline (calibrated against the seed implementation):

* ``gemm`` — the HMX pipeline (FP16 operands, FP32 tile accumulation,
  FP16 store) is held to its derived error bound: 2 FP16 ULP of the
  float64 reference plus the FP32 summation term
  ``gamma_n * sum_i |a_i * w_ij|`` (see :class:`GemmOracle`).
* ``attention`` — the pluggable exponent (``lut``/``poly16``/``poly32``)
  is an approximation, so the oracle checks a 0.01 absolute ceiling
  (~5x the worst calibrated error of 0.002) rather than ULPs.
* everything else is **bitwise**: ``hmx`` holds ``HMXUnit.gemm`` to
  the tile-by-tile loop (:func:`reference_gemm`), ``tile_quant`` holds
  one-pass tile groups to :func:`hmx_order_tile_groups`, and the engine
  oracles require identical tokens and identical
  :class:`~repro.llm.model.StepCost` records.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..errors import TestingError

__all__ = [
    "ArrayDiff",
    "MismatchRecord",
    "OracleResult",
    "Oracle",
    "ORACLES",
    "register_oracle",
    "get_oracle",
    "diff_arrays",
    "ulp_distance_fp16",
    "reference_gemm",
    "recorded_gemm_cost",
    "hmx_order_tile_groups",
    "laid_out",
    "HMX_LAYOUTS",
]

ConfigValue = Union[int, str]
Config = Dict[str, ConfigValue]

GEMM_ULP_TOLERANCE = 2
FP32_UNIT_ROUNDOFF = 2.0 ** -24
ATTENTION_ABS_TOLERANCE = 0.01


# ----------------------------------------------------------------------
# structured diffs
# ----------------------------------------------------------------------
def ulp_distance_fp16(actual: np.ndarray, expected: np.ndarray) -> np.ndarray:
    """Elementwise ULP distance between two arrays, compared as FP16.

    FP16 bit patterns map monotonically onto integers (sign-magnitude
    folded into two's complement), so the ULP distance is the absolute
    difference of the mapped integers — 0 means bitwise equal.
    """
    def ordered(x: np.ndarray) -> np.ndarray:
        bits = np.asarray(x, dtype=np.float16).view(np.int16).astype(np.int64)
        return np.where(bits < 0, -(bits & 0x7FFF), bits)

    return np.abs(ordered(actual) - ordered(expected))


@dataclass(frozen=True)
class ArrayDiff:
    """Summary of where and by how much two arrays disagree."""

    shape: Tuple[int, ...]
    n_diff: int
    max_abs: float
    max_ulp: int
    first_index: Optional[Tuple[int, ...]] = None

    @property
    def bitwise_equal(self) -> bool:
        return self.n_diff == 0

    def to_json(self) -> Dict:
        return {"shape": list(self.shape), "n_diff": self.n_diff,
                "max_abs": self.max_abs, "max_ulp": self.max_ulp,
                "first_index": list(self.first_index)
                if self.first_index is not None else None}


def diff_arrays(actual: np.ndarray, expected: np.ndarray) -> ArrayDiff:
    """Structured comparison of two numeric arrays of the same shape."""
    a = np.asarray(actual)
    e = np.asarray(expected)
    if a.shape != e.shape:
        raise TestingError(
            f"cannot diff arrays of shapes {a.shape} and {e.shape}")
    mismatch = a.astype(np.float64) != e.astype(np.float64)
    n_diff = int(mismatch.sum())
    if n_diff == 0:
        return ArrayDiff(shape=a.shape, n_diff=0, max_abs=0.0, max_ulp=0)
    abs_diff = np.abs(a.astype(np.float64) - e.astype(np.float64))
    first = tuple(int(i) for i in np.argwhere(mismatch)[0])
    max_ulp = int(ulp_distance_fp16(a, e).max()) \
        if a.dtype == np.float16 or e.dtype == np.float16 else 0
    return ArrayDiff(shape=a.shape, n_diff=n_diff,
                     max_abs=float(abs_diff.max()), max_ulp=max_ulp,
                     first_index=first)


@dataclass(frozen=True)
class MismatchRecord:
    """One oracle failure, structured enough to debug from the record.

    ``kind`` names what diverged: ``"ulp"``/``"abs"`` for numeric
    kernel comparisons, ``"tokens"`` for sampled-token divergence,
    ``"cost"`` for :class:`StepCost` records, ``"state"`` for
    checkpoint/weight round-trip state.
    """

    oracle: str
    kind: str
    message: str
    config: Config = field(default_factory=dict)
    diff: Optional[ArrayDiff] = None

    def to_json(self) -> Dict:
        return {"oracle": self.oracle, "kind": self.kind,
                "message": self.message, "config": dict(self.config),
                "diff": self.diff.to_json() if self.diff else None}


@dataclass
class OracleResult:
    """Outcome of one paired execution."""

    oracle: str
    config: Config
    ok: bool
    mismatch: Optional[MismatchRecord] = None
    notes: Dict[str, float] = field(default_factory=dict)

    @property
    def repro(self) -> str:
        from .fuzz import format_repro
        return format_repro(self.oracle, self.config)


# ----------------------------------------------------------------------
# oracle base + registry
# ----------------------------------------------------------------------
class Oracle:
    """One paired-execution check over a seeded configuration space.

    Subclasses set :attr:`name`, the integer ranges
    (:attr:`SHRINK_MINS`) and categorical canonical values
    (:attr:`SHRINK_RESETS`) used by the generic shrinker, and implement
    :meth:`sample_config` and :meth:`run`.  ``run`` must be a pure
    function of the config dict — all randomness derives from seeds
    stored *in* the config, never from ambient state.
    """

    name: str = ""
    description: str = ""
    #: integer config keys the shrinker may reduce, with their minima
    SHRINK_MINS: Dict[str, int] = {}
    #: categorical config keys with the value the shrinker resets toward
    SHRINK_RESETS: Dict[str, ConfigValue] = {}

    def sample_config(self, rng: np.random.Generator) -> Config:
        raise NotImplementedError

    def run(self, config: Config) -> OracleResult:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def normalize(self, config: Config) -> Config:
        """Repair cross-key constraints after a shrink move (identity
        by default)."""
        return config

    def shrink_steps(self, config: Config) -> Iterator[Config]:
        """Candidate simplifications of ``config``, most aggressive first.

        Categorical resets come before integer reductions so a failure
        that survives on the canonical variant is reported there; each
        integer key tries its minimum, the halfway point, then a
        decrement.
        """
        seen = set()

        def propose(cand: Config) -> Iterator[Config]:
            cand = self.normalize(dict(cand))
            key = tuple(sorted(cand.items()))
            if cand != config and key not in seen:
                seen.add(key)
                yield cand

        for name, canonical in self.SHRINK_RESETS.items():
            if config.get(name) != canonical:
                yield from propose({**config, name: canonical})
        for name, lo in self.SHRINK_MINS.items():
            value = int(config.get(name, lo))
            if value <= lo:
                continue
            yield from propose({**config, name: lo})
            yield from propose({**config, name: (value + lo) // 2})
            yield from propose({**config, name: value - 1})

    def _check_config(self, config: Config) -> None:
        missing = [k for k in self.SHRINK_MINS if k not in config]
        missing += [k for k in self.SHRINK_RESETS if k not in config]
        if missing:
            raise TestingError(
                f"oracle {self.name!r} config is missing keys "
                f"{sorted(missing)}; got {sorted(config)}")

    # result constructors -------------------------------------------------
    def passed(self, config: Config, **notes: float) -> OracleResult:
        return OracleResult(oracle=self.name, config=dict(config), ok=True,
                            notes=notes)

    def failed(self, config: Config, kind: str, message: str,
               diff: Optional[ArrayDiff] = None,
               **notes: float) -> OracleResult:
        record = MismatchRecord(oracle=self.name, kind=kind, message=message,
                                config=dict(config), diff=diff)
        return OracleResult(oracle=self.name, config=dict(config), ok=False,
                            mismatch=record, notes=notes)


ORACLES: Dict[str, Oracle] = {}


def register_oracle(cls):
    """Class decorator: instantiate and add to the global registry."""
    oracle = cls()
    if not oracle.name:
        raise TestingError(f"oracle class {cls.__name__} has no name")
    if oracle.name in ORACLES:
        raise TestingError(f"duplicate oracle name {oracle.name!r}")
    ORACLES[oracle.name] = oracle
    return cls


def get_oracle(name: str) -> Oracle:
    if name not in ORACLES:
        raise TestingError(
            f"unknown oracle {name!r}; registered: {sorted(ORACLES)}")
    return ORACLES[name]


# ----------------------------------------------------------------------
# shared fixtures (cached: oracles run hundreds of times per fuzz sweep)
# ----------------------------------------------------------------------
@lru_cache(maxsize=4)
def _tiny_weights(seed: int):
    from ..llm import TransformerWeights, tiny_config
    return TransformerWeights.generate(tiny_config(), seed=seed)


@lru_cache(maxsize=4)
def _tiny_model(seed: int):
    from ..llm import NPUTransformer
    return NPUTransformer(_tiny_weights(seed))


def _tokens_diff(actual: List[List[int]], expected: List[List[int]]
                 ) -> Optional[str]:
    """First token divergence between two candidate-sequence lists."""
    if len(actual) != len(expected):
        return (f"candidate count differs: {len(actual)} vs {len(expected)}")
    for cand, (a, e) in enumerate(zip(actual, expected)):
        if a == e:
            continue
        for pos, (ta, te) in enumerate(zip(a, e)):
            if ta != te:
                return (f"candidate {cand} diverges at token {pos}: "
                        f"{ta} vs {te}")
        return (f"candidate {cand} lengths differ: {len(a)} vs {len(e)}")
    return None


def _costs_diff(actual, expected) -> Optional[str]:
    """First StepCost divergence between two decode-cost lists."""
    if len(actual) != len(expected):
        return (f"decode step count differs: "
                f"{len(actual)} vs {len(expected)}")
    for step, (a, e) in enumerate(zip(actual, expected)):
        if a != e:
            return f"StepCost diverged at decode step {step}"
    return None


def _random_prompt(rng: np.random.Generator, length: int,
                   vocab: int = 512) -> List[int]:
    return [int(t) for t in rng.integers(1, vocab, size=length)]


# ----------------------------------------------------------------------
# kernel oracles: HMX simulation vs float64 numpy reference
# ----------------------------------------------------------------------
def recorded_gemm_cost(m: int, prepared, qfloat_mode: str):
    """The charge of an ``m``-row call on ``prepared``, recorded
    instruction by instruction: the activations' DMA, the weight's
    ``dequantize_stream`` and ``record_gemm``, priced by
    :meth:`KernelCost.from_trace`.  :func:`~repro.npu.timing.gemm_cost`
    is held to it."""
    from ..kernels.dequant import dequantize_stream
    from ..npu.hmx import HMXUnit
    from ..npu.hvx import HVXContext, InstructionTrace
    from ..npu.memory import DMAEngine
    from ..npu.timing import KernelCost

    k, n = prepared.quantized.original_shape
    trace, dma = InstructionTrace(), DMAEngine()
    dma.transfer_2d(m, k * 2, direction="ddr_to_tcm")
    dequantize_stream(prepared.quantized, prepared.strategy,
                      HVXContext(qfloat_mode, trace), dma,
                      packed=prepared.packed)
    HMXUnit(trace).record_gemm(m, k, n)
    return KernelCost.from_trace(trace, dma)


@register_oracle
class GemmOracle(Oracle):
    """W4A16/W8A16 GEMM on the HMX pipeline vs a float64 reference.

    The reference multiplies the *same dequantized FP16 weights* in
    float64 and rounds once to FP16 — so the comparison isolates the
    tile decomposition, accumulation order and precision discipline
    from the (intentional) quantization error.  The call's charge must
    also equal :func:`recorded_gemm_cost`, in both qfloat modes: a
    charge reads no values, so an IEEE kernel charges the same weight.

    The tolerance is the kernel's own error bound.  Each output
    ``s = sum_i a_i * w_ij`` is a sum of products of FP16 values, which
    are exact in FP32 (two 11-bit significands fit in 24 bits).  The
    kernel adds them in FP32: the 32 products of a K tile inside one
    tile product, then each tile's sum into the accumulator.  That is
    at most ``n = padded k + K tiles`` additions, so whatever their
    order the FP32 sum ``s'`` satisfies
    ``|s' - s| <= gamma_n * sum_i |a_i * w_ij|``, with
    ``gamma_n = n u / (1 - n u)`` and ``u = 2**-24`` (Higham, *Accuracy
    and Stability of Numerical Algorithms*, §4.2).  Storing ``s'`` in
    FP16 and rounding the reference ``s`` to FP16 add half an ULP each;
    2 ULP of the reference cover both, with room for an output rounded
    into the binade above.  A flat ULP count alone is ill-posed where
    the sum cancels: a 7.85e-5 output summed from products of total
    magnitude 6.8 is 3 ULP off with an error of 2.4e-8 of that total.
    FP16 accumulation between K tiles (``u = 2**-11``) or a dropped K
    tile still fails the bound.
    """

    name = "gemm"
    description = ("MixedPrecisionGemm (HVX dequant + HMX tiles) vs "
                   "float64 matmul, <= 2 FP16 ULP + FP32 summation bound; "
                   "charges vs the instruction-level recording, both "
                   "qfloat modes")
    SHRINK_MINS = {"m": 1, "k": 32, "n": 32, "seed": 0}
    SHRINK_RESETS = {"bits": 4, "strategy": "ours"}

    def sample_config(self, rng: np.random.Generator) -> Config:
        strategy = ("ours", "baseline", "hmx_layout")[int(rng.integers(3))]
        config = {
            "m": int(rng.integers(1, 65)),
            "k": int(rng.integers(1, 13)) * 8,
            "n": int(rng.integers(1, 13)) * 8,
            "bits": (4, 8)[int(rng.integers(2))],
            "strategy": strategy,
            "seed": int(rng.integers(0, 2**31)),
        }
        return self.normalize(config)

    def normalize(self, config: Config) -> Config:
        # the "baseline" conventional-group path needs tile-aligned
        # operands; round up so shrink moves stay valid
        if config.get("strategy") == "baseline":
            config["k"] = max(32, -(-int(config["k"]) // 32) * 32)
            config["n"] = max(32, -(-int(config["n"]) // 32) * 32)
        return config

    def run(self, config: Config) -> OracleResult:
        self._check_config(config)
        from ..kernels.gemm import MixedPrecisionGemm
        from ..npu.hmx import TILE_DIM

        m, k, n = int(config["m"]), int(config["k"]), int(config["n"])
        rng = np.random.default_rng(int(config["seed"]))
        activations = rng.normal(0.0, 1.0, (m, k)).astype(np.float16)
        weight = rng.normal(0.0, 1.0 / np.sqrt(k), (k, n))

        gemm = MixedPrecisionGemm(strategy=str(config["strategy"]),
                                  bits=int(config["bits"]))
        prepared = gemm.prepare_weight(weight)
        out, cost = gemm(activations, prepared)
        ieee = MixedPrecisionGemm(strategy=gemm.strategy, bits=gemm.bits,
                                  qfloat_mode="ieee")
        for mode, charged in (("qfloat", cost),
                              ("ieee", ieee(activations, prepared)[1])):
            recorded = recorded_gemm_cost(m, prepared, mode)
            if charged != recorded:
                return self.failed(
                    config, "cost",
                    f"{mode} call charged {charged}, the instruction-level "
                    f"recording {recorded}")
        a64 = activations.astype(np.float64)
        w64 = prepared.dequantized_matrix.astype(np.float64)
        reference = (a64 @ w64).astype(np.float16)
        diff = diff_arrays(out, reference)
        max_ulp = int(ulp_distance_fp16(out, reference).max())
        k_tiles = -(-k // TILE_DIM)
        nu = (k_tiles * TILE_DIM + k_tiles) * FP32_UNIT_ROUNDOFF
        bound = (GEMM_ULP_TOLERANCE
                 * np.spacing(np.abs(reference)).astype(np.float64)
                 + nu / (1.0 - nu) * (np.abs(a64) @ np.abs(w64)))
        error = np.abs(out.astype(np.float64) - reference)
        worst = np.unravel_index(np.argmax(error - bound), error.shape)
        if not np.all(error <= bound):
            return self.failed(
                config, "ulp",
                f"GEMM output off by {error[worst]:.3g} "
                f"({max_ulp} ULP max) at {tuple(map(int, worst))}, past "
                f"its bound {bound[worst]:.3g} (2 FP16 ULP + FP32 "
                f"summation) vs float64 reference",
                diff=diff, max_ulp=max_ulp)
        return self.passed(config, max_ulp=max_ulp, max_abs=diff.max_abs)


@register_oracle
class AttentionOracle(Oracle):
    """FP16 FlashAttention (Algorithm 1) vs the FP32/float64 reference.

    The exponential is approximated (LUT / polynomial), so the check is
    an absolute ceiling calibrated at ~5x the seed implementation's
    worst error — tight enough that any masking, block-boundary or
    rescale bug trips it.

    One call runs a stack of ``items`` KV items with ragged lengths drawn
    from the seed, read by ``items * group`` query items (query item
    ``i`` reads KV item ``i // group``, as GQA heads share a KV head):
    KV item 0 holds all ``n_kv`` keys, the others ``[n_q, n_kv]`` of
    them when causal (their queries are the last ``n_q`` positions) and
    ``[0, n_kv]`` otherwise.  Every query item must also equal its own
    one-head call on its KV item bit for bit, the stack must be charged
    the sum of those calls, and a query item with no keys returns zeros.
    The query items stay at most 16, so large groups draw few KV items.
    A config without ``group`` (one written before groups) runs group 1.
    """

    name = "attention"
    description = ("stacked, grouped FlashAttention (blockwise FP16, "
                   "lut/poly exp) vs FP32 reference, |diff| <= 0.01, and "
                   "vs one-head calls, bitwise")
    SHRINK_MINS = {"items": 1, "group": 1, "n_q": 1, "n_kv": 1,
                   "head_dim": 16, "seed": 0}
    SHRINK_RESETS = {"method": "lut", "causal": 0}

    def sample_config(self, rng: np.random.Generator) -> Config:
        config = {
            "n_q": int(rng.integers(1, 33)),
            "n_kv": int(rng.integers(1, 97)),
            "head_dim": (16, 32, 64)[int(rng.integers(3))],
            "method": ("lut", "poly16", "poly32")[int(rng.integers(3))],
            "causal": int(rng.integers(2)),
            "seed": int(rng.integers(0, 2**31)),
            "group": int(rng.integers(1, 9)),
        }
        config["items"] = int(rng.integers(1, 16 // config["group"] + 1))
        return self.normalize(config)

    def normalize(self, config: Config) -> Config:
        # causal decode semantics: queries are the last n_q positions of
        # an n_kv-long sequence, so every query row sees >= 1 key
        if int(config.get("causal", 0)) and \
                int(config["n_kv"]) < int(config["n_q"]):
            config["n_kv"] = int(config["n_q"])
        return config

    def run(self, config: Config) -> OracleResult:
        config = {"group": 1, **config}
        self._check_config(config)
        from ..kernels.flash_attention import (
            AttentionBreakdown,
            FlashAttention,
            attention_fp32_reference,
        )
        from ..npu.memory import TCM

        kv_items, group = int(config["items"]), int(config["group"])
        n_q, n_kv = int(config["n_q"]), int(config["n_kv"])
        d = int(config["head_dim"])
        causal = bool(int(config["causal"]))
        rng = np.random.default_rng(int(config["seed"]))
        q = rng.normal(0.0, 1.0, (kv_items * group, n_q, d)).astype(np.float16)
        k = rng.normal(0.0, 1.0, (kv_items, n_kv, d)).astype(np.float16)
        v = rng.normal(0.0, 1.0, (kv_items, n_kv, d)).astype(np.float16)
        lengths = [n_kv] + rng.integers(n_q if causal else 0, n_kv + 1,
                                        kv_items - 1).tolist()
        q_pos = k_pos = None
        if causal:
            q_pos = np.repeat([np.arange(n - n_q, n) for n in lengths],
                              group, axis=0)
            k_pos = np.arange(n_kv)

        attention = FlashAttention(method=str(config["method"]), tcm=TCM())
        with np.errstate(over="ignore", invalid="ignore"):
            out, charged = attention(q, k, v, q_positions=q_pos,
                                     k_positions=k_pos, kv_lengths=lengths)
        expected_charge = AttentionBreakdown()
        max_abs = 0.0
        for i in range(len(q)):
            j = i // group
            n = lengths[j]
            positions = {} if not causal else {
                "q_positions": q_pos[i], "k_positions": k_pos[:n]}
            with np.errstate(over="ignore", invalid="ignore"):
                single, cost = attention(q[i], k[j, :n], v[j, :n],
                                         **positions)
            for phase in ("qk_matmul", "softmax", "pv_matmul", "rescale"):
                getattr(expected_charge, phase).merge(getattr(cost, phase))
            diff = diff_arrays(out[i], single)
            if not diff.bitwise_equal:
                return self.failed(
                    config, "bitwise",
                    f"query item {i} (KV item {j}, {n} keys) differs from "
                    f"its one-head call", diff=diff)
            if n == 0:
                if np.any(out[i].view(np.uint16)):
                    return self.failed(
                        config, "zeros",
                        f"query item {i} has no keys but a non-zero output")
                continue
            reference = attention_fp32_reference(
                q[i], k[j, :n], v[j, :n], **positions).astype(np.float16)
            diff = diff_arrays(out[i], reference)
            max_abs = max(max_abs, diff.max_abs)
            if diff.max_abs > ATTENTION_ABS_TOLERANCE:
                return self.failed(
                    config, "abs",
                    f"query item {i} ({n} keys) off by {diff.max_abs:.4f} "
                    f"(tolerance {ATTENTION_ABS_TOLERANCE}) vs FP32 "
                    f"reference", diff=diff, max_abs=diff.max_abs)
        if charged != expected_charge:
            return self.failed(
                config, "cost", "the stack is not charged the sum of its "
                "query items' one-head calls")
        return self.passed(config, max_abs=max_abs)


def _tile_padded(matrix: np.ndarray) -> np.ndarray:
    """``matrix`` zero-padded to whole tiles by ``np.pad``, aligned as is."""
    from ..npu.hmx import TILE_DIM
    rows, cols = matrix.shape
    if rows % TILE_DIM == 0 and cols % TILE_DIM == 0:
        return matrix
    return np.pad(matrix, ((0, -rows % TILE_DIM), (0, -cols % TILE_DIM)))


def reference_gemm(trace, activations: np.ndarray, weights: np.ndarray,
                   out_dtype=np.float16) -> np.ndarray:
    """The one-tile-at-a-time GEMM that ``HMXUnit.gemm`` must equal.

    Both 2-D operands are cast to FP16 and zero-padded by ``np.pad``
    (which keeps an F-order operand F-order); every (m, n) output tile
    accumulates its K tiles in order through :meth:`HMXUnit.tile_mac`
    into a fresh FP32 accumulator, and each drained tile records one
    ``hmx_tile_out`` on ``trace``.  A tile product multiplies tiles
    stored as the padded operands store them.
    """
    from ..npu.hmx import TILE_DIM, HMXUnit

    hmx = HMXUnit(trace)
    a_pad = _tile_padded(np.asarray(activations, dtype=np.float16))
    w_pad = _tile_padded(np.asarray(weights, dtype=np.float16))
    m, n = activations.shape[0], weights.shape[1]
    out = np.zeros((a_pad.shape[0], w_pad.shape[1]), dtype=np.float32)
    for tm in range(0, a_pad.shape[0], TILE_DIM):
        for tn in range(0, w_pad.shape[1], TILE_DIM):
            acc = np.zeros((TILE_DIM, TILE_DIM), dtype=np.float32)
            for tk in range(0, a_pad.shape[1], TILE_DIM):
                hmx.tile_mac(a_pad[tm:tm + TILE_DIM, tk:tk + TILE_DIM],
                             w_pad[tk:tk + TILE_DIM, tn:tn + TILE_DIM], acc)
            out[tm:tm + TILE_DIM, tn:tn + TILE_DIM] = acc
            trace.record("hmx_tile_out")
    return out[:m, :n].astype(out_dtype)


#: operand memory layouts the ``hmx`` oracle draws
HMX_LAYOUTS = ("C", "F", "transposed", "strided")


def laid_out(matrix: np.ndarray, layout: str) -> np.ndarray:
    """``matrix`` (a 2-D matrix or a stack) stored in ``layout``.

    ``C`` and ``F`` are contiguous in that order, a stack as a whole;
    ``transposed`` is a strided view of the transpose of a larger
    buffer, as attention multiplies its keys; ``strided`` keeps unit
    column stride but puts rows 32 elements further apart than the
    width, as attention's P is a ``[..., :width]`` slice of its block
    buffer when ``block_kv`` is 64.
    """
    *stack, rows, cols = matrix.shape
    if layout == "C":
        return np.ascontiguousarray(matrix)
    if layout == "F":
        return np.asfortranarray(matrix)
    if layout == "transposed":
        backing = np.zeros((*stack, cols + 3, rows + 5), dtype=matrix.dtype)
        backing[..., :cols, :rows] = matrix.swapaxes(-1, -2)
        return backing.swapaxes(-1, -2)[..., :rows, :cols]
    if layout == "strided":
        backing = np.zeros((*stack, rows, cols + 32), dtype=matrix.dtype)
        backing[..., :cols] = matrix
        return backing[..., :cols]
    raise TestingError(f"unknown layout {layout!r}; expected {HMX_LAYOUTS}")


@register_oracle
class HMXOracle(Oracle):
    """``HMXUnit.gemm`` vs the :meth:`~repro.npu.hmx.HMXUnit.tile_mac` loop.

    ``gemm`` multiplies row-major operands one matmul per K step over
    the real rows, and other layouts tile by tile.  BLAS rounds a
    product by its operands' layouts and shapes, so only equality with
    the tile loop over many layouts shows that routing is sound.  A
    trial draws each operand's layout (:data:`HMX_LAYOUTS`), an
    optional stack, the shape and the FP16 values (``normal``;
    ``wide``, exponents over most of FP16's range, subnormals included;
    ``sparse``, 70% zeros of either sign).  It runs both entries: the
    FP16 operands as laid out, and the same matrices zero-padded,
    widened to FP32 and then laid out, with ``shape``.  Each output must
    equal :func:`reference_gemm`, matrix by matrix, over what the unit
    reads (the pre-widened operands, or :func:`~repro.npu.hmx.padded_fp32`
    of the FP16 ones), compared as raw bits.  ``gemm`` records no charges
    (the kernels charge each call from tables that
    :meth:`~repro.npu.hmx.HMXUnit.record_gemm` fills), so ``record_gemm``
    for the drawn shape and stack must record the loop's tile counts.
    """

    name = "hmx"
    description = ("HMXUnit.gemm, both entries, over operand layouts vs "
                   "the tile_mac loop: bitwise; record_gemm, equal tile "
                   "counts")
    SHRINK_MINS = {"m": 1, "k": 1, "n": 1, "stack": 0, "seed": 0}
    SHRINK_RESETS = {"a_layout": "C", "w_layout": "C", "values": "normal",
                     "out_dtype": "float16"}

    def sample_config(self, rng: np.random.Generator) -> Config:
        def pick(options):
            return options[int(rng.integers(len(options)))]

        return {
            "m": int(rng.integers(1, 71)),
            "k": int(rng.integers(1, 601)),
            "n": int(rng.integers(1, 601)),
            "stack": pick((0, 0, 1, 2, 3)),
            "a_layout": pick(HMX_LAYOUTS),
            "w_layout": pick(HMX_LAYOUTS),
            "values": pick(("normal", "wide", "sparse")),
            "out_dtype": pick(("float16", "float32")),
            "seed": int(rng.integers(0, 2**31)),
        }

    @staticmethod
    def _values(rng: np.random.Generator, kind: str, shape) -> np.ndarray:
        x = rng.normal(0.0, 1.0, shape)
        if kind == "wide":
            x *= 2.0 ** rng.integers(-24, 10, shape)
        elif kind == "sparse":
            x[rng.random(shape) < 0.7] = 0.0
            x = np.copysign(x, rng.normal(0.0, 1.0, shape))
        elif kind != "normal":
            raise TestingError(f"unknown values kind {kind!r}")
        return x.astype(np.float16)

    def run(self, config: Config) -> OracleResult:
        self._check_config(config)
        from ..npu.hmx import HMXUnit, pad_to_tiles, padded_fp32
        from ..npu.hvx import InstructionTrace

        m, k, n = int(config["m"]), int(config["k"]), int(config["n"])
        stack = int(config["stack"])
        out_dtype = np.dtype(str(config["out_dtype"]))
        rng = np.random.default_rng(int(config["seed"]))
        lead = (stack,) if stack else ()
        a = self._values(rng, str(config["values"]), lead + (m, k))
        w = self._values(rng, str(config["values"]), lead + (k, n))
        layouts = str(config["a_layout"]), str(config["w_layout"])
        padded = pad_to_tiles(a), pad_to_tiles(w)
        for entry, sources, shape in (("fp16", (a, w), None),
                                      ("pre-widened", padded, (m, k, n))):
            operands = [laid_out(x if shape is None else x.astype(np.float32),
                                 lay) for x, lay in zip(sources, layouts)]
            read = operands if shape else [padded_fp32(x) for x in operands]
            ref_trace = InstructionTrace()
            with np.errstate(over="ignore"):
                got = HMXUnit().gemm(*operands, out_dtype, shape=shape)
                pairs = zip(*(x.reshape((-1,) + x.shape[-2:]) for x in read))
                expected = np.stack([
                    reference_gemm(ref_trace, ai, wi, out_dtype)[:m, :n]
                    for ai, wi in pairs]).reshape(lead + (m, n))
            if got.shape != expected.shape or got.dtype != expected.dtype:
                return self.failed(
                    config, "shape", f"{entry} entry returned "
                    f"{got.dtype}{got.shape}, the tile loop "
                    f"{expected.dtype}{expected.shape}")
            bits = {2: np.uint16, 4: np.uint32}[out_dtype.itemsize]
            diff = diff_arrays(got.view(bits), expected.view(bits))
            if not diff.bitwise_equal:
                return self.failed(
                    config, "bitwise", f"{entry} entry differs from the "
                    f"tile loop in {diff.n_diff} of {got.size} outputs",
                    diff=diff)
        charged = InstructionTrace()
        HMXUnit(charged).record_gemm(m, k, n, max(stack, 1))
        if charged.as_dict() != ref_trace.as_dict():
            return self.failed(
                config, "trace", f"record_gemm charged {charged.as_dict()}, "
                f"the tile loop recorded {ref_trace.as_dict()}")
        return self.passed(config)


def hmx_order_tile_groups(weight: np.ndarray, bits: int = 4,
                          group_size: int = 32):
    """Tile groups by their definition: ``(stored groups, FP16 matrix)``.

    The FP32 weight is permuted into HMX memory order
    (:func:`~repro.npu.hmx.matrix_to_hmx_layout`), quantized over
    contiguous runs of ``group_size`` (``quantize_q4_0`` /
    ``quantize_q8_0``), dequantized and permuted back
    (:func:`~repro.npu.hmx.matrix_from_hmx_layout`), cropped to the
    original shape and copied out in C order.  What
    :func:`~repro.quant.tile_quant.tile_groups` computes in one pass must
    equal it bit for bit.
    """
    from ..npu.hmx import matrix_from_hmx_layout, matrix_to_hmx_layout
    from ..quant.schemes import (dequantize_q4_0, dequantize_q8_0,
                                 quantize_q4_0, quantize_q8_0)

    w = np.asarray(weight, dtype=np.float32)
    flat, padded_shape = matrix_to_hmx_layout(w)
    quantize, dequantize = {4: (quantize_q4_0, dequantize_q4_0),
                            8: (quantize_q8_0, dequantize_q8_0)}[bits]
    groups = quantize(flat, group_size)
    matrix = matrix_from_hmx_layout(dequantize(groups), padded_shape,
                                    w.shape)
    return groups, np.ascontiguousarray(matrix)


def _bits_differ(what: str, actual: np.ndarray, expected: np.ndarray
                 ) -> Optional[Tuple[str, Optional[ArrayDiff]]]:
    """``(message, diff)`` when two arrays differ in dtype, shape, memory
    order or any bit (signed zeros included), else ``None``."""
    if (actual.dtype, actual.shape) != (expected.dtype, expected.shape):
        return (f"{what}: {actual.dtype}{actual.shape}, the reference "
                f"{expected.dtype}{expected.shape}"), None
    if actual.strides != expected.strides:
        return (f"{what}: strides {actual.strides}, the reference "
                f"{expected.strides}"), None
    unsigned = np.dtype(f"u{actual.dtype.itemsize}")
    diff = diff_arrays(actual.view(unsigned), expected.view(unsigned))
    if diff.bitwise_equal:
        return None
    return (f"{what} differs from the reference in {diff.n_diff} of "
            f"{actual.size} elements, first at {diff.first_index}"), diff


@register_oracle
class TileQuantOracle(Oracle):
    """One-pass tile groups vs the HMX-order definition, bit for bit.

    :func:`~repro.quant.tile_quant.tile_groups` quantizes in matrix
    order and permutes only codes and scales into HMX order.  A trial
    draws an unaligned shape up to 300x600, a group size that divides 64,
    Q4 or Q8, a tile-group strategy and the values: ``normal``;
    ``wide``, rows and columns scaled by 2**-20..2**2 and 2**-12..1, so
    many groups get subnormal or zero FP16 scales; ``sparse``, 80% zeros
    of either sign; ``zero_groups``, 30% of rows and of columns zeroed,
    so whole groups are zero; ``outlier``, a few elements 1000x the
    rest.  ``quantize_tile_group``'s codes and
    scales, and ``dequantize_weight``'s FP16 matrix, must equal
    :func:`hmx_order_tile_groups`.  For groups of 32 (the kernels'),
    ``prepare_weight``'s ``padded_fp32`` must equal ``padded_fp32`` of
    that matrix, and ``prepare_fused`` of the weight and a second one
    the two side by side, its parts views of it.
    """

    name = "tile_quant"
    description = ("one-pass tile groups (codes, scales, dequantized and "
                   "prepared weights) vs the HMX-order reference, bitwise")
    SHRINK_MINS = {"rows": 1, "cols": 1, "cols2": 1, "seed": 0}
    SHRINK_RESETS = {"bits": 4, "group_size": 32, "strategy": "ours",
                     "values": "normal"}
    STRATEGIES = ("ours", "hmx_layout", "no_dequant")
    VALUES = ("normal", "wide", "sparse", "zero_groups", "outlier")

    def sample_config(self, rng: np.random.Generator) -> Config:
        def pick(options):
            return options[int(rng.integers(len(options)))]

        return {
            "rows": int(rng.integers(1, 301)),
            "cols": int(rng.integers(1, 601)),
            "cols2": int(rng.integers(1, 201)),
            "group_size": pick((2, 4, 8, 16, 32, 32, 32, 64)),
            "bits": pick((4, 8)),
            "strategy": pick(self.STRATEGIES),
            "values": pick(self.VALUES),
            "seed": int(rng.integers(0, 2**31)),
        }

    @staticmethod
    def _values(rng: np.random.Generator, kind: str, shape) -> np.ndarray:
        x = rng.normal(0.0, 1.0 / np.sqrt(shape[0]), shape)
        if kind == "wide":
            x *= 2.0 ** (rng.integers(-20, 3, (shape[0], 1))
                         + rng.integers(-12, 1, shape[1]))
        elif kind == "sparse":
            x[rng.random(shape) < 0.8] = 0.0
            x = np.copysign(x, rng.normal(0.0, 1.0, shape))
        elif kind == "zero_groups":
            x[rng.random(shape[0]) < 0.3] = 0.0
            x[:, rng.random(shape[1]) < 0.3] = 0.0
        elif kind == "outlier":
            x.flat[rng.integers(0, x.size, 1 + x.size // 500)] *= 1000.0
        elif kind != "normal":
            raise TestingError(f"unknown values kind {kind!r}")
        return x

    def run(self, config: Config) -> OracleResult:
        self._check_config(config)
        from ..kernels.gemm import MixedPrecisionGemm
        from ..npu.hmx import padded_fp32
        from ..quant.tile_quant import dequantize_weight, quantize_tile_group

        rows, cols = int(config["rows"]), int(config["cols"])
        bits, group_size = int(config["bits"]), int(config["group_size"])
        rng = np.random.default_rng(int(config["seed"]))
        kind = str(config["values"])
        weight = self._values(rng, kind, (rows, cols))
        second = self._values(rng, kind, (rows, int(config["cols2"])))
        groups, matrix = hmx_order_tile_groups(weight, bits, group_size)
        quantized = quantize_tile_group(weight, bits, group_size)
        checks = [("codes", quantized.groups.codes, groups.codes),
                  ("scales", quantized.groups.scales, groups.scales),
                  ("dequantize_weight", dequantize_weight(quantized), matrix)]
        if group_size == 32:
            kernel = MixedPrecisionGemm(strategy=str(config["strategy"]),
                                        bits=bits)
            fused = kernel.prepare_fused([weight, second])
            parts = [padded_fp32(matrix),
                     padded_fp32(hmx_order_tile_groups(second, bits)[1])]
            checks += [
                ("prepare_weight", kernel.prepare_weight(weight).padded_fp32,
                 parts[0]),
                ("prepare_fused", fused.padded_fp32,
                 np.concatenate(parts, axis=1))]
            # a part is a column view of the fused matrix: its values
            checks += [(f"prepare_fused part {i}",
                        np.ascontiguousarray(part.padded_fp32), expected)
                       for i, (part, expected)
                       in enumerate(zip(fused.parts, parts))]
        for what, actual, expected in checks:
            differs = _bits_differ(what, actual, expected)
            if differs is not None:
                return self.failed(config, "bitwise", differs[0],
                                   diff=differs[1])
        return self.passed(config, n_groups=groups.n_groups)


# ----------------------------------------------------------------------
# engine oracles: bitwise pairings on the tiny model
# ----------------------------------------------------------------------
@register_oracle
class PagedKVOracle(Oracle):
    """Paged-KV decode vs contiguous decode: bitwise tokens and costs.

    The PR-2 guarantee, generalized: any (dtype, batch, block size,
    prompt length) combination — including block sizes that do not
    divide the prompt — reassembles the identical KV prefix.
    """

    name = "paged_kv"
    description = ("engine decode, kv_backend='paged' vs 'contiguous': "
                   "bitwise-identical tokens and StepCosts")
    SHRINK_MINS = {"batch": 1, "block_size": 1, "prompt_len": 1,
                   "new_tokens": 1, "sampler_seed": 0}
    SHRINK_RESETS = {"dtype": "fp16"}

    def sample_config(self, rng: np.random.Generator) -> Config:
        return {
            "dtype": ("fp16", "q8")[int(rng.integers(2))],
            "batch": int(rng.integers(1, 9)),
            "block_size": int(rng.integers(1, 21)),
            "prompt_len": int(rng.integers(1, 13)),
            "new_tokens": int(rng.integers(1, 13)),
            "sampler_seed": int(rng.integers(0, 2**31)),
        }

    def _generate(self, config: Config, backend: str):
        from ..llm import InferenceEngine, Sampler

        prompt = _random_prompt(
            np.random.default_rng([int(config["sampler_seed"]),
                                   int(config["prompt_len"])]),
            int(config["prompt_len"]))
        engine = InferenceEngine(
            _tiny_model(0), batch=int(config["batch"]),
            max_context=len(prompt) + int(config["new_tokens"]) + 1,
            kv_backend=backend, kv_dtype=str(config["dtype"]),
            kv_block_size=int(config["block_size"]))
        return engine.generate(
            prompt, max_new_tokens=int(config["new_tokens"]),
            sampler=Sampler(temperature=0.8,
                            seed=int(config["sampler_seed"])))

    def run(self, config: Config) -> OracleResult:
        self._check_config(config)
        contiguous = self._generate(config, "contiguous")
        paged = self._generate(config, "paged")
        token_diff = _tokens_diff(paged.sequences, contiguous.sequences)
        if token_diff is not None:
            return self.failed(config, "tokens",
                               f"paged vs contiguous: {token_diff}")
        if paged.prefill_cost != contiguous.prefill_cost:
            return self.failed(config, "cost",
                               "prefill StepCost differs between backends")
        cost_diff = _costs_diff(paged.decode_costs, contiguous.decode_costs)
        if cost_diff is not None:
            return self.failed(config, "cost",
                               f"paged vs contiguous: {cost_diff}")
        return self.passed(
            config, n_tokens=float(paged.total_generated_tokens))


@register_oracle
class FaultNoopOracle(Oracle):
    """Scheduler with an empty fault plan vs no fault plan at all.

    The PR-3 guarantee: arming the resilience machinery with zero
    events must be a bitwise no-op — same tokens, same costs, same
    step count, no RNG perturbation.
    """

    name = "fault_noop"
    description = ("ContinuousBatchingScheduler, FaultPlan.empty() vs "
                   "fault_plan=None: bitwise-identical generation")
    SHRINK_MINS = {"batch": 1, "n_candidates": 1, "prompt_len": 1,
                   "new_tokens": 1, "sampler_seed": 0}
    SHRINK_RESETS = {}

    def sample_config(self, rng: np.random.Generator) -> Config:
        batch = int(rng.integers(1, 7))
        config = {
            "batch": batch,
            "n_candidates": int(rng.integers(batch, 13)),
            "prompt_len": int(rng.integers(1, 11)),
            "new_tokens": int(rng.integers(1, 11)),
            "sampler_seed": int(rng.integers(0, 2**31)),
        }
        return self.normalize(config)

    def normalize(self, config: Config) -> Config:
        if int(config["n_candidates"]) < int(config["batch"]):
            config["n_candidates"] = int(config["batch"])
        return config

    def _generate(self, config: Config, fault_plan):
        from ..llm import ContinuousBatchingScheduler, InferenceEngine, Sampler

        prompt = _random_prompt(
            np.random.default_rng([int(config["sampler_seed"]),
                                   int(config["prompt_len"])]),
            int(config["prompt_len"]))
        engine = InferenceEngine(
            _tiny_model(0), batch=int(config["batch"]),
            max_context=len(prompt) + int(config["new_tokens"]) + 1,
            kv_backend="paged")
        scheduler = ContinuousBatchingScheduler(engine)
        return scheduler.generate(
            prompt, n_candidates=int(config["n_candidates"]),
            max_new_tokens=int(config["new_tokens"]),
            sampler=Sampler(temperature=0.8,
                            seed=int(config["sampler_seed"])),
            fault_plan=fault_plan)

    def run(self, config: Config) -> OracleResult:
        self._check_config(config)
        from ..resilience import FaultPlan

        plain = self._generate(config, None)
        armed = self._generate(config, FaultPlan.empty())
        token_diff = _tokens_diff(armed.sequences, plain.sequences)
        if token_diff is not None:
            return self.failed(config, "tokens",
                               f"empty plan vs none: {token_diff}")
        cost_diff = _costs_diff(armed.decode_costs, plain.decode_costs)
        if cost_diff is not None:
            return self.failed(config, "cost",
                               f"empty plan vs none: {cost_diff}")
        if armed.n_steps != plain.n_steps:
            return self.failed(
                config, "cost",
                f"step counts differ: {armed.n_steps} vs {plain.n_steps}")
        if armed.faults or armed.n_retries or armed.n_rebuilds:
            return self.failed(
                config, "state",
                "empty plan reported resilience activity: "
                f"{len(armed.faults)} faults, {armed.n_retries} retries, "
                f"{armed.n_rebuilds} rebuilds")
        return self.passed(config, n_steps=float(plain.n_steps))


@register_oracle
class PrefillChunkedOracle(Oracle):
    """Chunked prefill vs monolithic prefill: bitwise parity.

    The stage-dispatch guarantee: splitting a prompt into TCM-sized
    chunks — one covering chunk, an aligned divisor, or a ragged tail —
    must not change a single bit.  Checked at two levels: the engine
    (final-position logits and the reassembled KV pages of the prompt
    sequence) and the continuous-batching scheduler (sampled sequences,
    StepCosts and step count with ``prefill_chunk`` set versus the
    monolithic default).
    """

    name = "prefill.chunked"
    description = ("chunked vs monolithic prefill: bitwise-identical "
                   "logits, KV pages and scheduled sequences")
    SHRINK_MINS = {"batch": 1, "n_candidates": 1, "prompt_len": 1,
                   "chunk": 1, "new_tokens": 1, "sampler_seed": 0}
    SHRINK_RESETS = {"dtype": "fp16"}

    def sample_config(self, rng: np.random.Generator) -> Config:
        prompt_len = int(rng.integers(1, 13))
        # cover the three chunking regimes: a single covering chunk,
        # an aligned divisor, and a ragged tail
        mode = int(rng.integers(3))
        if mode == 0:
            chunk = prompt_len + int(rng.integers(0, 4))
        elif mode == 1:
            divisors = [d for d in range(1, prompt_len + 1)
                        if prompt_len % d == 0]
            chunk = divisors[int(rng.integers(len(divisors)))]
        else:
            chunk = int(rng.integers(1, prompt_len + 1))
        batch = int(rng.integers(1, 7))
        return {
            "dtype": ("fp16", "q8")[int(rng.integers(2))],
            "batch": batch,
            "n_candidates": int(rng.integers(batch, 13)),
            "prompt_len": prompt_len,
            "chunk": max(1, chunk),
            "new_tokens": int(rng.integers(1, 11)),
            "sampler_seed": int(rng.integers(0, 2**31)),
        }

    def normalize(self, config: Config) -> Config:
        if int(config["n_candidates"]) < int(config["batch"]):
            config["n_candidates"] = int(config["batch"])
        return config

    def _prompt(self, config: Config) -> List[int]:
        return _random_prompt(
            np.random.default_rng([int(config["sampler_seed"]),
                                   int(config["prompt_len"])]),
            int(config["prompt_len"]))

    def _engine(self, config: Config, prompt: List[int]):
        from ..llm import InferenceEngine
        return InferenceEngine(
            _tiny_model(0), batch=int(config["batch"]),
            max_context=len(prompt) + int(config["new_tokens"]) + 1,
            kv_backend="paged", kv_dtype=str(config["dtype"]))

    def run(self, config: Config) -> OracleResult:
        self._check_config(config)
        from ..llm import ContinuousBatchingScheduler, Sampler

        prompt = self._prompt(config)
        chunk = int(config["chunk"])

        # engine level: final logits and the prompt's KV pages
        mono = self._engine(config, prompt)
        mono_logits, _ = mono.prefill(prompt, seq=0)
        chunked = self._engine(config, prompt)
        chunk_logits = None
        for start in range(0, len(prompt), chunk):
            chunk_logits, _ = chunked.prefill_chunk(
                prompt[start:start + chunk], seq=0)
        logits_diff = diff_arrays(chunk_logits, mono_logits)
        if not logits_diff.bitwise_equal:
            return self.failed(
                config, "abs",
                "chunked prefill logits diverge from monolithic",
                diff=logits_diff)
        for layer in range(len(mono.cache)):
            mono_k, mono_v = mono.cache[layer].view(0)
            chunk_k, chunk_v = chunked.cache[layer].view(0)
            for name, actual, expected in (("k", chunk_k, mono_k),
                                           ("v", chunk_v, mono_v)):
                kv_diff = diff_arrays(actual, expected)
                if not kv_diff.bitwise_equal:
                    return self.failed(
                        config, "state",
                        f"KV {name} pages diverge at layer {layer}",
                        diff=kv_diff)

        # scheduler level: sequences, costs and step count
        def schedule(prefill_chunk):
            engine = self._engine(config, prompt)
            scheduler = ContinuousBatchingScheduler(engine)
            return scheduler.generate(
                prompt, n_candidates=int(config["n_candidates"]),
                max_new_tokens=int(config["new_tokens"]),
                sampler=Sampler(temperature=0.8,
                                seed=int(config["sampler_seed"])),
                prefill_chunk=prefill_chunk)

        plain = schedule(None)
        sliced = schedule(chunk)
        token_diff = _tokens_diff(sliced.sequences, plain.sequences)
        if token_diff is not None:
            return self.failed(config, "tokens",
                               f"chunk={chunk} vs monolithic: {token_diff}")
        cost_diff = _costs_diff(sliced.decode_costs, plain.decode_costs)
        if cost_diff is not None:
            return self.failed(config, "cost",
                               f"chunk={chunk} vs monolithic: {cost_diff}")
        if sliced.n_steps != plain.n_steps:
            return self.failed(
                config, "cost",
                f"step counts differ: {sliced.n_steps} vs {plain.n_steps}")
        expected_chunks = -(-len(prompt) // chunk)
        if sliced.n_prefill_chunks != expected_chunks:
            return self.failed(
                config, "state",
                f"expected {expected_chunks} prefill chunks, got "
                f"{sliced.n_prefill_chunks}")
        return self.passed(config, n_chunks=float(sliced.n_prefill_chunks),
                           n_steps=float(plain.n_steps))


@register_oracle
class SpeculativeOracle(Oracle):
    """Greedy speculative decode vs plain greedy target decode.

    The §9 Generate-then-Verify guarantee: with greedy acceptance the
    draft model *cannot* change the output — whatever it proposes, the
    committed tokens equal pure argmax decoding of the target model,
    whether the draft always agrees (draft == target) or frequently
    disagrees (an independently seeded draft).
    """

    name = "speculative"
    description = ("SpeculativeDecoder (greedy) vs plain argmax decode: "
                   "token-identical for any draft model")
    SHRINK_MINS = {"draft_len": 1, "prompt_len": 1, "new_tokens": 1,
                   "draft_seed": 0, "seed": 0}
    SHRINK_RESETS = {}

    def sample_config(self, rng: np.random.Generator) -> Config:
        return {
            "draft_len": int(rng.integers(1, 9)),
            "prompt_len": int(rng.integers(1, 11)),
            "new_tokens": int(rng.integers(1, 17)),
            # 0 = draft shares the target's weights (always agrees)
            "draft_seed": int(rng.integers(0, 3)),
            "seed": int(rng.integers(0, 2**31)),
        }

    @staticmethod
    def _plain_greedy(model, prompt: List[int], n_tokens: int) -> List[int]:
        cache = model.new_cache(1, len(prompt) + n_tokens + 1)
        logits, _ = model.forward(
            np.asarray(prompt, dtype=np.int64)[np.newaxis, :], cache)
        tokens: List[int] = []
        current = int(logits[0, -1].argmax())
        tokens.append(current)
        for _ in range(n_tokens - 1):
            logits, _ = model.forward(
                np.asarray([[current]], dtype=np.int64), cache)
            current = int(logits[0, -1].argmax())
            tokens.append(current)
        return tokens

    def run(self, config: Config) -> OracleResult:
        self._check_config(config)
        from ..llm import SpeculativeDecoder

        target = _tiny_model(0)
        draft = _tiny_model(int(config["draft_seed"]))
        prompt = _random_prompt(
            np.random.default_rng([int(config["seed"]),
                                   int(config["prompt_len"])]),
            int(config["prompt_len"]))
        n_tokens = int(config["new_tokens"])

        decoder = SpeculativeDecoder(target, draft,
                                     draft_len=int(config["draft_len"]))
        speculative = decoder.generate(prompt, n_tokens, temperature=0.0,
                                       seed=int(config["seed"]))
        plain = self._plain_greedy(target, prompt, n_tokens)
        if speculative.tokens != plain:
            divergence = _tokens_diff([speculative.tokens], [plain])
            return self.failed(
                config, "tokens",
                f"speculative vs plain greedy: {divergence}",
                acceptance_rate=speculative.acceptance_rate)
        return self.passed(config,
                           acceptance_rate=speculative.acceptance_rate)


@register_oracle
class CheckpointOracle(Oracle):
    """Checkpoint round-trips: save -> load -> bitwise-identical decode.

    Checked guarantees (quantization is deliberately lossy *once*, so
    the invariants hold after the first encode):

    * ``f16``: loaded weights are an encode fixpoint — re-saving and
      re-loading reproduces every tensor bitwise, and both generations
      decode identically;
    * ``q4``: the loaded projections equal the quantize-dequantize
      round-trip the NPU computes with
      (:meth:`NPUTransformer.dequantized_layer_weights`), and two
      independent loads of the same file decode identically —
      including through the paged KV backend.
    """

    name = "checkpoint"
    description = ("save/load round-trip (f16 fixpoint, q4 == NPU "
                   "effective weights) decodes bitwise-identically")
    SHRINK_MINS = {"batch": 1, "new_tokens": 1, "weights_seed": 0,
                   "sampler_seed": 0}
    SHRINK_RESETS = {"codec": "f16", "backend": "contiguous"}

    def sample_config(self, rng: np.random.Generator) -> Config:
        return {
            "codec": ("f16", "q4")[int(rng.integers(2))],
            "backend": ("contiguous", "paged")[int(rng.integers(2))],
            "batch": int(rng.integers(1, 5)),
            "new_tokens": int(rng.integers(1, 11)),
            "weights_seed": int(rng.integers(0, 3)),
            "sampler_seed": int(rng.integers(0, 2**31)),
        }

    @staticmethod
    def _weight_arrays(weights) -> Iterator[Tuple[str, np.ndarray]]:
        yield "embedding", weights.embedding
        yield "lm_head", weights.lm_head
        yield "final_norm", weights.final_norm
        for i, layer in enumerate(weights.layers):
            for name, matrix in sorted(layer.items()):
                yield f"layers.{i}.{name}", matrix

    def _decode(self, model, config: Config) -> List[List[int]]:
        from ..llm import InferenceEngine, Sampler

        prompt = _random_prompt(
            np.random.default_rng([int(config["sampler_seed"]), 17]), 6)
        engine = InferenceEngine(
            model, batch=int(config["batch"]),
            max_context=len(prompt) + int(config["new_tokens"]) + 1,
            kv_backend=str(config["backend"]))
        result = engine.generate(
            prompt, max_new_tokens=int(config["new_tokens"]),
            sampler=Sampler(temperature=0.8,
                            seed=int(config["sampler_seed"])))
        return result.sequences

    def run(self, config: Config) -> OracleResult:
        self._check_config(config)
        from ..llm import NPUTransformer
        from ..llm.checkpoint import load_checkpoint, save_checkpoint

        codec = str(config["codec"])
        weights = _tiny_weights(int(config["weights_seed"]))
        with tempfile.TemporaryDirectory(prefix="repro-ckpt-") as tmp:
            first = Path(tmp) / "first.ckpt"
            save_checkpoint(first, weights, codec=codec)
            loaded = load_checkpoint(first)

            if codec == "f16":
                second = Path(tmp) / "second.ckpt"
                save_checkpoint(second, loaded, codec=codec)
                reloaded = load_checkpoint(second)
            else:
                reloaded = load_checkpoint(first)

        if codec == "f16":
            for name, a in self._weight_arrays(loaded):
                b = dict(self._weight_arrays(reloaded))[name]
                if not np.array_equal(a, b):
                    return self.failed(
                        config, "state",
                        f"f16 round-trip is not a fixpoint: tensor "
                        f"{name!r} changed on re-save",
                        diff=diff_arrays(b, a))
        else:
            effective = _tiny_model(
                int(config["weights_seed"])).dequantized_layer_weights()
            for i, layer in enumerate(effective):
                for name, expected in layer.items():
                    actual = loaded.layers[i][name]
                    if not np.array_equal(actual, expected):
                        return self.failed(
                            config, "state",
                            f"q4 checkpoint tensor layers.{i}.{name} != "
                            "the NPU's dequantized weights",
                            diff=diff_arrays(actual, expected))

        tokens_a = self._decode(NPUTransformer(loaded), config)
        tokens_b = self._decode(NPUTransformer(reloaded), config)
        token_diff = _tokens_diff(tokens_b, tokens_a)
        if token_diff is not None:
            return self.failed(config, "tokens",
                               f"round-trip decode: {token_diff}")
        return self.passed(config)


@register_oracle
class FleetOracle(Oracle):
    """Fleet replay: two runs of one config, byte-identical, ledgers closed.

    The ``repro.fleet/v1`` report is a pure function of its config:
    trace seed and pattern, population, admission bound, a seeded fleet
    fault schedule (crashes, stragglers, dropped dispatches, battery
    drains) and hedging, both off in half the configs, and whether blame
    is recorded (``explain``).  Two runs must serialize to the same
    bytes, and the report must close every ledger it carries:

    * ``offered == completed + shed + failed_permanently + unserved``,
      and the chaos section's ledger agrees with the requests section
      (the simulation itself raises if a hedged request is served twice);
    * token-latency percentiles are in order;
    * with ``explain``, every offered request is explained, and blame
      nanoseconds and energy nanojoules sum exactly to their totals
      (per-request conservation is asserted inside
      :func:`~repro.obs.blame.aggregate_blame`).

    The capacity plan is left off so a shrunk repro stays one
    simulation, not a search.
    """

    name = "fleet"
    description = ("fleet run twice with drawn faults, hedging and explain: "
                   "byte-identical repro.fleet/v1 JSON, request "
                   "conservation, blame totality")
    SHRINK_MINS = {"devices": 1, "qps": 1, "horizon_ds": 1,
                   "queue_depth": 1, "seed": 0, "fault_seed": 0,
                   "n_crashes": 0, "n_straggles": 0, "n_drops": 0,
                   "n_battery": 0, "hedge": 0, "explain": 0}
    SHRINK_RESETS = {"pattern": "poisson"}

    def sample_config(self, rng: np.random.Generator) -> Config:
        chaos = int(rng.integers(0, 2))  # 0: no faults, no hedging
        return {
            "devices": int(rng.integers(1, 41)),
            "qps": int(rng.integers(1, 25)),
            "horizon_ds": int(rng.integers(1, 201)),  # deciseconds
            "queue_depth": int(rng.integers(1, 33)),
            "pattern": ("poisson", "diurnal")[int(rng.integers(2))],
            "seed": int(rng.integers(0, 2**31)),
            "fault_seed": int(rng.integers(0, 2**31)),
            "n_crashes": chaos * int(rng.integers(0, 4)),
            "n_straggles": chaos * int(rng.integers(0, 4)),
            "n_drops": chaos * int(rng.integers(0, 4)),
            "n_battery": chaos * int(rng.integers(0, 2)),
            "hedge": chaos * int(rng.integers(0, 2)),
            "explain": int(rng.integers(0, 2)),
        }

    def _report(self, config: Config):
        from ..fleet import run_fleet
        from ..resilience.faults import FaultPlan

        horizon = int(config["horizon_ds"]) / 10.0
        plan = FaultPlan.random(
            int(config["fault_seed"]), n_aborts=0, n_dma=0, n_allocs=0,
            n_throttles=0, n_crashes=int(config["n_crashes"]),
            n_straggles=int(config["n_straggles"]),
            n_drops=int(config["n_drops"]),
            n_battery=int(config["n_battery"]),
            n_devices=int(config["devices"]), horizon_seconds=horizon)
        return run_fleet(
            int(config["devices"]), float(config["qps"]),
            horizon_seconds=horizon, seed=int(config["seed"]),
            pattern=str(config["pattern"]),
            queue_depth=int(config["queue_depth"]),
            with_capacity_plan=False, fault_spec=plan.spec(),
            hedge=bool(int(config["hedge"])),
            explain=bool(int(config["explain"])))

    def run(self, config: Config) -> OracleResult:
        self._check_config(config)
        first = self._report(config)
        text_a = first.to_json_text()
        text_b = self._report(config).to_json_text()
        if text_a != text_b:
            for line_a, line_b in zip(text_a.splitlines(),
                                      text_b.splitlines()):
                if line_a != line_b:
                    return self.failed(
                        config, "state",
                        f"replay diverged: {line_a!r} vs {line_b!r}")
            return self.failed(config, "state",
                               "replay diverged in length only")
        requests, chaos = first.requests, first.chaos
        failed = (chaos["recovery"]["failed_permanently"]
                  if chaos is not None else 0)
        terminal = (requests["completed"] + requests["shed"] + failed
                    + requests["unserved"])
        if requests["offered"] != terminal:
            return self.failed(
                config, "state",
                f"request conservation violated: offered "
                f"{requests['offered']} != completed+shed+failed+unserved "
                f"{terminal}")
        if chaos is not None and chaos["conservation"]["offered"] != (
                requests["offered"]):
            return self.failed(
                config, "state",
                "chaos ledger disagrees with the requests section")
        token = first.latency["token"]
        if token["count"] and not (
                token["p50"] <= token["p95"] <= token["p99"]):
            return self.failed(
                config, "state",
                f"token latency percentiles out of order: p50 "
                f"{token['p50']}, p95 {token['p95']}, p99 {token['p99']}")
        if int(config["explain"]):
            if first.explain is None:
                return self.failed(config, "state",
                                   "explain=1 produced no explain section")
            aggregate = first.explain["aggregate"]
            if aggregate["n_requests"] != requests["offered"]:
                return self.failed(
                    config, "state",
                    f"explain ledger not total: offered "
                    f"{requests['offered']} != explained "
                    f"{aggregate['n_requests']}")
            for phases, total in (("blame_ns", "total_latency_ns"),
                                  ("energy_nj", "total_nj")):
                phase_sum = sum(aggregate[phases].values())
                if phase_sum != aggregate[total]:
                    return self.failed(
                        config, "state",
                        f"{phases} phases sum to {phase_sum}, not the "
                        f"attributed {total} {aggregate[total]}")
        return self.passed(config,
                           n_offered=float(requests["offered"]),
                           n_completed=float(requests["completed"]),
                           n_shed=float(requests["shed"]),
                           n_failed=float(failed))
