"""Committed golden fixtures: kernel outputs, decode traces, formats.

The differential oracles compare two *live* executions; goldens pin the
stack against its own past.  Each :class:`GoldenCase` regenerates one
deterministic artifact — a kernel output tensor (``.npz``), a decode
trace (``.json``), or an on-disk format digest — and
:func:`check_goldens` compares the regeneration against the committed
fixture bitwise.  Any intentional numerical change (a kernel rewrite, a
quantization tweak) must therefore show up as an explicit
``repro goldens --update`` diff in review, never as a silent drift.

CLI::

    repro goldens --check            # exit 1 on any mismatch
    repro goldens --update           # rewrite fixtures in place
    repro goldens --check --only decode_tiny

Fixtures live in ``src/repro/testing/_goldens/`` so the CLI finds them
from any working directory.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..errors import TestingError
from ..obs.context import scope
from .oracles import _tiny_model, _tiny_weights

__all__ = [
    "GOLDEN_DIR",
    "GoldenCase",
    "GoldenMismatch",
    "GOLDEN_CASES",
    "check_goldens",
    "update_goldens",
]

GOLDEN_DIR = Path(__file__).resolve().parent / "_goldens"

_PROMPT = [3, 1, 4, 1, 5, 9, 2, 6]


@dataclass(frozen=True)
class GoldenCase:
    """One regenerable artifact with a committed reference fixture."""

    name: str
    kind: str          # "npz" | "json"
    description: str
    build: Callable[[], Dict]

    @property
    def filename(self) -> str:
        return f"{self.name}.{self.kind}"


@dataclass(frozen=True)
class GoldenMismatch:
    """One divergence between a fixture and its regeneration."""

    case: str
    path: str
    message: str


GOLDEN_CASES: Dict[str, GoldenCase] = {}


def _register(name: str, kind: str, description: str):
    if kind not in ("npz", "json"):
        raise TestingError(f"unknown golden kind {kind!r}")

    def wrap(fn: Callable[[], Dict]) -> Callable[[], Dict]:
        if name in GOLDEN_CASES:
            raise TestingError(f"duplicate golden case {name!r}")
        GOLDEN_CASES[name] = GoldenCase(name=name, kind=kind,
                                        description=description, build=fn)
        return fn
    return wrap


# ----------------------------------------------------------------------
# cases: kernels
# ----------------------------------------------------------------------
@_register("gemm_q4", "npz",
           "W4A16 GEMM output, 'ours' strategy, 24x64 @ 64x40")
def _gemm_q4() -> Dict:
    from ..kernels.gemm import MixedPrecisionGemm

    rng = np.random.default_rng(2024)
    activations = rng.normal(0.0, 1.0, (24, 64)).astype(np.float16)
    weight = rng.normal(0.0, 0.125, (64, 40))
    gemm = MixedPrecisionGemm(strategy="ours", bits=4)
    prepared = gemm.prepare_weight(weight)
    output, _ = gemm(activations, prepared)
    return {"output": output,
            "dequantized_weight": prepared.dequantized_matrix}


@_register("gemm_q8", "npz",
           "W8A16 GEMM output (the FFN down-projection path), 16x64 @ 64x32")
def _gemm_q8() -> Dict:
    from ..kernels.gemm import MixedPrecisionGemm

    rng = np.random.default_rng(2025)
    activations = rng.normal(0.0, 1.0, (16, 64)).astype(np.float16)
    weight = rng.normal(0.0, 0.125, (64, 32))
    gemm = MixedPrecisionGemm(strategy="ours", bits=8)
    prepared = gemm.prepare_weight(weight)
    output, _ = gemm(activations, prepared)
    return {"output": output,
            "dequantized_weight": prepared.dequantized_matrix}


@_register("attention_lut", "npz",
           "causal FlashAttention output, LUT exponent, 24 queries/40 keys")
def _attention_lut() -> Dict:
    return _attention_case("lut", seed=2026)


@_register("attention_poly32", "npz",
           "causal FlashAttention output, poly32 exponent, 24 queries/40 keys")
def _attention_poly32() -> Dict:
    return _attention_case("poly32", seed=2027)


def _attention_case(method: str, seed: int) -> Dict:
    from ..kernels.flash_attention import FlashAttention
    from ..npu.memory import TCM

    rng = np.random.default_rng(seed)
    q = rng.normal(0.0, 1.0, (24, 32)).astype(np.float16)
    k = rng.normal(0.0, 1.0, (40, 32)).astype(np.float16)
    v = rng.normal(0.0, 1.0, (40, 32)).astype(np.float16)
    attention = FlashAttention(method=method, tcm=TCM())
    out, _ = attention(q, k, v, q_positions=np.arange(16, 40),
                       k_positions=np.arange(40))
    return {"output": out}


# ----------------------------------------------------------------------
# cases: decode traces
# ----------------------------------------------------------------------
@_register("decode_tiny", "json",
           "lock-step batched decode trace on the tiny model")
def _decode_tiny() -> Dict:
    from ..llm import InferenceEngine, Sampler

    engine = InferenceEngine(_tiny_model(0), batch=4, max_context=32)
    result = engine.generate(_PROMPT, max_new_tokens=10,
                             sampler=Sampler(temperature=0.8, seed=7))
    return {"prompt": _PROMPT,
            "sequences": result.sequences,
            "n_generated_tokens": result.n_generated_tokens}


@_register("scheduler_chaos", "json",
           "continuous-batching decode under a fixed fault plan")
def _scheduler_chaos() -> Dict:
    from ..llm import ContinuousBatchingScheduler, InferenceEngine, Sampler
    from ..resilience import FaultPlan

    engine = InferenceEngine(_tiny_model(0), batch=4, max_context=32,
                             kv_backend="paged")
    scheduler = ContinuousBatchingScheduler(engine)
    plan = FaultPlan.parse("abort@2,alloc@4,throttle@1:efficiency:3")
    result = scheduler.generate(_PROMPT, n_candidates=6, max_new_tokens=10,
                                sampler=Sampler(temperature=0.8, seed=11),
                                fault_plan=plan)
    fault_kinds: Dict[str, int] = {}
    for record in result.faults:
        fault_kinds[record.kind] = fault_kinds.get(record.kind, 0) + 1
    return {"prompt": _PROMPT,
            "fault_plan": plan.spec(),
            "sequences": result.sequences,
            "n_steps": result.n_steps,
            "n_retries": result.n_retries,
            "n_evictions": result.n_evictions,
            "n_rebuilds": result.n_rebuilds,
            "fault_kinds": fault_kinds}


@_register("prefill_chunked", "json",
           "chunked prefill + mid-run prompt admission scheduler trace")
def _prefill_chunked() -> Dict:
    from ..llm import (ContinuousBatchingScheduler, InferenceEngine,
                       PromptAdmission, Sampler)

    engine = InferenceEngine(_tiny_model(0), batch=4, max_context=48,
                             kv_backend="paged")
    scheduler = ContinuousBatchingScheduler(engine)
    admission = PromptAdmission(prompt=[7, 7, 7, 2, 5, 1, 8, 8, 4, 3],
                                n_candidates=3, max_new_tokens=6, at_step=2)
    result = scheduler.generate(_PROMPT, n_candidates=6, max_new_tokens=10,
                                sampler=Sampler(temperature=0.8, seed=11),
                                prefill_chunk=3, admissions=[admission])
    return {"prompt": _PROMPT,
            "admitted_prompt": list(admission.prompt),
            "sequences": result.sequences,
            "n_steps": result.n_steps,
            "n_prefill_chunks": result.n_prefill_chunks,
            "n_prompt_admissions": result.n_prompt_admissions,
            "candidate_request_ids": [c.request_id
                                      for c in result.candidates],
            "finish_reasons": [c.finish_reason for c in result.candidates]}


def _digest(record) -> str:
    """sha256 of ``record`` as canonical JSON (sorted keys, compact, no
    fallback for values JSON cannot hold)."""
    return hashlib.sha256(json.dumps(
        record, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _scheduler_record(batch: int, max_context: int, prompt: List[int],
                      **options) -> Dict:
    """Every observable record of one scheduler run, pinned by digest.

    The run goes in its own scope, with a fresh tracer, event log and
    metrics registry, so the record holds exactly what the run emitted:
    the timeline events, the registry snapshot, and the ``scheduler``
    and ``resilience`` spans as (name, depth, attrs) in finish order.
    ``_``-prefixed span attrs are tracer bookkeeping and are left out.
    The model and engine are built in the scope too: building them sets
    the TCM and rpcmem gauges, which a model or engine built outside it
    would leave unset.
    """
    from ..llm import (ContinuousBatchingScheduler, InferenceEngine,
                       NPUTransformer, Sampler)
    from ..obs import EventLog, MetricsRegistry, Tracer

    tracer, log, registry = Tracer(), EventLog(), MetricsRegistry()
    with scope(tracer=tracer, metrics=registry, log=log):
        engine = InferenceEngine(NPUTransformer(_tiny_weights(0)),
                                 batch=batch, max_context=max_context,
                                 kv_backend="paged")
        ContinuousBatchingScheduler(engine).generate(
            prompt, sampler=Sampler(temperature=0.8, seed=0), **options)
    events = [event.to_json() for event in log.events()]
    spans = [[s.name, s.depth,
              {k: v for k, v in s.attrs.items() if not k.startswith("_")}]
             for s in tracer.finished_spans()
             if s.category in ("scheduler", "resilience")]
    return {"event_counts": dict(Counter(e["kind"] for e in events)),
            "span_counts": dict(Counter(name for name, _, _ in spans)),
            "events_sha256": _digest(events),
            "metrics_sha256": _digest(registry.snapshot()),
            "spans_sha256": _digest(spans)}


@_register("scheduler_record", "json",
           "timeline, metrics and span digests of three scheduler runs: "
           "chaos, mixed prefill/decode with dispatch, chunked recovery")
def _scheduler_record_case() -> Dict:
    from ..llm import BackendSelector, PromptAdmission, tiny_config
    from ..npu.soc import DEFAULT_DEVICE, DEVICES
    from ..resilience import FaultPlan

    chaos_plan = "abort@2,dma@4,alloc@3,throttle@1:efficiency:4,kvpool#9"
    recovery_plan = "kvpool#5,abort@5,throttle@1:efficiency:3"
    late_prompt = [(i % 500) + 1 for i in range(20)]
    return {
        "chaos": {"fault_plan": chaos_plan, **_scheduler_record(
            4, 64, _PROMPT, n_candidates=8, max_new_tokens=12,
            fault_plan=FaultPlan.parse(chaos_plan))},
        "mixed": _scheduler_record(
            4, 64, _PROMPT, n_candidates=16, max_new_tokens=12,
            length_schedule=[3, 12, 5, 8], prefill_chunk=4,
            dispatch=BackendSelector(DEVICES[DEFAULT_DEVICE], tiny_config()),
            admissions=[PromptAdmission(late_prompt, n_candidates=4,
                                        max_new_tokens=8, at_step=6)]),
        "recovery": {"fault_plan": recovery_plan, **_scheduler_record(
            3, 48, [3, 1, 4, 1, 5], n_candidates=2, max_new_tokens=10,
            prefill_chunk=2, fault_plan=FaultPlan.parse(recovery_plan),
            deadline_seconds=1.5e-4,
            admissions=[PromptAdmission([7, 7, 7, 2, 5, 1, 8, 8, 4, 3],
                                        n_candidates=2, max_new_tokens=5,
                                        at_step=2)])}}


@_register("speculative_greedy", "json",
           "greedy speculative decode trace (independent draft model)")
def _speculative_greedy() -> Dict:
    from ..llm import SpeculativeDecoder

    decoder = SpeculativeDecoder(_tiny_model(0), _tiny_model(1), draft_len=4)
    result = decoder.generate(_PROMPT, 12, temperature=0.0, seed=0)
    return {"prompt": _PROMPT,
            "tokens": result.tokens,
            "accepted_drafts": result.accepted_drafts,
            "proposed_drafts": result.proposed_drafts,
            "target_forward_passes": result.target_forward_passes}


# ----------------------------------------------------------------------
# cases: fleet serving
# ----------------------------------------------------------------------
@_register("fleet.capacity", "json",
           "100-device diurnal serving window with the capacity plan")
def _fleet_capacity() -> Dict:
    from ..fleet import run_fleet

    report = run_fleet(100, 10.0, horizon_seconds=30.0, seed=2026,
                       pattern="diurnal")
    return report.to_json()


@_register("fleet.chaos", "json",
           "8-device saturated window under a fixed fault schedule "
           "with failover and hedging")
def _fleet_chaos() -> Dict:
    from ..fleet import run_fleet

    report = run_fleet(
        8, 10.0, horizon_seconds=20.0, seed=2026,
        with_capacity_plan=False, hedge=True,
        fault_spec="dev#0:crash@3:6,dev#1:straggle@2:3:10,"
                   "dev#2:drop@5,dev#3:battery@8,dev#4:crash@12")
    return report.to_json()


@_register("fleet.explain", "json",
           "small chaos fleet with the critical-path blame ledger "
           "(repro.explain/v1 section embedded in the fleet report)")
def _fleet_explain() -> Dict:
    from ..fleet import run_fleet

    report = run_fleet(
        6, 8.0, horizon_seconds=10.0, seed=2026,
        with_capacity_plan=False, hedge=True,
        fault_spec="dev#0:crash@2:4,dev#1:straggle@1:2:8,dev#2:drop@3",
        explain=True)
    return report.to_json()


# ----------------------------------------------------------------------
# cases: on-disk format conformance
# ----------------------------------------------------------------------
@_register("checkpoint_q4_format", "json",
           "byte-level digest of the q4 checkpoint container format")
def _checkpoint_q4_format() -> Dict:
    from ..llm.checkpoint import save_checkpoint

    with tempfile.TemporaryDirectory(prefix="repro-golden-") as tmp:
        path = Path(tmp) / "tiny.ckpt"
        n_bytes = save_checkpoint(path, _tiny_weights(0), codec="q4")
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
    return {"codec": "q4", "bytes": n_bytes, "sha256": digest}


# ----------------------------------------------------------------------
# check / update
# ----------------------------------------------------------------------
def _select(only) -> List[GoldenCase]:
    if only is None:
        return [GOLDEN_CASES[name] for name in sorted(GOLDEN_CASES)]
    names = [only] if isinstance(only, str) else list(only)
    unknown = [name for name in names if name not in GOLDEN_CASES]
    if unknown:
        raise TestingError(
            f"unknown golden case(s) {unknown}; known: {sorted(GOLDEN_CASES)}")
    return [GOLDEN_CASES[name] for name in sorted(set(names))]


def _json_bytes(payload: Dict) -> bytes:
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()


def _compare_npz(case: GoldenCase, path: Path, built: Dict
                 ) -> Optional[str]:
    with np.load(path) as archive:
        committed = {name: archive[name] for name in archive.files}
    if sorted(committed) != sorted(built):
        return (f"array set differs: committed {sorted(committed)}, "
                f"regenerated {sorted(built)}")
    for name in sorted(built):
        a, b = np.asarray(built[name]), committed[name]
        if a.dtype != b.dtype or a.shape != b.shape:
            return (f"array {name!r}: dtype/shape changed "
                    f"({b.dtype}{b.shape} -> {a.dtype}{a.shape})")
        if a.tobytes() != b.tobytes():
            mismatch = (a != b) | (np.isnan(a.astype(np.float64))
                                   != np.isnan(b.astype(np.float64)))
            return (f"array {name!r}: {int(mismatch.sum())} of {a.size} "
                    "elements differ bitwise")
    return None


def check_goldens(directory: Optional[Path] = None,
                  only: Optional[Sequence[str]] = None) -> List[GoldenMismatch]:
    """Regenerate every case, each in its own observability scope, and
    diff it against the committed fixture."""
    directory = Path(directory) if directory is not None else GOLDEN_DIR
    mismatches: List[GoldenMismatch] = []
    for case in _select(only):
        path = directory / case.filename
        if not path.exists():
            mismatches.append(GoldenMismatch(
                case=case.name, path=str(path),
                message="fixture missing (run 'repro goldens --update')"))
            continue
        with scope():
            built = case.build()
        if case.kind == "npz":
            message = _compare_npz(case, path, built)
        else:
            committed = json.loads(path.read_text())
            message = None if committed == json.loads(_json_bytes(built)) \
                else "JSON payload differs from the committed fixture"
        if message is not None:
            mismatches.append(GoldenMismatch(case=case.name, path=str(path),
                                             message=message))
    return mismatches


def update_goldens(directory: Optional[Path] = None,
                   only: Optional[Sequence[str]] = None) -> List[str]:
    """Rewrite fixtures from the current implementation, each case built
    in its own observability scope; returns paths."""
    directory = Path(directory) if directory is not None else GOLDEN_DIR
    directory.mkdir(parents=True, exist_ok=True)
    written: List[str] = []
    for case in _select(only):
        path = directory / case.filename
        with scope():
            built = case.build()
        if case.kind == "npz":
            with open(path, "wb") as handle:
                np.savez(handle, **built)
        else:
            path.write_bytes(_json_bytes(built))
        written.append(str(path))
    return written
