"""Continuous benchmark telemetry: scenario registry, snapshots, gating.

The paper's core claims are throughput/latency numbers, so performance
must be an *observed, regression-gated artifact* of every change — the
continuous-benchmarking discipline of serving systems like vLLM and
SGLang.  This module provides the whole bench→snapshot→compare→gate
loop on top of :mod:`repro.obs`:

* a **registry** of canonical scenarios (greedy decode, prefill, paged
  Best-of-N waves, chaos Best-of-N under a fixed fault plan, greedy
  speculative decode, GEMM/attention kernel microbenches), each run
  under a fresh :class:`~repro.obs.trace.Tracer` and
  :class:`~repro.obs.metrics.MetricsRegistry` and returning a
  structured :class:`BenchRecord`;
* a **snapshot writer** that serializes a suite run to
  ``BENCH_<n>.json`` with an environment fingerprint (git sha,
  python/numpy versions, seed) so the bench history is machine
  readable;
* a **comparator** that diffs two snapshots with noise-aware,
  direction-aware per-metric thresholds (throughput dropping is bad,
  latency rising is bad, wall clock is informational) and renders a
  text/markdown regression report the ``repro bench --check`` CLI exits
  2 on.

Every metric derived from the *simulated* timeline (``sim_seconds``,
``tokens_per_second``, utilizations, KV bytes, SLO percentiles) is a
deterministic function of the seeds, so snapshots diff bitwise across
machines; host wall clock is recorded but never gated.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ObservabilityError
from ..npu.soc import DEFAULT_DEVICE
from . import metrics as obs_metrics
from . import trace as obs_trace
from .export import chrome_trace, engine_utilization
from .slo import slo_summary

__all__ = [
    "BenchError",
    "BenchContext",
    "BenchRecord",
    "BenchScenario",
    "BenchSnapshot",
    "SCENARIOS",
    "bench_scenario",
    "run_scenario",
    "run_suite",
    "render_profile_table",
    "PROFILE_TOP_N",
    "next_snapshot_path",
    "validate_snapshot",
    "Threshold",
    "MetricDelta",
    "ComparisonReport",
    "compare_snapshots",
    "classify_metric",
    "DEFAULT_BASELINE_PATH",
]

SNAPSHOT_SCHEMA = "repro.bench/v1"
DEFAULT_SEED = 0
DEFAULT_BASELINE_PATH = os.path.join("benchmarks", "baseline.json")


class BenchError(ObservabilityError):
    """Malformed snapshot, unknown scenario, or a broken bench run."""


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
@dataclass
class BenchContext:
    """Everything a scenario needs: device, timing and fresh obs state."""

    device: Any
    timing: Any
    tracer: obs_trace.Tracer
    registry: obs_metrics.MetricsRegistry
    seed: int


@dataclass
class BenchRecord:
    """Structured result of one scenario run.

    ``metrics`` maps flat metric names to floats — the values the
    comparator gates on.  ``info`` carries non-gated context (shapes,
    plan specs, counts) for humans reading the snapshot.
    """

    name: str
    metrics: Dict[str, float] = field(default_factory=dict)
    info: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        return {"name": self.name,
                "metrics": {k: float(v) for k, v in self.metrics.items()},
                "info": self.info}

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "BenchRecord":
        if "name" not in data or "metrics" not in data:
            raise BenchError(f"bench record missing name/metrics: {data!r}")
        return cls(name=str(data["name"]),
                   metrics={str(k): float(v)
                            for k, v in data["metrics"].items()},
                   info=dict(data.get("info", {})))


@dataclass(frozen=True)
class BenchScenario:
    """A registered benchmark: a named, deterministic workload."""

    name: str
    description: str
    fast: bool
    fn: Callable[[BenchContext], BenchRecord]


SCENARIOS: Dict[str, BenchScenario] = {}


def bench_scenario(name: str, description: str, fast: bool = True):
    """Register a scenario function ``fn(ctx) -> BenchRecord``."""

    def decorate(fn: Callable[[BenchContext], BenchRecord]):
        if name in SCENARIOS:
            raise BenchError(f"bench scenario {name!r} already registered")
        SCENARIOS[name] = BenchScenario(name=name, description=description,
                                        fast=fast, fn=fn)
        return fn

    return decorate


# ----------------------------------------------------------------------
# scenario implementations
# ----------------------------------------------------------------------
def _tiny_engine(ctx: BenchContext, batch: int, max_context: int,
                 kv_backend: str = "contiguous"):
    from ..llm import InferenceEngine, NPUTransformer, TransformerWeights
    from ..llm.config import tiny_config

    weights = TransformerWeights.generate(tiny_config(), seed=ctx.seed)
    return InferenceEngine(NPUTransformer(weights), batch=batch,
                           max_context=max_context, device=ctx.device,
                           kv_backend=kv_backend)


def _heap_peak_bytes(engine) -> float:
    return float(sum(s.peak_mapped_bytes for s in engine.heap.sessions))


def _slo_metrics(ctx: BenchContext) -> Dict[str, float]:
    """Token-latency percentiles of the run, flattened for gating."""
    summary = slo_summary(ctx.registry)
    out: Dict[str, float] = {}
    token = summary.get("repro.slo.token_latency_seconds")
    if token is not None:
        for key in ("p50", "p95", "p99"):
            out[f"token_latency_{key}_seconds"] = token[key]
    return out


_BENCH_PROMPT = [3, 1, 4, 1, 5, 9, 2, 6]


@bench_scenario("decode.greedy",
                "lock-step batched decode on the tiny simulator model")
def _bench_decode(ctx: BenchContext) -> BenchRecord:
    from ..llm.sampler import Sampler

    engine = _tiny_engine(ctx, batch=4, max_context=32)
    result = engine.generate(_BENCH_PROMPT, max_new_tokens=8,
                             sampler=Sampler(temperature=0.8, seed=ctx.seed))
    tokens = result.total_generated_tokens
    return BenchRecord("decode.greedy", metrics={
        "sim_seconds": result.sim_seconds,
        "tokens_per_second": tokens / result.sim_seconds,
        "tokens_per_joule": result.tokens_per_joule,
        "decode_steps": float(result.n_decode_steps),
    }, info={"batch": 4, "prompt_tokens": len(_BENCH_PROMPT),
             "new_tokens": 8, "generated_tokens": tokens})


@bench_scenario("prefill",
                "single-sequence prompt prefill on the tiny model")
def _bench_prefill(ctx: BenchContext) -> BenchRecord:
    engine = _tiny_engine(ctx, batch=1, max_context=80)
    prompt = [(i % 500) + 1 for i in range(64)]
    _, cost = engine.prefill(prompt)
    sim = engine.step_seconds(cost)
    return BenchRecord("prefill", metrics={
        "sim_seconds": sim,
        "tokens_per_second": len(prompt) / sim,
    }, info={"prompt_tokens": len(prompt)})


def _bench_waves(ctx: BenchContext, name: str, n_candidates: int,
                 length_schedule: Optional[Sequence[int]],
                 fault_spec: Optional[str] = None) -> BenchRecord:
    from ..llm import ContinuousBatchingScheduler
    from ..llm.sampler import Sampler

    plan = None
    if fault_spec is not None:
        from ..resilience import FaultPlan
        plan = FaultPlan.parse(fault_spec)
    engine = _tiny_engine(ctx, batch=4, max_context=64, kv_backend="paged")
    scheduler = ContinuousBatchingScheduler(engine)
    result = scheduler.generate(
        _BENCH_PROMPT, n_candidates=n_candidates, max_new_tokens=12,
        sampler=Sampler(temperature=0.8, seed=ctx.seed),
        length_schedule=length_schedule, fault_plan=plan)
    tokens = result.total_generated_tokens
    metrics = {
        "sim_seconds": result.sim_seconds,
        "tokens_per_second": tokens / result.sim_seconds,
        "tokens_per_joule": (tokens / result.joules
                             if result.joules > 0.0 else 0.0),
        "mean_live_batch": result.mean_live_batch,
        "peak_kv_bytes": float(result.peak_kv_bytes),
        "rpcmem_peak_bytes": _heap_peak_bytes(engine),
        "decode_steps": float(result.n_steps),
    }
    metrics.update(_slo_metrics(ctx))
    if plan is not None:
        metrics.update({
            "faults": float(result.n_faults),
            "retries": float(result.n_retries),
            "evictions": float(result.n_evictions),
            "rebuilt_tokens": float(result.rebuilt_tokens),
        })
    return BenchRecord(name, metrics=metrics, info={
        "batch": 4, "n_candidates": n_candidates,
        "length_schedule": list(length_schedule) if length_schedule else None,
        "fault_plan": fault_spec, "generated_tokens": tokens})


@bench_scenario("waves.n4",
                "paged Best-of-N, N=4 filling the batch exactly")
def _bench_waves_n4(ctx: BenchContext) -> BenchRecord:
    return _bench_waves(ctx, "waves.n4", n_candidates=4,
                        length_schedule=None)


@bench_scenario("waves.n16",
                "paged Best-of-N, N=16 waved over batch 4 with "
                "heterogeneous lengths")
def _bench_waves_n16(ctx: BenchContext) -> BenchRecord:
    return _bench_waves(ctx, "waves.n16", n_candidates=16,
                        length_schedule=[3, 12, 5, 8])


@bench_scenario("mixed.prefill_decode",
                "long-prompt admission chunk-interleaved into a waved "
                "Best-of-16 decode, stage dispatch live")
def _bench_mixed_prefill_decode(ctx: BenchContext) -> BenchRecord:
    from ..llm import (
        BackendSelector,
        ContinuousBatchingScheduler,
        PromptAdmission,
    )
    from ..llm.sampler import Sampler

    engine = _tiny_engine(ctx, batch=4, max_context=64, kv_backend="paged")
    scheduler = ContinuousBatchingScheduler(engine)
    late_prompt = [(i % 500) + 1 for i in range(20)]
    result = scheduler.generate(
        _BENCH_PROMPT, n_candidates=16, max_new_tokens=12,
        sampler=Sampler(temperature=0.8, seed=ctx.seed),
        length_schedule=[3, 12, 5, 8], prefill_chunk=4,
        dispatch=BackendSelector(ctx.device, engine.model.config),
        admissions=[PromptAdmission(late_prompt, n_candidates=4,
                                    max_new_tokens=8, at_step=6)])
    tokens = result.total_generated_tokens
    metrics = {
        "sim_seconds": result.sim_seconds,
        "tokens_per_second": tokens / result.sim_seconds,
        "tokens_per_joule": (tokens / result.joules
                             if result.joules > 0.0 else 0.0),
        "mean_live_batch": result.mean_live_batch,
        "peak_kv_bytes": float(result.peak_kv_bytes),
        "decode_steps": float(result.n_steps),
        "prefill_chunks": float(result.n_prefill_chunks),
        "backend_switches": float(result.n_backend_switches),
        "migration_seconds": result.migration_seconds,
        "prefill_joules": result.prefill_joules,
    }
    metrics.update(_slo_metrics(ctx))
    summary = slo_summary(ctx.registry)
    chunk = summary.get("repro.slo.prefill_chunk_seconds")
    if chunk is not None:
        metrics["prefill_chunk_p99_seconds"] = chunk["p99"]
    return BenchRecord("mixed.prefill_decode", metrics=metrics, info={
        "batch": 4, "n_candidates": 16, "prefill_chunk": 4,
        "admitted_prompt_tokens": len(late_prompt),
        "admitted_candidates": 4, "admitted_at_step": 6,
        "generated_tokens": tokens})


@bench_scenario("chaos.waves",
                "Best-of-8 under a fixed fault plan (abort+dma+alloc+"
                "throttle)")
def _bench_chaos(ctx: BenchContext) -> BenchRecord:
    return _bench_waves(ctx, "chaos.waves", n_candidates=8,
                        length_schedule=None,
                        fault_spec="abort@2,dma@4,alloc@3,"
                                   "throttle@1:efficiency:4")


@bench_scenario("speculative.greedy",
                "greedy draft-then-verify decode (draft shares the "
                "target vocab)")
def _bench_speculative(ctx: BenchContext) -> BenchRecord:
    from ..llm import NPUTransformer, TransformerWeights
    from ..llm.config import tiny_config
    from ..llm.speculative import SpeculativeDecoder

    target = NPUTransformer(TransformerWeights.generate(
        tiny_config(vocab_size=512), seed=ctx.seed, embedding_std=0.1))
    draft = NPUTransformer(TransformerWeights.generate(
        tiny_config(n_layers=1, hidden_dim=32, n_heads=2, n_kv_heads=1,
                    intermediate_dim=64, vocab_size=512),
        seed=ctx.seed + 1, embedding_std=0.1))
    decoder = SpeculativeDecoder(target, draft, draft_len=4)
    result = decoder.generate([1, 2, 3, 4, 5], 16, temperature=0.0,
                              seed=ctx.seed)
    sim = (ctx.timing.seconds(result.target_cost.npu)
           + ctx.timing.seconds(result.draft_cost.npu))
    return BenchRecord("speculative.greedy", metrics={
        "sim_seconds": sim,
        "tokens_per_second": len(result.tokens) / sim,
        "acceptance_rate": result.acceptance_rate,
        "tokens_per_target_pass": result.tokens_per_target_pass,
    }, info={"draft_len": 4, "new_tokens": len(result.tokens),
             "target_passes": result.target_forward_passes})


@bench_scenario("kernel.gemm",
                "W4A16 mixed-precision GEMM microbench (strategy 'ours')")
def _bench_gemm(ctx: BenchContext) -> BenchRecord:
    import numpy as np

    from ..kernels.gemm import MixedPrecisionGemm

    rng = np.random.default_rng(ctx.seed)
    m, k, n = 32, 256, 256
    kernel = MixedPrecisionGemm(strategy="ours", bits=4)
    prepared = kernel.prepare_weight(
        rng.standard_normal((k, n)).astype(np.float32) * 0.05)
    acts = rng.standard_normal((m, k)).astype(np.float16)
    _, cost = kernel(acts, prepared)
    sim = ctx.timing.seconds(cost)
    flops = 2.0 * m * k * n
    return BenchRecord("kernel.gemm", metrics={
        "sim_seconds": sim,
        "effective_gflops": ctx.timing.effective_gflops(flops, sim),
        "dma_seconds": ctx.timing.dma_seconds(cost),
    }, info={"m": m, "k": k, "n": n, "strategy": "ours", "bits": 4})


@bench_scenario("kernel.attention",
                "FP16 FlashAttention microbench (LUT softmax)")
def _bench_attention(ctx: BenchContext) -> BenchRecord:
    import numpy as np

    from ..kernels.flash_attention import FlashAttention
    from ..npu.memory import TCM

    rng = np.random.default_rng(ctx.seed)
    n_q, n_kv, d = 64, 64, 64
    q = rng.standard_normal((n_q, d)).astype(np.float16)
    kv = rng.standard_normal((n_kv, d)).astype(np.float16)
    attention = FlashAttention(method="lut", tcm=TCM())
    _, breakdown = attention(q, kv, kv)
    cost = breakdown.total()
    sim = ctx.timing.seconds(cost)
    return BenchRecord("kernel.attention", metrics={
        "sim_seconds": sim,
        "hvx_seconds": ctx.timing.hvx_seconds(cost),
    }, info={"n_q": n_q, "n_kv": n_kv, "head_dim": d, "method": "lut"})


@bench_scenario("fleet.small",
                "25-device fleet serving a seeded poisson trace "
                "(capacity plan off)")
def _bench_fleet(ctx: BenchContext) -> BenchRecord:
    from ..fleet import run_fleet

    report = run_fleet(25, 5.0, horizon_seconds=20.0, seed=ctx.seed,
                       pattern="poisson", with_capacity_plan=False)
    token = report.latency["token"]
    return BenchRecord("fleet.small", metrics={
        "sim_seconds": report.throughput["makespan_seconds"],
        "tokens_per_second": report.throughput["tokens_per_second"],
        "token_latency_p50_seconds": token["p50"],
        "token_latency_p95_seconds": token["p95"],
        "token_latency_p99_seconds": token["p99"],
        "busy_fraction": report.throughput["busy_fraction"],
    }, info={"devices": 25, "qps": 5.0, "horizon_seconds": 20.0,
             "completed": report.requests["completed"],
             "shed": report.requests["shed"]})


_CHAOS_FAULT_SPEC = ("dev#0:crash@3:6,dev#1:straggle@2:3:10,"
                     "dev#2:drop@5,dev#3:battery@8,dev#4:crash@12")


@bench_scenario("fleet.chaos",
                "8-device saturated fleet under a fixed fault schedule "
                "with failover and hedging armed")
def _bench_fleet_chaos(ctx: BenchContext) -> BenchRecord:
    from ..fleet import run_fleet

    # saturated on purpose: the queue must back up for crashes to catch
    # dispatches in flight and for the p99 wait tail to trigger hedges
    report = run_fleet(8, 10.0, horizon_seconds=20.0, seed=ctx.seed,
                       pattern="poisson", with_capacity_plan=False,
                       fault_spec=_CHAOS_FAULT_SPEC, hedge=True)
    token = report.latency["token"]
    chaos = report.chaos
    assert chaos is not None
    # completed_requests gates higher and token_latency_p99 lower; the
    # recovery counters and makespan are informational — a chaos run's
    # clock stretches with the fault schedule, not with regressions
    return BenchRecord("fleet.chaos", metrics={
        "completed_requests": float(report.requests["completed"]),
        "token_latency_p99_seconds": token["p99"],
        "makespan_seconds": report.throughput["makespan_seconds"],
        "failed_permanently": float(
            chaos["recovery"]["failed_permanently"]),
        "failovers": float(chaos["recovery"]["failovers"]),
        "hedges": float(chaos["recovery"]["hedges"]),
        "breaker_opens": float(chaos["recovery"]["breaker_opens"]),
    }, info={"devices": 8, "qps": 10.0, "horizon_seconds": 20.0,
             "fault_spec": _CHAOS_FAULT_SPEC, "hedge": True,
             "shed": report.requests["shed"],
             "conservation": chaos["conservation"]})


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------
#: Rows kept per scenario in a ``--self-profile`` table.
PROFILE_TOP_N = 25


def _profile_rows(profiler: Any, top_n: int = PROFILE_TOP_N
                  ) -> List[Dict[str, Any]]:
    """Top-``top_n`` cumulative-time rows from a cProfile run.

    Host wall clock, so the rows are informational (never gated, never
    fingerprinted) — they answer ROADMAP's "where does the *simulator*
    spend its host time" question, not a paper claim.
    """
    import pstats

    stats = pstats.Stats(profiler)
    rows: List[Dict[str, Any]] = []
    for func, (cc, nc, tottime, cumtime, _callers) in stats.stats.items():
        filename, lineno, name = func
        where = name if filename == "~" \
            else f"{os.path.basename(filename)}:{lineno}:{name}"
        rows.append({"function": where, "ncalls": int(nc),
                     "tottime": float(tottime), "cumtime": float(cumtime)})
    rows.sort(key=lambda r: (-r["cumtime"], r["function"]))
    return rows[:max(top_n, 0)]


def render_profile_table(profiles: Dict[str, List[Dict[str, Any]]]) -> str:
    """Per-scenario top-N cumulative-time tables as one text artifact."""
    lines: List[str] = []
    for name in sorted(profiles):
        lines.append(f"== self-profile: {name} "
                     f"(top {len(profiles[name])} by cumulative time) ==")
        lines.append(f"{'function':<56s} {'ncalls':>8s} {'tottime s':>10s} "
                     f"{'cumtime s':>10s}")
        for row in profiles[name]:
            lines.append(f"{row['function']:<56.56s} {row['ncalls']:>8d} "
                         f"{row['tottime']:>10.4f} {row['cumtime']:>10.4f}")
        lines.append("")
    return "\n".join(lines) + ("\n" if lines and lines[-1] else "")


def run_scenario(name: str, device_key: str = DEFAULT_DEVICE,
                 seed: int = DEFAULT_SEED,
                 self_profile: bool = False) -> BenchRecord:
    """Run one registered scenario under fresh tracer/metrics state.

    The record is augmented with the scenario's wall clock
    (informational) and, when the traced run carries kernel costs, the
    per-engine HMX/HVX/DMA/CPU busy fractions of the simulated timeline.
    With ``self_profile`` the scenario body runs under :mod:`cProfile`
    and the top cumulative-time rows are attached as a non-serialized
    ``profile`` attribute on the record (host-side data stays out of
    the snapshot so fingerprints and byte-diffs are unaffected).
    """
    scenario = SCENARIOS.get(name)
    if scenario is None:
        raise BenchError(
            f"unknown bench scenario {name!r}; known: {sorted(SCENARIOS)}")
    from ..npu import DEVICES
    from ..npu.timing import TimingModel

    if device_key not in DEVICES:
        raise BenchError(
            f"unknown device {device_key!r}; known: {sorted(DEVICES)}")
    device = DEVICES[device_key]
    ctx = BenchContext(device=device, timing=TimingModel(device.npu),
                       tracer=obs_trace.Tracer(enabled=True),
                       registry=obs_metrics.MetricsRegistry(), seed=seed)
    prev_tracer = obs_trace.set_tracer(ctx.tracer)
    prev_metrics = obs_metrics.set_metrics(ctx.registry)
    profiler = None
    if self_profile:
        import cProfile
        profiler = cProfile.Profile()
    wall = time.perf_counter()
    try:
        if profiler is not None:
            record = profiler.runcall(scenario.fn, ctx)
        else:
            record = scenario.fn(ctx)
    finally:
        obs_trace.set_tracer(prev_tracer)
        obs_metrics.set_metrics(prev_metrics)
    record.metrics["wall_seconds"] = time.perf_counter() - wall
    record.profile = _profile_rows(profiler) if profiler is not None \
        else None
    try:
        util = engine_utilization(chrome_trace(ctx.tracer,
                                               timing=ctx.timing))
    except ObservabilityError:
        util = None
    if util is not None:
        for lane, fraction in util.items():
            record.metrics[f"util_{lane.lower()}"] = fraction
    record.info.setdefault("device", device_key)
    return record


def environment_fingerprint(seed: int = DEFAULT_SEED) -> Dict[str, Any]:
    """Git sha + toolchain versions + seed: enough to reproduce a run."""
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "git_sha": sha or "unknown",
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "seed": seed,
    }


@dataclass
class BenchSnapshot:
    """One full suite run: fingerprinted, serializable, comparable."""

    fingerprint: Dict[str, Any]
    records: Dict[str, BenchRecord]
    schema: str = SNAPSHOT_SCHEMA

    def to_json(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "fingerprint": self.fingerprint,
            "records": {name: record.to_json()
                        for name, record in sorted(self.records.items())},
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "BenchSnapshot":
        validate_snapshot(data)
        return cls(
            fingerprint=dict(data["fingerprint"]),
            records={name: BenchRecord.from_json(rec)
                     for name, rec in data["records"].items()},
            schema=str(data["schema"]))

    def write(self, path: str) -> str:
        with open(path, "w") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    @classmethod
    def load(cls, path: str) -> "BenchSnapshot":
        try:
            with open(path) as handle:
                data = json.load(handle)
        except OSError as error:
            raise BenchError(f"cannot read bench snapshot {path}: {error}")
        except json.JSONDecodeError as error:
            raise BenchError(f"bench snapshot {path} is not JSON: {error}")
        return cls.from_json(data)


def validate_snapshot(data: Any) -> None:
    """Schema check; raises :class:`BenchError` naming what's wrong."""
    if not isinstance(data, dict):
        raise BenchError(f"bench snapshot must be an object, got "
                         f"{type(data).__name__}")
    missing = [key for key in ("schema", "fingerprint", "records")
               if key not in data]
    if missing:
        raise BenchError(f"bench snapshot missing keys: {missing}")
    if data["schema"] != SNAPSHOT_SCHEMA:
        raise BenchError(
            f"unsupported bench snapshot schema {data['schema']!r} "
            f"(expected {SNAPSHOT_SCHEMA!r})")
    if not isinstance(data["records"], dict) or not data["records"]:
        raise BenchError("bench snapshot has no records")
    for key in ("git_sha", "seed"):
        if key not in data["fingerprint"]:
            raise BenchError(f"bench fingerprint missing {key!r}")
    for name, record in data["records"].items():
        if "metrics" not in record:
            raise BenchError(f"record {name!r} has no metrics")


def run_suite(only: Optional[Sequence[str]] = None,
              device_key: str = DEFAULT_DEVICE,
              seed: int = DEFAULT_SEED,
              fast_only: bool = False,
              self_profile: bool = False) -> BenchSnapshot:
    """Run the registered scenarios and return a fingerprinted snapshot.

    With ``self_profile`` each scenario runs under :mod:`cProfile` and
    the snapshot carries a non-serialized ``profiles`` attribute
    (scenario name -> top cumulative rows) for the CLI's profile
    artifact; ``to_json`` and the fingerprint are unchanged.
    """
    names = list(only) if only else sorted(SCENARIOS)
    if fast_only:
        names = [n for n in names
                 if n not in SCENARIOS or SCENARIOS[n].fast]
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        raise BenchError(
            f"unknown bench scenario(s) {unknown}; known: {sorted(SCENARIOS)}")
    records = {name: run_scenario(name, device_key=device_key, seed=seed,
                                  self_profile=self_profile)
               for name in names}
    snapshot = BenchSnapshot(fingerprint=environment_fingerprint(seed),
                             records=records)
    snapshot.profiles = {name: record.profile
                         for name, record in records.items()
                         if getattr(record, "profile", None)} \
        if self_profile else None
    return snapshot


def next_snapshot_path(directory: str) -> str:
    """Next free ``BENCH_<n>.json`` path in ``directory``."""
    os.makedirs(directory, exist_ok=True)
    taken = set()
    for entry in os.listdir(directory):
        if entry.startswith("BENCH_") and entry.endswith(".json"):
            stem = entry[len("BENCH_"):-len(".json")]
            if stem.isdigit():
                taken.add(int(stem))
    index = max(taken) + 1 if taken else 0
    return os.path.join(directory, f"BENCH_{index}.json")


# ----------------------------------------------------------------------
# comparator
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Threshold:
    """Noise tolerance: a change regresses only past BOTH bounds."""

    rel: float = 0.05
    abs: float = 1e-9


#: Metric-name fragments that decide gating direction.  Anything not
#: matched is informational: recorded, diffed, never gated.
_HIGHER_IS_BETTER = ("tokens_per_second", "acceptance_rate",
                     "tokens_per_target_pass", "mean_live_batch",
                     "effective_gflops", "tokens_per_joule",
                     "completed_requests")
_LOWER_SUFFIXES = ("_bytes",)
_LOWER_EXACT = ("sim_seconds", "dma_seconds", "hvx_seconds")
_LOWER_PREFIXES = ("token_latency_",)


def classify_metric(name: str) -> str:
    """Gating direction of a metric: ``higher``, ``lower`` or ``info``."""
    if name in _HIGHER_IS_BETTER or name.startswith("util_"):
        return "higher"
    if (name in _LOWER_EXACT or name.endswith(_LOWER_SUFFIXES)
            or name.startswith(_LOWER_PREFIXES)):
        return "lower"
    return "info"


@dataclass
class MetricDelta:
    """One metric's movement between baseline and candidate."""

    scenario: str
    metric: str
    baseline: Optional[float]
    candidate: Optional[float]
    direction: str  # "higher" | "lower" | "info"
    status: str  # "ok" | "regression" | "improvement" | "new" | "skipped"

    @property
    def rel_change(self) -> float:
        if self.baseline is None or self.candidate is None:
            return 0.0
        if self.baseline == 0.0:
            return 0.0 if self.candidate == 0.0 else float("inf")
        return (self.candidate - self.baseline) / abs(self.baseline)


@dataclass
class ComparisonReport:
    """Every metric delta of a snapshot diff, plus the gate verdict."""

    deltas: List[MetricDelta] = field(default_factory=list)
    missing_scenarios: List[str] = field(default_factory=list)
    new_scenarios: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.status == "regression"]

    @property
    def improvements(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.status == "improvement"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self, markdown: bool = False) -> str:
        sep = " | " if markdown else "  "
        lines: List[str] = []
        if markdown:
            lines.append("| scenario | metric | baseline | candidate "
                         "| change | status |")
            lines.append("|---|---|---|---|---|---|")
        else:
            lines.append(f"{'scenario':<20s}{sep}{'metric':<28s}{sep}"
                         f"{'baseline':>14s}{sep}{'candidate':>14s}{sep}"
                         f"{'change':>9s}{sep}status")
        ordered = sorted(
            self.deltas,
            key=lambda d: ({"regression": 0, "improvement": 1, "new": 2,
                            "skipped": 2, "ok": 3}[d.status],
                           d.scenario, d.metric))
        for delta in ordered:
            if delta.status == "ok" and delta.direction == "info":
                continue  # keep the report readable
            base = "-" if delta.baseline is None else f"{delta.baseline:.6g}"
            cand = "-" if delta.candidate is None else f"{delta.candidate:.6g}"
            change = ("-" if delta.baseline is None or delta.candidate is None
                      else f"{100.0 * delta.rel_change:+.1f}%")
            if markdown:
                lines.append(f"| {delta.scenario} | {delta.metric} | {base} "
                             f"| {cand} | {change} | {delta.status} |")
            else:
                lines.append(f"{delta.scenario:<20s}{sep}"
                             f"{delta.metric:<28s}{sep}{base:>14s}{sep}"
                             f"{cand:>14s}{sep}{change:>9s}{sep}"
                             f"{delta.status}")
        for name in self.missing_scenarios:
            lines.append(f"scenario {name}: in baseline only (skipped)")
        for name in self.new_scenarios:
            lines.append(f"scenario {name}: new (no baseline)")
        verdict = ("OK" if self.ok
                   else f"REGRESSION ({len(self.regressions)} metric(s))")
        lines.append("")
        lines.append(f"verdict: {verdict}; {len(self.improvements)} "
                     f"improvement(s)")
        return "\n".join(lines)


def _threshold_for(scenario: str, metric: str,
                   thresholds: Optional[Dict[str, Threshold]],
                   default: Threshold) -> Threshold:
    if thresholds:
        for key in (f"{scenario}.{metric}", metric):
            if key in thresholds:
                return thresholds[key]
    return default


def compare_snapshots(baseline: BenchSnapshot, candidate: BenchSnapshot,
                      thresholds: Optional[Dict[str, Threshold]] = None,
                      default_threshold: Threshold = Threshold()
                      ) -> ComparisonReport:
    """Direction-aware diff of two snapshots.

    Scenarios present only in one snapshot are listed but never gate
    (so a ``--only``/``--fast`` run can still be checked against a full
    baseline).  ``thresholds`` overrides the default per metric, keyed
    by ``"scenario.metric"`` or bare ``"metric"``.
    """
    report = ComparisonReport()
    report.missing_scenarios = sorted(
        set(baseline.records) - set(candidate.records))
    report.new_scenarios = sorted(
        set(candidate.records) - set(baseline.records))
    for name in sorted(set(baseline.records) & set(candidate.records)):
        base_metrics = baseline.records[name].metrics
        cand_metrics = candidate.records[name].metrics
        for metric in sorted(set(base_metrics) | set(cand_metrics)):
            direction = classify_metric(metric)
            base = base_metrics.get(metric)
            cand = cand_metrics.get(metric)
            if base is None:
                status = "new"
            elif cand is None:
                status = "skipped"
            elif direction == "info":
                status = "ok"
            else:
                thr = _threshold_for(name, metric, thresholds,
                                     default_threshold)
                delta = cand - base
                bad = delta > 0 if direction == "lower" else delta < 0
                rel = (abs(delta) / abs(base) if base != 0.0
                       else (0.0 if delta == 0.0 else float("inf")))
                if abs(delta) <= thr.abs or rel <= thr.rel:
                    status = "ok"
                else:
                    status = "regression" if bad else "improvement"
            report.deltas.append(MetricDelta(
                scenario=name, metric=metric, baseline=base, candidate=cand,
                direction=direction, status=status))
    return report
