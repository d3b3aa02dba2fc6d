"""Fleet capacity reports: run a scenario, summarize, plan capacity.

:func:`run_fleet` is the one-call entry the CLI, the bench scenario,
the golden fixture and the fuzz oracle all share: build a seeded trace,
build a population, simulate, and fold the result into a
:class:`FleetReport` whose ``--json`` serialization (schema
``repro.fleet/v1``) is byte-identical across replays — every number in
it derives from the simulated clock and seeded RNG streams, never from
the host.

:func:`plan_capacity` answers the serving question the report exists
for: *how many phones does this QPS need to hold a p99 token-latency
target?*  It probes short deterministic simulations over a doubling
then bisecting device count; a probe passes when it sheds nothing,
serves everything, and holds the target.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..errors import FleetError
from ..obs.context import scope
from ..obs.slo import histogram_summary
from ..obs.timeline import EventLog
from ..resilience.faults import FaultPlan
from .devices import build_population
from .health import FailoverPolicy, HedgePolicy
from .load import ARRIVAL_PATTERNS, TraceConfig, generate_trace
from .requests import AdmissionController
from .simulation import FleetResult, FleetSimulation

__all__ = ["FLEET_SCHEMA", "FleetReport", "run_fleet", "plan_capacity",
           "DEFAULT_P99_TARGET_MS", "MAX_PLANNED_DEVICES"]

FLEET_SCHEMA = "repro.fleet/v1"

#: Default p99 time-per-output-token target: 250 ms/token keeps a
#: 32-token answer under ~8 s end to end at the tail.
DEFAULT_P99_TARGET_MS = 250.0

#: Capacity-search ceiling; a target unreachable below it reports null.
MAX_PLANNED_DEVICES = 4096

#: Probe length of one capacity-search simulation, in trace seconds.
_PROBE_HORIZON_SECONDS = 12.0

#: Probe QPS multipliers around the requested operating point.
_CAPACITY_CURVE = (0.5, 1.0, 2.0)


@dataclass
class FleetReport:
    """One serving window, summarized for machines and humans."""

    config: Dict[str, Any]
    population: Dict[str, Any]
    requests: Dict[str, Any]
    latency: Dict[str, Any]
    throughput: Dict[str, Any]
    energy: Dict[str, Any]
    thermal: Dict[str, Any]
    capacity: Dict[str, Any]
    #: Chaos/recovery section; present only when a fault plan or
    #: hedging was armed, so fault-free reports stay byte-identical to
    #: the pre-chaos schema.
    chaos: Optional[Dict[str, Any]] = None
    #: Critical-path blame section (schema ``repro.explain/v1``);
    #: present only when the run was recorded with ``explain=True``,
    #: so un-explained reports keep their existing byte-exact shape.
    explain: Optional[Dict[str, Any]] = None
    schema: str = FLEET_SCHEMA
    #: The raw result, for tests and trace export; never serialized.
    result: Optional[FleetResult] = field(default=None, repr=False)

    def to_json(self) -> Dict[str, Any]:
        out = {
            "schema": self.schema,
            "config": self.config,
            "population": self.population,
            "requests": self.requests,
            "latency": self.latency,
            "throughput": self.throughput,
            "energy": self.energy,
            "thermal": self.thermal,
            "capacity": self.capacity,
        }
        if self.chaos is not None:
            out["chaos"] = self.chaos
        if self.explain is not None:
            out["explain"] = self.explain
        return out

    def to_json_text(self) -> str:
        """Canonical serialization (sorted keys) for byte-wise diffing."""
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"

    def render(self) -> str:
        token = self.latency["token"]
        request = self.latency["request"]
        wait = self.latency["queue_wait"]
        lines: List[str] = []
        lines.append(
            f"== fleet: {self.config['devices']} devices @ "
            f"{self.config['qps']:g} qps ({self.config['pattern']}, seed "
            f"{self.config['seed']}) ==")
        lines.append(f"requests           "
                     f"{self.requests['offered']} offered / "
                     f"{self.requests['completed']} completed / "
                     f"{self.requests['shed']} shed / "
                     f"{self.requests['unserved']} unserved")
        lines.append(f"makespan           "
                     f"{self.throughput['makespan_seconds']:.3f} s "
                     f"(util {self.throughput['busy_fraction']:.1%}, "
                     f"peak queue {self.requests['peak_queue_depth']})")
        lines.append(f"tokens             {int(self.throughput['tokens'])} "
                     f"({self.throughput['tokens_per_second']:.0f} tok/s)")
        lines.append(
            f"token latency      p50 {token['p50'] * 1e3:.1f} ms · "
            f"p95 {token['p95'] * 1e3:.1f} ms · "
            f"p99 {token['p99'] * 1e3:.1f} ms")
        lines.append(
            f"request latency    p50 {request['p50']:.3f} s · "
            f"p95 {request['p95']:.3f} s · p99 {request['p99']:.3f} s")
        lines.append(
            f"queue wait         p50 {wait['p50'] * 1e3:.1f} ms · "
            f"p99 {wait['p99'] * 1e3:.1f} ms · max {wait['max']:.3f} s")
        lines.append(f"energy             "
                     f"{self.energy['total_joules']:.1f} J total, "
                     f"{self.energy['batteries_depleted']} batteries "
                     f"depleted")
        lines.append(f"thermal            "
                     f"{self.thermal['throttle_events']} throttle events "
                     f"across {self.thermal['devices_throttled']} devices")
        if self.chaos is not None:
            faults = self.chaos["faults"]
            recovery = self.chaos["recovery"]
            ledger = self.chaos["conservation"]
            lines.append("")
            spec = self.chaos["fault_spec"] or "(none)"
            lines.append(f"== chaos: {spec} "
                         f"(hedge {'on' if self.chaos['hedge'] else 'off'})"
                         f" ==")
            lines.append(f"faults             "
                         f"{faults['fleet_events']} fleet events: "
                         f"{faults['crashes']} crashes "
                         f"({faults['reboots']} reboots) / "
                         f"{faults['straggles']} straggles / "
                         f"{faults['drops']} drops / "
                         f"{faults['battery_drains']} battery drains")
            lines.append(f"recovery           "
                         f"{recovery['failovers']} failovers "
                         f"({recovery['failed_permanently']} exhausted) / "
                         f"{recovery['hedges']} hedges "
                         f"({recovery['hedge_cancelled']} cancelled) / "
                         f"breakers {recovery['breaker_opens']} opened, "
                         f"{recovery['breaker_closes']} closed")
            lines.append(f"conservation       "
                         f"{ledger['offered']} offered = "
                         f"{ledger['completed']} completed + "
                         f"{ledger['shed']} shed + "
                         f"{ledger['failed_permanently']} failed + "
                         f"{ledger['unserved']} unserved")
        if self.explain is not None:
            agg = self.explain["aggregate"]
            lines.append("")
            lines.append(
                f"== blame (critical path, {agg['n_requests']} requests "
                f"explained) ==")
            total = agg["total_latency_ns"]
            for phase in sorted(agg["blame_ns"],
                                key=lambda p: -agg["blame_ns"][p]):
                ns = agg["blame_ns"][phase]
                share = ns / total if total else 0.0
                lines.append(f"  {phase:<18s} {ns / 1e9:>10.3f} s "
                             f"{share:>6.1%}")
            for name, cohort in agg["cohorts"].items():
                lines.append(
                    f"  {name} cohort ({cohort['n_requests']} requests "
                    f">= {cohort['cutoff_ns'] / 1e9:.3f} s): dominant "
                    f"{cohort['dominant_phase']}")
        lines.append("")
        lines.append(f"== capacity @ p99 token latency <= "
                     f"{self.capacity['p99_target_ms']:g} ms ==")
        if not self.capacity["points"]:
            lines.append("  (capacity plan skipped)")
            return "\n".join(lines) + "\n"
        for point in self.capacity["points"]:
            needed = point["devices_needed"]
            label = str(needed) if needed is not None else (
                f">{MAX_PLANNED_DEVICES}")
            lines.append(f"  {point['qps']:>8.2f} qps -> {label:>6s} devices")
        needed = self.capacity["devices_needed"]
        lines.append(
            f"devices needed     "
            f"{needed if needed is not None else f'>{MAX_PLANNED_DEVICES}'}"
            f" at {self.config['qps']:g} qps")
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------
def _trace_config(qps: float, horizon_seconds: Optional[float],
                  max_requests: Optional[int], seed: int,
                  pattern: str) -> TraceConfig:
    return TraceConfig(qps=qps, horizon_seconds=horizon_seconds,
                       max_requests=max_requests, seed=seed,
                       pattern=pattern)


def _simulate(n_devices: int, trace: TraceConfig,
              queue_depth: int, model_name: str,
              battery_capacity_joules: float,
              fault_plan: Optional[FaultPlan] = None,
              hedge: bool = False) -> FleetResult:
    requests = generate_trace(trace)
    population = build_population(
        n_devices, model_name=model_name,
        battery_capacity_joules=battery_capacity_joules)
    simulation = FleetSimulation(
        population, requests,
        admission=AdmissionController(max_queue_depth=queue_depth),
        fault_plan=fault_plan,
        failover=FailoverPolicy(seed=trace.seed),
        hedge=HedgePolicy() if hedge else None,
        seed=trace.seed)
    return simulation.run()


def plan_capacity(qps: float, p99_target_seconds: float, seed: int,
                  pattern: str = "poisson", queue_depth: int = 64,
                  model_name: str = "qwen2.5-1.5b",
                  battery_capacity_joules: float = 6.9e4,
                  probe_horizon_seconds: float = _PROBE_HORIZON_SECONDS,
                  max_devices: int = MAX_PLANNED_DEVICES) -> Optional[int]:
    """Fewest devices holding the p99 token-latency target at ``qps``.

    A candidate count passes when its probe simulation sheds nothing,
    serves every arrival, and holds p99 token latency at or under the
    target.  Doubling finds an upper bound, bisection tightens it; the
    probe trace is fixed per (qps, seed, pattern), so the answer is a
    deterministic function of the inputs.  Each probe runs in its own
    observability scope, so no caller's sink sees it.  Returns ``None``
    when even ``max_devices`` cannot hold the target.
    """
    if p99_target_seconds <= 0:
        raise FleetError(
            f"p99 target must be positive, got {p99_target_seconds}")
    trace = _trace_config(qps, probe_horizon_seconds, None, seed, pattern)

    def holds(n_devices: int) -> bool:
        with scope():
            result = _simulate(n_devices, trace, queue_depth, model_name,
                               battery_capacity_joules)
        if result.n_shed or result.n_unserved:
            return False
        if result.n_completed == 0:
            return True  # an empty probe trace constrains nothing
        summary = histogram_summary(result.token_latency())
        return summary["p99"] <= p99_target_seconds

    lo, hi = 0, 1
    while not holds(hi):
        if hi >= max_devices:
            return None
        lo, hi = hi, min(hi * 2, max_devices)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def run_fleet(n_devices: int, qps: float,
              horizon_seconds: Optional[float] = 60.0,
              max_requests: Optional[int] = None,
              seed: int = 0, pattern: str = "poisson",
              queue_depth: int = 64,
              p99_target_ms: float = DEFAULT_P99_TARGET_MS,
              model_name: str = "qwen2.5-1.5b",
              battery_capacity_joules: float = 6.9e4,
              with_capacity_plan: bool = True,
              fault_spec: str = "",
              hedge: bool = False,
              explain: bool = False) -> FleetReport:
    """Simulate one serving window and fold it into a report.

    ``fault_spec`` arms a :class:`FaultPlan` of ``dev#K:...`` fleet
    fault events on the simulation's event loop; ``hedge`` turns on
    p99-tail hedged dispatch.  Either adds a ``chaos`` section to the
    report; with both at their defaults the report is byte-identical
    to the pre-chaos schema (capacity probes always run fault-free).

    ``explain=True`` records the run in its own scope, on a private
    event log, and adds a critical-path blame section (schema
    ``repro.explain/v1``): every request's latency and joules attributed
    to queue wait / service / lost work / failover backoff, with p50/p99
    cohort breakdowns.  Without it the run records into the caller's
    context.  Only the main simulation is recorded — capacity probes
    stay unobserved, so the rest of the report is unchanged by
    explaining.
    """
    if pattern not in ARRIVAL_PATTERNS:
        raise FleetError(
            f"unknown arrival pattern {pattern!r}; known: "
            f"{ARRIVAL_PATTERNS}")
    fault_plan = FaultPlan.parse(fault_spec) if fault_spec else None
    trace = _trace_config(qps, horizon_seconds, max_requests, seed, pattern)
    log: Optional[EventLog] = None
    if explain:
        log = EventLog(enabled=True)
        with scope(log=log):
            result = _simulate(n_devices, trace, queue_depth, model_name,
                               battery_capacity_joules,
                               fault_plan=fault_plan, hedge=hedge)
    else:
        result = _simulate(n_devices, trace, queue_depth, model_name,
                           battery_capacity_joules, fault_plan=fault_plan,
                           hedge=hedge)

    by_generation: Dict[str, int] = {}
    for device in result.devices:
        by_generation[device.generation] = (
            by_generation.get(device.generation, 0) + 1)
    token = histogram_summary(result.token_latency())
    target_seconds = p99_target_ms * 1e-3

    points: List[Dict[str, Any]] = []
    devices_needed: Optional[int] = None
    if with_capacity_plan:
        for factor in _CAPACITY_CURVE:
            point_qps = qps * factor
            needed = plan_capacity(
                point_qps, target_seconds, seed, pattern=pattern,
                queue_depth=queue_depth, model_name=model_name,
                battery_capacity_joules=battery_capacity_joules)
            points.append({"qps": point_qps, "devices_needed": needed})
            if factor == 1.0:
                devices_needed = needed

    chaos: Optional[Dict[str, Any]] = None
    if fault_plan is not None or hedge:
        chaos = {
            "fault_spec": fault_spec,
            "hedge": hedge,
            "faults": {
                "fleet_events": result.n_fleet_faults,
                "crashes": result.n_crashes,
                "reboots": result.n_reboots,
                "straggles": result.n_straggles,
                "drops": result.n_drops,
                "battery_drains": result.n_battery_faults,
            },
            "recovery": {
                "failovers": result.n_failovers,
                "failed_permanently": result.n_failed,
                "hedges": result.n_hedges,
                "hedge_cancelled": result.n_hedge_cancelled,
                "breaker_opens": result.n_breaker_opens,
                "breaker_closes": result.n_breaker_closes,
            },
            "conservation": result.conservation(),
        }

    explain_data: Optional[Dict[str, Any]] = None
    if log is not None:
        from ..obs.blame import explain_section
        explain_data = explain_section(log)
        explained = explain_data["aggregate"]["n_requests"]
        if explained != result.n_arrivals:
            raise FleetError(
                f"explain ledger violated: {result.n_arrivals} offered "
                f"requests but {explained} explained")

    makespan = result.makespan_seconds
    return FleetReport(
        config={
            "devices": n_devices,
            "qps": qps,
            "horizon_seconds": horizon_seconds,
            "max_requests": max_requests,
            "seed": seed,
            "pattern": pattern,
            "queue_depth": queue_depth,
            "p99_target_ms": p99_target_ms,
            "model": model_name,
            "battery_capacity_joules": battery_capacity_joules,
        },
        population={"total": len(result.devices),
                    "by_generation": {k: by_generation[k]
                                      for k in sorted(by_generation)}},
        requests={
            "offered": result.n_arrivals,
            "dispatched": result.n_dispatched,
            "completed": result.n_completed,
            "shed": result.n_shed,
            "unserved": result.n_unserved,
            "peak_queue_depth": result.peak_queue_depth,
        },
        latency={
            "token": token,
            "request": histogram_summary(result.request_latency),
            "queue_wait": histogram_summary(result.queue_wait),
        },
        throughput={
            "tokens": float(result.tokens),
            "tokens_per_second": (result.tokens / makespan
                                  if makespan > 0.0 else 0.0),
            "completed_per_second": (result.n_completed / makespan
                                     if makespan > 0.0 else 0.0),
            "makespan_seconds": makespan,
            "busy_fraction": result.busy_fraction(),
        },
        energy={
            "total_joules": result.joules,
            "joules_per_token": (result.joules / result.tokens
                                 if result.tokens else 0.0),
            "batteries_depleted": result.n_batteries_depleted,
            "mean_battery_remaining": (
                sum(d.battery.remaining_fraction
                    for d in result.devices) / len(result.devices)),
        },
        thermal={
            "throttle_events": result.n_throttle_events,
            "recovery_events": sum(d.thermal.n_recoveries
                                   for d in result.devices),
            "devices_throttled": sum(1 for d in result.devices
                                     if d.thermal.n_throttles),
        },
        capacity={
            "p99_target_ms": p99_target_ms,
            "points": points,
            "devices_needed": devices_needed,
        },
        chaos=chaos,
        explain=explain_data,
        result=result)
