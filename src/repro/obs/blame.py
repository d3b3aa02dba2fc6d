"""Fleet-wide latency blame aggregation and the ``repro explain`` report.

:mod:`repro.obs.critical_path` answers "where did *this* request's time
go"; this module answers the operator's question — "where does the
fleet's p99 go, and which phase do I fix first".  It folds per-request
:class:`~repro.obs.critical_path.RequestExplanation` records into:

* an overall blame breakdown (integer nanoseconds per phase, plus
  fractions),
* percentile-conditioned cohorts — the p50 and p99 tails get their own
  breakdowns, because the phase that dominates the median is routinely
  not the one that dominates the tail (queue wait and failover backoff
  live almost entirely in the p99 cohort),
* per-device and per-tenant-class splits (fleet logs),
* a top-K exemplar drill-down: the slowest requests rendered as
  annotated waterfalls.

Everything serializes under schema ``repro.explain/v1`` with sorted
keys and integer ledgers, so a double run of the same (scenario,
device, seed) — or the same fleet config — produces byte-identical
JSON.  Two checks diff exactly that: the ``explain`` case of
``test_cli_replays_across_hash_seeds`` in
``tests/test_host_clock_poisoning.py``, and the ``fleet`` fuzz
oracle's ``explain`` trials.  Conservation is asserted
while aggregating: a report cannot be built from explanations whose
blame does not sum to their latency.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..errors import ObservabilityError
from .critical_path import (RequestExplanation, explain_log,
                            validate_lifecycle)
from .slo import percentile_cutoff
from .timeline import EventLog

__all__ = ["EXPLAIN_SCHEMA", "BLAME_PERCENTILES", "aggregate_blame",
           "render_waterfall", "ExplainReport", "run_explain",
           "explain_section"]

EXPLAIN_SCHEMA = "repro.explain/v1"

#: Cohort cutoffs the aggregate conditions blame on.
BLAME_PERCENTILES = (50.0, 99.0)

#: Exemplar waterfalls kept in reports.
DEFAULT_TOP_K = 5


def _dominant(blame_ns: Dict[str, int]) -> str:
    if not blame_ns:
        return "none"
    return max(sorted(blame_ns), key=lambda p: blame_ns[p])


def _fold(into: Dict[str, int], blame_ns: Dict[str, int]) -> None:
    for phase, ns in blame_ns.items():
        into[phase] = into.get(phase, 0) + ns


def _slowest(explanations: List[RequestExplanation],
             top_k: int) -> List[RequestExplanation]:
    """The ``top_k`` slowest requests, ties to the lower request id.

    Request ids are unique, so the key is a total order and
    ``heapq.nsmallest`` returns exactly the head of the full sort.
    """
    return heapq.nsmallest(max(top_k, 0), explanations,
                           key=lambda e: (-e.latency_ns, e.request_id))


def _fold_group(groups: Dict[str, List[Any]], key: Any,
                blame_ns: Dict[str, int]) -> None:
    """Count one request into ``groups[str(key)]`` (``[n, blame]``)."""
    if key is not None:
        group = groups.setdefault(str(key), [0, {}])
        group[0] += 1
        _fold(group[1], blame_ns)


def _entry(n_requests: int, blame: Dict[str, int]) -> Dict[str, Any]:
    return {"n_requests": n_requests,
            "blame_ns": {k: blame[k] for k in sorted(blame)},
            "dominant_phase": _dominant(blame)}


def aggregate_blame(explanations: List[RequestExplanation],
                    top_k: int = DEFAULT_TOP_K) -> Dict[str, Any]:
    """Fold per-request explanations into the fleet-wide blame section.

    One pass checks each request's conservation before folding it, then
    folds its outcome, the totals and (fleet requests) its per-device
    and per-tenant groups.  The percentile cohorts fold after it, with
    cutoffs from one sorted latency list.  The returned dict is
    JSON-ready (integers, strings, floats only) and deterministic for a
    deterministic input list.
    """
    outcomes: Dict[str, int] = {}
    blame_total: Dict[str, int] = {}
    energy_total: Dict[str, int] = {}
    per_device: Dict[str, List[Any]] = {}
    per_tenant: Dict[str, List[Any]] = {}
    latencies: List[int] = []
    total_nj = 0
    any_fleet = False
    for expl in explanations:
        expl.check_conservation()
        latencies.append(expl.latency_ns)
        total_nj += expl.total_nj
        outcomes[expl.outcome] = outcomes.get(expl.outcome, 0) + 1
        _fold(blame_total, expl.blame_ns)
        _fold(energy_total, expl.energy_nj)
        if expl.kind == "fleet":
            any_fleet = True
            _fold_group(per_device, expl.device, expl.blame_ns)
            _fold_group(per_tenant, expl.tenant, expl.blame_ns)
    total_latency = sum(latencies)

    out: Dict[str, Any] = {
        "n_requests": len(explanations),
        "outcomes": {k: outcomes[k] for k in sorted(outcomes)},
        "total_latency_ns": total_latency,
        "blame_ns": {k: blame_total[k] for k in sorted(blame_total)},
        "blame_fraction": {
            k: blame_total[k] / total_latency if total_latency else 0.0
            for k in sorted(blame_total)},
        "dominant_phase": _dominant(blame_total),
        "total_nj": total_nj,
        "energy_nj": {k: energy_total[k] for k in sorted(energy_total)},
    }

    cohorts: Dict[str, Any] = {}
    if latencies:
        ranked = sorted(latencies)
        for q in BLAME_PERCENTILES:
            cutoff = percentile_cutoff(ranked, q)
            members = 0
            blame: Dict[str, int] = {}
            for expl, latency in zip(explanations, latencies):
                if latency >= cutoff:
                    members += 1
                    _fold(blame, expl.blame_ns)
            cohorts[f"p{q:g}"] = {"cutoff_ns": cutoff,
                                  **_entry(members, blame)}
    out["cohorts"] = cohorts

    if any_fleet:
        for name, groups in (("per_device", per_device),
                             ("per_tenant", per_tenant)):
            out[name] = {k: _entry(*groups[k]) for k in sorted(groups)}

    out["exemplars"] = [e.to_json() for e in _slowest(explanations, top_k)]
    return out


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def render_waterfall(expl: RequestExplanation, width: int = 40) -> str:
    """One request's phases as an annotated text waterfall."""
    lines = [
        f"request {expl.request_id}  latency "
        f"{expl.latency_ns / 1e6:.3f} ms  outcome {expl.outcome}  "
        f"dominant {expl.dominant_phase()}"]
    span = max(expl.latency_ns, 1)
    for s in expl.slices:
        offset = s.start_ns - expl.start_ns
        pad = int(round(offset / span * width))
        bar = max(int(round(s.duration_ns / span * width)), 1)
        lines.append(
            f"  [{offset / 1e6:>10.3f} .. "
            f"{(s.end_ns - expl.start_ns) / 1e6:>10.3f} ms] "
            f"{s.phase:<16s} {' ' * pad}{'#' * bar}")
    return "\n".join(lines)


def _blame_table(blame_ns: Dict[str, int], total_ns: int) -> List[str]:
    lines = [f"{'phase':<18s} {'ms':>12s} {'share':>7s}"]
    for phase in sorted(blame_ns, key=lambda p: -blame_ns[p]):
        ns = blame_ns[phase]
        share = ns / total_ns if total_ns else 0.0
        lines.append(f"{phase:<18s} {ns / 1e6:>12.3f} {share:>6.1%}")
    return lines


# ----------------------------------------------------------------------
# the explain report (single recorded run)
# ----------------------------------------------------------------------
@dataclass
class ExplainReport:
    """Critical-path blame for one recorded scenario replay."""

    scenario: str
    device: str
    seed: int
    kind: str                  # "scheduler" | "fleet"
    n_events: int
    aggregate: Dict[str, Any]
    lifecycle_problems: List[str] = field(default_factory=list)
    explanations: List[RequestExplanation] = field(default_factory=list)
    # run artifacts for trace export; never serialized
    log: Any = None
    tracer: Any = None

    def critical_paths(self) -> Dict[int, Any]:
        """Request id -> phase slices, the shape the trace exporter takes."""
        return {e.request_id: e.slices for e in self.explanations}

    def to_json(self) -> Dict[str, Any]:
        return {
            "schema": EXPLAIN_SCHEMA,
            "scenario": self.scenario,
            "device": self.device,
            "seed": self.seed,
            "kind": self.kind,
            "n_events": self.n_events,
            "lifecycle_problems": list(self.lifecycle_problems),
            "aggregate": self.aggregate,
            "requests": [e.to_json() for e in self.explanations],
        }

    def to_json_text(self) -> str:
        """Canonical serialization (sorted keys) for byte-wise diffing."""
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"

    def render(self, top_k: int = DEFAULT_TOP_K) -> str:
        agg = self.aggregate
        lines = [f"== explain: {self.scenario} on {self.device} "
                 f"(seed {self.seed}, {self.kind} log) =="]
        lines.append(f"requests explained {agg['n_requests']}")
        outcomes = " ".join(f"{k}={v}"
                            for k, v in agg["outcomes"].items())
        lines.append(f"outcomes           {outcomes}")
        lines.append(f"attributed time    "
                     f"{agg['total_latency_ns'] / 1e6:.3f} ms")
        lines.append(f"attributed energy  {agg['total_nj'] / 1e9:.6f} J")
        if self.lifecycle_problems:
            lines.append(f"lifecycle problems {len(self.lifecycle_problems)}")
            for problem in self.lifecycle_problems:
                lines.append(f"  ! {problem}")
        lines.append("")
        lines.append("== blame (all requests) ==")
        lines.extend(_blame_table(agg["blame_ns"],
                                  agg["total_latency_ns"]))
        for name, cohort in agg.get("cohorts", {}).items():
            lines.append("")
            lines.append(
                f"== blame ({name} cohort: {cohort['n_requests']} "
                f"requests >= {cohort['cutoff_ns'] / 1e6:.3f} ms, "
                f"dominant {cohort['dominant_phase']}) ==")
            total = sum(cohort["blame_ns"].values())
            lines.extend(_blame_table(cohort["blame_ns"], total))
        exemplars = _slowest(self.explanations, top_k)
        if exemplars:
            lines.append("")
            lines.append(f"== slowest {len(exemplars)} requests ==")
            for expl in exemplars:
                lines.append(render_waterfall(expl))
        return "\n".join(lines) + "\n"


def run_explain(scenario: str = "chaos.waves",
                device_key: Optional[str] = None,
                seed: Optional[int] = None,
                top_k: int = DEFAULT_TOP_K) -> ExplainReport:
    """Replay ``scenario`` with the event log armed; explain every request.

    Reuses the :func:`~repro.obs.monitor.run_monitor` replay (same
    scenario registry, same deterministic arming), then reconstructs
    the critical path of every request the log saw.  The report is a
    pure function of (scenario, device, seed) — byte-identical JSON on
    a double run.
    """
    from .bench import DEFAULT_DEVICE, DEFAULT_SEED
    from .monitor import run_monitor

    device_key = device_key if device_key is not None else DEFAULT_DEVICE
    seed = seed if seed is not None else DEFAULT_SEED
    monitor = run_monitor(scenario, device_key=device_key, seed=seed)
    log: EventLog = monitor.log
    kind, explanations = explain_log(log)
    return ExplainReport(
        scenario=scenario, device=device_key, seed=seed, kind=kind,
        n_events=len(log),
        aggregate=aggregate_blame(explanations, top_k=top_k),
        lifecycle_problems=validate_lifecycle(log),
        explanations=explanations, log=log,
        tracer=monitor.tracer)


def explain_section(log: EventLog,
                    top_k: int = DEFAULT_TOP_K) -> Dict[str, Any]:
    """The embeddable blame section a fleet report carries.

    Validates lifecycle completeness first — a fleet run whose log
    cannot be fully reconstructed should fail loudly, not report a
    partial blame ledger.
    """
    problems = validate_lifecycle(log)
    if problems:
        raise ObservabilityError(
            "cannot explain an incomplete timeline:\n  "
            + "\n  ".join(problems))
    kind, explanations = explain_log(log)
    return {
        "schema": EXPLAIN_SCHEMA,
        "kind": kind,
        "n_events": len(log),
        "aggregate": aggregate_blame(explanations, top_k=top_k),
    }
