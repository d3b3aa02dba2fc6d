"""Chrome-trace (Perfetto) export and text reporting for traced runs.

Converts a :class:`~repro.obs.trace.Tracer`'s spans into the
``chrome://tracing`` JSON event format, which Perfetto
(https://ui.perfetto.dev) opens directly.  Two timelines are emitted in
one process:

* **host threads** — the wall-clock span hierarchy as recorded, one
  Chrome thread per Python thread;
* **the simulated timeline** of a recorded event log: one lane per
  request, critical-path blame bars, and ``HMX`` / ``HVX`` / ``DMA`` /
  ``CPU`` engine lanes folded from the energy ledger's charges (the
  figures ``util_*`` folds, :mod:`repro.obs.energy`).  The gap between
  an engine's bars and its steps is idle capacity — the HMX lane during
  batched decode shows exactly the Fig. 8 / §4 headroom the paper's
  test-time scaling rides on.

:func:`text_report` prices each cost-bearing kernel span with a timing
model passed in by the caller and used duck-typed, so the module
imports nothing from :mod:`repro.npu` and the observability layer sits
below every subsystem without cycles.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence, Union

from .energy import CHARGE_PHASES, LANES
from .trace import Span, Tracer

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "text_report",
    "report_data",
]

_PID = 1
_HOST_TID_BASE = 1
_ENGINE_TIDS = {lane: 100 + i for i, lane in enumerate(LANES)}
#: Run-level timeline events (no request id) land on this lane; request
#: lanes are ``_REQUEST_TID_BASE + request_id``.
_RUN_EVENTS_TID = 199
_REQUEST_TID_BASE = 200


def _spans_of(source: Union[Tracer, Sequence[Span]]) -> List[Span]:
    if isinstance(source, Tracer):
        return source.finished_spans()
    return list(source)


def _json_safe(value: Any) -> Any:
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


def _events_of(events: Any) -> List[Any]:
    """Normalize an EventLog-or-sequence argument (duck-typed)."""
    if events is None:
        return []
    if hasattr(events, "events"):
        return list(events.events())
    return list(events)


def _engine_lane_events(timeline_events: List[Any]) -> List[Dict[str, Any]]:
    """One bar per busy lane of each charge, inside its step.

    A charge is emitted when its step of ``seconds`` ends.  The NPU
    lanes open at the step's start; the CPU lane (the lm_head, which
    consumes the NPU's output) closes at its end.  Each lane's bars sum
    to the ledger's busy seconds.
    """
    out: List[Dict[str, Any]] = []
    for event in timeline_events:
        if event.kind not in CHARGE_PHASES:
            continue
        end = event.sim_time
        start = end - float(event.attrs.get("seconds", 0.0))
        for lane in LANES:
            busy = float(event.attrs.get(f"{lane}_s", 0.0))
            if busy <= 0.0:
                continue
            out.append({
                "name": event.kind, "cat": "sim.engine", "ph": "X",
                "ts": (end - busy if lane == "cpu" else start) * 1e6,
                "dur": busy * 1e6, "pid": _PID,
                "tid": _ENGINE_TIDS[lane],
                "args": {"engine": lane.upper(), "step": event.step},
            })
    return out


def _request_lane_events(timeline_events: List[Any]) -> List[Dict[str, Any]]:
    """Per-request Perfetto lanes from structured timeline events.

    Each request gets its own Chrome thread: one ``X`` bar spanning
    admit -> complete on the *simulated* timeline, with the causal
    events in between (decode steps are elided — they are the engine
    lanes' job) rendered as instant markers.  Run-level events (faults,
    throttles, deadlines with no request id) land on a shared
    ``events`` lane, so the Perfetto view correlates "request 3
    stalled" with "DMA fault fired" by eye.
    """
    out: List[Dict[str, Any]] = []
    by_request: Dict[int, List[Any]] = {}
    run_level: List[Any] = []
    for event in timeline_events:
        if event.request_id is None:
            run_level.append(event)
        else:
            by_request.setdefault(event.request_id, []).append(event)
    if not by_request and not run_level:
        return out
    if run_level:
        out.append({"name": "thread_name", "ph": "M", "pid": _PID,
                    "tid": _RUN_EVENTS_TID, "args": {"name": "events"}})
    for request_id in sorted(by_request):
        tid = _REQUEST_TID_BASE + request_id
        out.append({"name": "thread_name", "ph": "M", "pid": _PID,
                    "tid": tid, "args": {"name": f"request {request_id}"}})
        chain = by_request[request_id]
        starts = [e.sim_time for e in chain if e.kind in ("admit", "queue")]
        ends = [e.sim_time for e in chain if e.kind == "complete"]
        start = min(starts) if starts else min(e.sim_time for e in chain)
        end = max(ends) if ends else max(e.sim_time for e in chain)
        completes = [e for e in chain if e.kind == "complete"]
        args: Dict[str, Any] = {"request_id": request_id}
        if completes:
            args.update({k: _json_safe(v)
                         for k, v in completes[-1].attrs.items()})
        out.append({"name": f"request {request_id}", "cat": "sim.request",
                    "ph": "X", "ts": start * 1e6,
                    "dur": max(end - start, 0.0) * 1e6,
                    "pid": _PID, "tid": tid, "args": args})
        for event in chain:
            if event.kind in ("decode_step", "complete"):
                continue
            out.append({"name": event.kind, "cat": "sim.request",
                        "ph": "i", "s": "t", "ts": event.sim_time * 1e6,
                        "pid": _PID, "tid": tid,
                        "args": {k: _json_safe(v)
                                 for k, v in event.attrs.items()}})
    for event in run_level:
        if event.kind == "decode_step":
            continue
        out.append({"name": event.kind, "cat": "sim.request",
                    "ph": "i", "s": "t", "ts": event.sim_time * 1e6,
                    "pid": _PID, "tid": _RUN_EVENTS_TID,
                    "args": {k: _json_safe(v)
                             for k, v in event.attrs.items()}})
    return out


def _critical_path_events(critical_paths: Any) -> List[Dict[str, Any]]:
    """Critical-path highlighting bars for the per-request lanes.

    ``critical_paths`` maps request id -> phase slices (anything with
    ``phase``/``start_ns``/``end_ns``, or ``[phase, start_ns, end_ns]``
    triples — the :class:`~repro.obs.critical_path.PhaseSlice` JSON
    shape).  Each slice becomes an ``X`` bar on the request's lane,
    named by its blame phase, so Perfetto shows *why* each stretch of
    the admit-to-complete bar existed, not just that it did.
    """
    out: List[Dict[str, Any]] = []
    if not critical_paths:
        return out
    for request_id in sorted(critical_paths):
        tid = _REQUEST_TID_BASE + int(request_id)
        for entry in critical_paths[request_id]:
            if hasattr(entry, "phase"):
                phase, start_ns, end_ns = (entry.phase, entry.start_ns,
                                           entry.end_ns)
            else:
                phase, start_ns, end_ns = entry
            out.append({
                "name": str(phase), "cat": "sim.blame", "ph": "X",
                "ts": start_ns * 1e-3, "dur": max(end_ns - start_ns, 0)
                * 1e-3,
                "pid": _PID, "tid": tid,
                "args": {"phase": str(phase),
                         "request_id": int(request_id)},
            })
    return out


def chrome_trace(source: Union[Tracer, Sequence[Span]],
                 process_name: str = "repro",
                 events: Optional[Any] = None,
                 critical_paths: Optional[Any] = None) -> Dict[str, Any]:
    """Build a ``chrome://tracing`` JSON object from finished spans.

    ``events`` (a :class:`~repro.obs.timeline.EventLog` or its event
    list) adds the simulated timeline: the four engine lanes, drawn from
    its charging events, and one lane per request — admit-to-complete
    bars with fault/retry/evict markers.  ``critical_paths`` (request id
    -> phase slices, the :mod:`repro.obs.critical_path` waterfall)
    overlays blame-phase bars on those lanes.  The result round-trips
    through :func:`json.dumps` and loads in Perfetto.
    """
    spans = _spans_of(source)
    timeline_events = _events_of(events)  # before the local list shadows it
    events: List[Dict[str, Any]] = [{
        "name": "process_name", "ph": "M", "pid": _PID, "tid": 0,
        "args": {"name": process_name},
    }]

    # host-thread lanes
    threads = sorted({s.thread for s in spans})
    host_tids = {name: _HOST_TID_BASE + i for i, name in enumerate(threads)}
    for name, tid in host_tids.items():
        events.append({"name": "thread_name", "ph": "M", "pid": _PID,
                       "tid": tid, "args": {"name": f"host:{name}"}})
    for lane in LANES:
        events.append({"name": "thread_name", "ph": "M", "pid": _PID,
                       "tid": _ENGINE_TIDS[lane],
                       "args": {"name": lane.upper()}})

    t0 = min((s.start for s in spans), default=0.0)
    for span in spans:
        args = {k: _json_safe(v) for k, v in span.attrs.items()
                if not k.startswith("_")}
        events.append({
            "name": span.name, "cat": span.category, "ph": "X",
            "ts": (span.start - t0) * 1e6,
            "dur": max(span.duration, 0.0) * 1e6,
            "pid": _PID, "tid": host_tids[span.thread], "args": args,
        })

    events.extend(_engine_lane_events(timeline_events))
    events.extend(_request_lane_events(timeline_events))
    events.extend(_critical_path_events(critical_paths))

    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"generator": "repro.obs"}}


def write_chrome_trace(path: str, source: Union[Tracer, Sequence[Span]],
                       process_name: str = "repro",
                       events: Optional[Any] = None,
                       critical_paths: Optional[Any] = None) -> Dict[str, Any]:
    """Write the Chrome-trace JSON to ``path``; returns the trace dict."""
    trace = chrome_trace(source, process_name=process_name,
                         events=events, critical_paths=critical_paths)
    with open(path, "w") as handle:
        json.dump(trace, handle)
    return trace


# ----------------------------------------------------------------------
# text report
# ----------------------------------------------------------------------
def _aggregate_tree(spans: List[Span]) -> Dict[tuple, Dict[str, float]]:
    """Aggregate spans by their name path (flamegraph folding)."""
    by_index = {s.index: s for s in spans}
    paths: Dict[tuple, Dict[str, float]] = {}
    for span in spans:
        names = [span.name]
        parent = span.parent
        while parent is not None and parent in by_index:
            names.append(by_index[parent].name)
            parent = by_index[parent].parent
        path = tuple(reversed(names))
        entry = paths.setdefault(path, {"count": 0, "seconds": 0.0})
        entry["count"] += 1
        entry["seconds"] += span.duration
    return paths


def _scheduler_stats(spans: List[Span]) -> Optional[Dict[str, float]]:
    """Continuous-batching stats from scheduler spans, or ``None``."""
    steps = [s for s in spans
             if s.category == "scheduler" and s.name == "scheduler.step"]
    if not steps:
        return None
    live = [int(s.attrs.get("live_batch", 0)) for s in steps]
    blocks = [int(s.attrs.get("blocks_in_use", 0)) for s in steps]
    admits = sum(1 for s in spans if s.name == "scheduler.admit")
    return {
        "decode_steps": len(steps),
        "admissions": admits,
        "mean_live_batch": sum(live) / len(live),
        "peak_kv_blocks": max(blocks),
    }


def _resilience_stats(spans: List[Span]) -> Optional[Dict[str, Any]]:
    """Chaos-mode counters from resilience spans, or ``None``."""
    resilience = [s for s in spans if s.category == "resilience"]
    if not resilience:
        return None
    by_name: Dict[str, int] = {}
    for span in resilience:
        by_name[span.name] = by_name.get(span.name, 0) + 1
    fault_kinds: Dict[str, int] = {}
    for span in resilience:
        if span.name == "resilience.fault":
            kind = str(span.attrs.get("kind", "?"))
            fault_kinds[kind] = fault_kinds.get(kind, 0) + 1
    governors = sorted({str(s.attrs["governor"]) for s in resilience
                        if s.name == "resilience.throttle"
                        and "governor" in s.attrs})
    return {
        "faults": by_name.get("resilience.fault", 0),
        "fault_kinds": fault_kinds,
        "retries": by_name.get("resilience.retry", 0),
        "rebuilds": by_name.get("resilience.rebuild", 0),
        "evictions": by_name.get("resilience.evict", 0),
        "throttles": by_name.get("resilience.throttle", 0),
        "deadline_hits": by_name.get("resilience.deadline", 0),
        "degradations": (by_name.get("resilience.degrade", 0)
                         + by_name.get("resilience.tts_degrade", 0)),
        "governors": governors,
    }


def _kernel_attribution(spans: List[Span],
                        timing: Any) -> Dict[str, Dict[str, float]]:
    """Per-kernel simulated engine seconds of the cost-bearing spans.

    Only kernel spans carry costs (``kernel.gemm`` and the
    ``kernel.attention.*`` phases), and none encloses another.
    """
    costed: Dict[str, Dict[str, float]] = {}
    for span in spans:
        cost = span.total_cost()
        if cost is None:
            continue
        entry = costed.setdefault(span.name, {
            "count": 0, "sim": 0.0, "hmx": 0.0, "hvx": 0.0, "dma": 0.0})
        entry["count"] += 1
        entry["sim"] += float(timing.seconds(cost))
        entry["hmx"] += float(timing.hmx_seconds(cost))
        entry["hvx"] += float(timing.hvx_seconds(cost))
        entry["dma"] += float(timing.dma_seconds(cost))
    return costed


def _metrics_snapshot(metrics: Optional[Any]) -> Dict[str, Dict[str, Any]]:
    """Normalize a registry-or-snapshot argument to a snapshot dict."""
    if metrics is None:
        return {}
    if hasattr(metrics, "snapshot"):
        return metrics.snapshot()
    return dict(metrics)


def _slo_sections(metrics: Optional[Any]) -> Dict[str, Dict[str, float]]:
    from .slo import slo_summary

    snapshot = _metrics_snapshot(metrics)
    if not snapshot:
        return {}
    return slo_summary(snapshot)


def _blame_section(blame: Optional[Any]) -> Optional[Dict[str, Any]]:
    """Normalize a blame argument to an aggregate dict (duck-typed).

    Accepts the :func:`~repro.obs.blame.aggregate_blame` dict directly,
    or anything carrying one under an ``aggregate`` attribute/key (an
    :class:`~repro.obs.blame.ExplainReport` or its ``to_json`` dict).
    """
    if blame is None:
        return None
    if hasattr(blame, "aggregate"):
        return blame.aggregate
    data = dict(blame)
    if "aggregate" in data:
        return data["aggregate"]
    return data


def text_report(source: Union[Tracer, Sequence[Span]],
                timing: Optional[Any] = None,
                metrics: Optional[Any] = None,
                blame: Optional[Any] = None) -> str:
    """Flamegraph-style text report: span tree plus kernel attribution.

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry` or its
    snapshot dict) adds the SLO section — p50/p95/p99 token-latency
    percentiles recorded by the scheduler/engine hot paths.  ``blame`` (an
    :class:`~repro.obs.blame.ExplainReport` or its aggregate dict) adds
    the critical-path latency blame section.
    """
    spans = _spans_of(source)
    lines: List[str] = []
    if not spans:
        return "trace is empty (was the tracer enabled?)\n"

    paths = _aggregate_tree(spans)
    total = sum(s.duration for s in spans if s.parent is None) or 1e-12

    lines.append("== span tree (host wall clock) ==")
    lines.append(f"{'span':<52s} {'count':>6s} {'ms':>10s} {'%':>6s}")

    def emit(prefix: tuple, indent: int) -> None:
        children = sorted(
            (p for p in paths if len(p) == len(prefix) + 1
             and p[:len(prefix)] == prefix),
            key=lambda p: -paths[p]["seconds"])
        for path in children:
            entry = paths[path]
            label = "  " * indent + path[-1]
            lines.append(f"{label:<52s} {int(entry['count']):>6d} "
                         f"{entry['seconds'] * 1e3:>10.3f} "
                         f"{100.0 * entry['seconds'] / total:>6.1f}")
            emit(path, indent + 1)

    emit((), 0)

    scheduler = _scheduler_stats(spans)
    if scheduler is not None:
        lines.append("")
        lines.append("== continuous-batching scheduler ==")
        lines.append(f"decode steps       {scheduler['decode_steps']}")
        lines.append(f"admissions         {scheduler['admissions']}")
        lines.append(f"mean live batch    {scheduler['mean_live_batch']:.2f}")
        lines.append(f"peak KV blocks     {scheduler['peak_kv_blocks']}")

    resilience = _resilience_stats(spans)
    if resilience is not None:
        lines.append("")
        lines.append("== resilience (chaos mode) ==")
        lines.append(f"faults injected    {resilience['faults']}")
        for kind in sorted(resilience["fault_kinds"]):
            lines.append(f"  {kind:<17s}{resilience['fault_kinds'][kind]}")
        lines.append(f"retries            {resilience['retries']}")
        lines.append(f"KV rebuilds        {resilience['rebuilds']}")
        lines.append(f"evictions          {resilience['evictions']}")
        lines.append(f"throttle events    {resilience['throttles']}")
        lines.append(f"deadline hits      {resilience['deadline_hits']}")
        lines.append(f"degradations       {resilience['degradations']}")
        if resilience["governors"]:
            lines.append(
                f"governors hit      {', '.join(resilience['governors'])}")

    blame_data = _blame_section(blame)
    if blame_data is not None and blame_data.get("blame_ns"):
        total_ns = blame_data.get("total_latency_ns", 0)
        lines.append("")
        lines.append("== latency blame (critical path) ==")
        lines.append(f"requests explained {blame_data.get('n_requests', 0)}")
        lines.append(f"attributed time    {total_ns / 1e6:.3f} ms")
        lines.append(f"{'phase':<18s} {'ms':>12s} {'share':>7s}")
        blame_ns = blame_data["blame_ns"]
        for phase in sorted(blame_ns, key=lambda p: -blame_ns[p]):
            share = blame_ns[phase] / total_ns if total_ns else 0.0
            lines.append(f"{phase:<18s} {blame_ns[phase] / 1e6:>12.3f} "
                         f"{share:>6.1%}")
        for name, cohort in blame_data.get("cohorts", {}).items():
            lines.append(f"{name} dominant       {cohort['dominant_phase']} "
                         f"({cohort['n_requests']} requests >= "
                         f"{cohort['cutoff_ns'] / 1e6:.3f} ms)")

    slo = _slo_sections(metrics)
    if slo:
        lines.append("")
        lines.append("== SLO token-latency percentiles (simulated) ==")
        lines.append(f"{'histogram':<44s} {'count':>7s} {'p50 us':>10s} "
                     f"{'p95 us':>10s} {'p99 us':>10s}")
        for name, entry in slo.items():
            lines.append(f"{name:<44s} {int(entry['count']):>7d} "
                         f"{entry['p50'] * 1e6:>10.1f} "
                         f"{entry['p95'] * 1e6:>10.1f} "
                         f"{entry['p99'] * 1e6:>10.1f}")

    if timing is not None:
        costed = _kernel_attribution(spans, timing)
        if costed:
            sim_total = sum(e["sim"] for e in costed.values()) or 1e-12
            lines.append("")
            lines.append("== per-kernel simulated time attribution ==")
            lines.append(f"{'kernel':<28s} {'count':>6s} {'sim us':>12s} "
                         f"{'%':>6s} {'hmx us':>10s} {'hvx us':>10s} "
                         f"{'dma us':>10s}")
            for name in sorted(costed, key=lambda n: -costed[n]["sim"]):
                entry = costed[name]
                lines.append(
                    f"{name:<28s} {int(entry['count']):>6d} "
                    f"{entry['sim'] * 1e6:>12.1f} "
                    f"{100.0 * entry['sim'] / sim_total:>6.1f} "
                    f"{entry['hmx'] * 1e6:>10.1f} "
                    f"{entry['hvx'] * 1e6:>10.1f} "
                    f"{entry['dma'] * 1e6:>10.1f}")
    return "\n".join(lines) + "\n"


def report_data(source: Union[Tracer, Sequence[Span]],
                timing: Optional[Any] = None,
                metrics: Optional[Any] = None,
                blame: Optional[Any] = None) -> Dict[str, Any]:
    """Structured counterpart of :func:`text_report` for ``--json``.

    Returns a JSON-serializable dict with the same information the text
    report renders: the folded span tree, scheduler/resilience stats,
    per-kernel simulated attribution (when ``timing`` is given), SLO
    percentiles, the full metrics snapshot (when ``metrics`` is given)
    and the critical-path blame aggregate (when ``blame`` is given).
    Span-tree rows are listed by depth, then by path, so two runs of
    one tree list them in one order (the text report lists siblings by
    host time instead).
    Empty sections are ``None``/empty rather than absent, so consumers
    can rely on the schema.
    """
    spans = _spans_of(source)
    paths = _aggregate_tree(spans)
    span_tree = [
        {"path": list(path), "count": int(entry["count"]),
         "seconds": entry["seconds"]}
        for path, entry in sorted(
            paths.items(), key=lambda kv: (len(kv[0]), kv[0]))]
    kernels: List[Dict[str, Any]] = []
    if timing is not None:
        costed = _kernel_attribution(spans, timing)
        kernels = [
            {"kernel": name, "count": int(entry["count"]),
             "sim_seconds": entry["sim"], "hmx_seconds": entry["hmx"],
             "hvx_seconds": entry["hvx"], "dma_seconds": entry["dma"]}
            for name in sorted(costed, key=lambda n: -costed[n]["sim"])
            for entry in [costed[name]]]
    return {
        "schema": "repro.profile/v1",
        "n_spans": len(spans),
        "span_tree": span_tree,
        "scheduler": _scheduler_stats(spans),
        "resilience": _resilience_stats(spans),
        "kernels": kernels,
        "slo": _slo_sections(metrics),
        "metrics": _metrics_snapshot(metrics),
        "energy": None,  # reserved: profile/v1 consumers expect the key
        "blame": _blame_section(blame),
    }
