"""Per-request critical-path reconstruction from the timeline log.

The event log (:mod:`repro.obs.timeline`) records *that* things
happened; this module turns one recorded run into *why each request
took as long as it did*.  For every request it rebuilds the causal
chain, slices the request's lifetime into contiguous phases, and
attributes every simulated nanosecond (and nanojoule, folding the log
through :class:`~repro.obs.energy.EnergyAccountant`) to a phase
taxonomy:

* scheduler runs — ``queue_wait`` (no slot yet), ``prefill`` (chunked
  or monolithic prompt forwards), ``decode`` / ``decode_throttled``
  (lock-step decode, split by governor state), ``migration`` (rpcmem
  KV crossings on backend switches), ``rebuild`` (post-abort KV
  reconstruction), ``retry_backoff`` (fault backoff + session reopen),
* fleet runs — ``queue_wait`` (admission queue), ``service`` (a live
  dispatch leg, hedge launches included), ``service_lost`` (work
  destroyed by a crash/drop), ``failover_backoff`` (jittered re-offer
  delay).

**Conservation is bitwise, by construction.**  Every event timestamp
is quantized exactly once to integer nanoseconds (:func:`quantize_ns`)
and each phase gets the integer span between consecutive events, so
per-phase blame telescopes to ``end_ns - start_ns`` with no float
re-association anywhere.  Energy charges are the shares the ledger
returns for each event, quantized per charge
(:func:`~repro.obs.energy.quantize_nj`) and only ever summed as
integers, so phase energy partitions the per-request total exactly.

:func:`validate_lifecycle` checks that a log is complete enough to
reconstruct before anything is blamed: it rejects orphaned phases (a
``complete`` without an ``admit``), overlapping legs (a second
non-hedged dispatch while one is in flight), time regressions, and
unclosed dispatch legs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ObservabilityError
from .energy import EnergyAccountant, quantize_nj
from .timeline import EventLog, TimelineEvent

__all__ = [
    "SCHEDULER_PHASES",
    "FLEET_PHASES",
    "SCHEDULER_ENERGY_PHASES",
    "FLEET_ENERGY_PHASES",
    "quantize_ns",
    "PhaseSlice",
    "RequestExplanation",
    "classify_log",
    "explain_scheduler_log",
    "explain_fleet_log",
    "explain_log",
    "validate_lifecycle",
    "assert_lifecycle",
]

#: Scheduler-side latency taxonomy (one engine, one run).
SCHEDULER_PHASES = ("queue_wait", "prefill", "decode", "decode_throttled",
                    "migration", "rebuild", "retry_backoff", "other")

#: Fleet-side latency taxonomy (admission queue + device legs).
FLEET_PHASES = ("queue_wait", "service", "service_lost",
                "failover_backoff", "other")

#: Energy phases the scheduler accountant attributes per candidate.
SCHEDULER_ENERGY_PHASES = ("decode", "decode_throttled", "rebuild")

#: Energy phases of fleet dispatch legs.
FLEET_ENERGY_PHASES = ("service", "service_lost", "hedge_wasted", "other")

#: Fleet-level event vocabulary (scheduler kinds are ignored when a
#: fleet log also carries per-device engine events).
_FLEET_KINDS = frozenset(
    ("queue", "shed", "dispatch", "complete", "failover", "hedge"))

_TERMINAL_OUTCOMES = ("completed", "shed", "failed", "unserved")


def quantize_ns(seconds: float) -> int:
    """Quantize one simulated timestamp to integer nanoseconds.

    Applied exactly once per event; all blame arithmetic downstream is
    integer, so spans between consecutive events telescope exactly.
    """
    return int(round(float(seconds) * 1e9))


@dataclass(frozen=True)
class PhaseSlice:
    """One contiguous same-phase span of a request's waterfall."""

    phase: str
    start_ns: int
    end_ns: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def to_json(self) -> List[Any]:
        return [self.phase, self.start_ns, self.end_ns]


@dataclass
class RequestExplanation:
    """Where one request's simulated time (and energy) went.

    ``blame_ns`` partitions ``latency_ns = end_ns - start_ns`` exactly;
    ``energy_nj`` partitions ``total_nj`` exactly.
    """

    request_id: int
    kind: str                      # "scheduler" | "fleet"
    outcome: str                   # terminal state (reason or ledger class)
    start_ns: int
    end_ns: int
    blame_ns: Dict[str, int] = field(default_factory=dict)
    slices: List[PhaseSlice] = field(default_factory=list)
    energy_nj: Dict[str, int] = field(default_factory=dict)
    total_nj: int = 0
    device: Optional[int] = None
    tenant: Optional[str] = None
    wave: Optional[int] = None
    tokens: int = 0
    n_legs: int = 0

    @property
    def latency_ns(self) -> int:
        return self.end_ns - self.start_ns

    def dominant_phase(self) -> str:
        """Largest blame phase (ties to the taxonomy-stable name)."""
        if not self.blame_ns:
            return "none"
        return max(sorted(self.blame_ns), key=lambda p: self.blame_ns[p])

    def check_conservation(self) -> None:
        """Raise unless blame/energy partition latency/total exactly."""
        blame = sum(self.blame_ns.values())
        if blame != self.latency_ns:
            raise ObservabilityError(
                f"request {self.request_id}: blame sums to {blame} ns but "
                f"end-to-end latency is {self.latency_ns} ns")
        energy = sum(self.energy_nj.values())
        if energy != self.total_nj:
            raise ObservabilityError(
                f"request {self.request_id}: energy blame sums to "
                f"{energy} nJ but attributed total is {self.total_nj} nJ")

    def to_json(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "request_id": self.request_id,
            "kind": self.kind,
            "outcome": self.outcome,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "latency_ns": self.latency_ns,
            "blame_ns": {k: self.blame_ns[k]
                         for k in sorted(self.blame_ns)},
            "dominant_phase": self.dominant_phase(),
            "energy_nj": {k: self.energy_nj[k]
                          for k in sorted(self.energy_nj)},
            "total_nj": self.total_nj,
            "tokens": self.tokens,
            "slices": [s.to_json() for s in self.slices],
        }
        if self.device is not None:
            out["device"] = self.device
        if self.tenant is not None:
            out["tenant"] = self.tenant
        if self.wave is not None:
            out["wave"] = self.wave
        if self.n_legs:
            out["n_legs"] = self.n_legs
        return out


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
def classify_log(log: EventLog) -> str:
    """``"fleet"`` when the log carries dispatch events, else scheduler."""
    for event in log.events():
        if event.kind == "dispatch":
            return "fleet"
    return "scheduler"


def _charge(bucket: Dict[str, int], phase: str, amount: int) -> None:
    if amount:
        bucket[phase] = bucket.get(phase, 0) + amount


def _push_slice(slices: List[PhaseSlice], phase: str, start_ns: int,
                end_ns: int) -> None:
    if end_ns <= start_ns:
        return
    if slices and slices[-1].phase == phase \
            and slices[-1].end_ns == start_ns:
        slices[-1] = PhaseSlice(phase, slices[-1].start_ns, end_ns)
    else:
        slices.append(PhaseSlice(phase, start_ns, end_ns))


def _classify_scheduler_segment(event: TimelineEvent) -> str:
    kind = event.kind
    if kind == "decode_step":
        if event.attrs.get("governor_level", 0):
            return "decode_throttled"
        return "decode"
    if kind in ("prefill", "prefill_chunk"):
        return "prefill"
    if kind == "rebuild":
        return "rebuild"
    if kind == "retry":
        return "retry_backoff"
    if kind == "backend_switch":
        return "migration"
    return "other"


# ----------------------------------------------------------------------
# scheduler-side reconstruction
# ----------------------------------------------------------------------
def explain_scheduler_log(log: EventLog) -> List[RequestExplanation]:
    """Per-candidate blame for one recorded scheduler run.

    The global event walk yields the run's segment list (consecutive
    event timestamps, each segment classified by its *terminating*
    event — the thing the run was doing until that boundary).  A
    candidate's window is ``[queue, complete]``: segments before its
    ``admit`` are queue wait (no slot held yet), segments after are
    charged to the phase that consumed them.  Lock-step decode is
    concurrent across the live batch, so every live candidate
    experiences the full segment as latency — exactly the latency the
    SLO histograms measure.  Energy is the log folded through a fresh
    :class:`~repro.obs.energy.EnergyAccountant`: each share it charges a
    candidate lands in the phase of the charging event.
    """
    events = log.events()
    if not events:
        return []
    segments: List[Tuple[int, int, TimelineEvent]] = []
    energy: Dict[int, Dict[str, int]] = {}
    ledger = EnergyAccountant()
    prev_ns = quantize_ns(events[0].sim_time)
    for event in events:
        t_ns = quantize_ns(event.sim_time)
        if t_ns < prev_ns:
            raise ObservabilityError(
                f"timeline regresses at seq {event.seq} ({event.kind}): "
                f"{t_ns} ns < {prev_ns} ns — explain one run at a time")
        if t_ns > prev_ns:
            segments.append((prev_ns, t_ns, event))
        prev_ns = t_ns
        for cid, joules in ledger.charge(event.kind, event.attrs,
                                         event.request_id):
            _charge(energy.setdefault(cid, {}),
                    _classify_scheduler_segment(event), quantize_nj(joules))
    out: List[RequestExplanation] = []
    for cid in log.request_ids():
        chain = log.timeline(cid)
        queue = next((e for e in chain if e.kind == "queue"), None)
        admit = next((e for e in chain if e.kind == "admit"), None)
        complete = next((e for e in chain if e.kind == "complete"), None)
        if queue is None:
            # fleet events mixed in, or a partial log; skip gracefully
            continue
        start_ns = quantize_ns(queue.sim_time)
        expl = RequestExplanation(
            request_id=cid, kind="scheduler",
            outcome=(str(complete.attrs.get("reason", "completed"))
                     if complete is not None else "unserved"),
            start_ns=start_ns, end_ns=start_ns,
            wave=queue.attrs.get("wave"))
        if complete is not None:
            end_ns = quantize_ns(complete.sim_time)
            admit_ns = (quantize_ns(admit.sim_time) if admit is not None
                        else end_ns)
            expl.end_ns = end_ns
            expl.tokens = int(complete.attrs.get("tokens", 0))
            for seg_start, seg_end, terminator in segments:
                if seg_end <= start_ns or seg_start >= end_ns:
                    continue
                phase = ("queue_wait" if seg_end <= admit_ns
                         else _classify_scheduler_segment(terminator))
                _charge(expl.blame_ns, phase, seg_end - seg_start)
                _push_slice(expl.slices, phase, seg_start, seg_end)
        expl.energy_nj = energy.get(cid, {})
        expl.total_nj = sum(expl.energy_nj.values())
        out.append(expl)
    return out


# ----------------------------------------------------------------------
# fleet-side reconstruction
# ----------------------------------------------------------------------
@dataclass
class _Leg:
    device: int
    nj: int


def explain_fleet_log(log: EventLog) -> List[RequestExplanation]:
    """Per-request blame for one recorded fleet run.

    Each request's own chain is walked; the span ending at each event
    is classified by what the request was doing until then: waiting in
    the admission queue (ends at ``dispatch``/``shed``), in service on
    a leg (ends at ``complete``, a hedge launch, or a hedge-leg
    cancellation), losing work to a fault (ends at ``failover`` or a
    reasoned hedge cancellation), or sleeping out a failover backoff
    (ends at a re-offer ``queue``).  Dispatch legs carry their energy:
    the winning leg's joules are ``service``, legs destroyed by faults
    ``service_lost``, losing hedge legs ``hedge_wasted``.
    """
    out: List[RequestExplanation] = []
    for rid in log.request_ids():
        chain = [e for e in log.timeline(rid) if e.kind in _FLEET_KINDS]
        if not chain or chain[0].kind != "queue":
            continue
        start_ns = quantize_ns(chain[0].sim_time)
        expl = RequestExplanation(
            request_id=rid, kind="fleet", outcome="unserved",
            start_ns=start_ns, end_ns=start_ns,
            tenant=chain[0].attrs.get("tenant"))
        legs: List[_Leg] = []

        def close_leg(device: Optional[int], phase: str) -> None:
            for i, leg in enumerate(legs):
                if device is None or leg.device == device:
                    _charge(expl.energy_nj, phase, leg.nj)
                    expl.total_nj += leg.nj
                    legs.pop(i)
                    return

        prev_ns = start_ns
        for event in chain:
            t_ns = quantize_ns(event.sim_time)
            if t_ns < prev_ns:
                raise ObservabilityError(
                    f"request {rid} chain regresses at seq {event.seq}")
            kind = event.kind
            attrs = event.attrs
            if kind == "dispatch":
                phase = "service" if attrs.get("hedged") else "queue_wait"
                legs.append(_Leg(device=int(attrs.get("device", -1)),
                                 nj=quantize_nj(attrs.get("joules", 0.0))))
                expl.n_legs += 1
            elif kind == "complete":
                phase = "service"
                expl.outcome = "completed"
                expl.tokens = int(attrs.get("tokens", 0))
                expl.device = attrs.get("device")
                close_leg(attrs.get("device"), "service")
            elif kind == "shed":
                phase = "queue_wait"
                expl.outcome = "shed"
            elif kind == "failover":
                phase = "service_lost"
                close_leg(attrs.get("from_device"), "service_lost")
                if attrs.get("outcome") == "exhausted":
                    expl.outcome = "failed"
            elif kind == "queue":
                phase = ("failover_backoff" if attrs.get("reoffer")
                         else "queue_wait")
            elif kind == "hedge":
                phase = "service"
                if attrs.get("cancelled"):
                    close_leg(attrs.get("loser"),
                              "service_lost" if "reason" in attrs
                              else "hedge_wasted")
            else:  # pragma: no cover — _FLEET_KINDS filter forbids this
                phase = "other"
            _charge(expl.blame_ns, phase, t_ns - prev_ns)
            _push_slice(expl.slices, phase, prev_ns, t_ns)
            prev_ns = t_ns
            expl.end_ns = t_ns
        for leg in legs:  # unclosed legs: flagged by validate_lifecycle
            _charge(expl.energy_nj, "other", leg.nj)
            expl.total_nj += leg.nj
        out.append(expl)
    return out


def explain_log(log: EventLog) -> Tuple[str, List[RequestExplanation]]:
    """Auto-detect the log's layer and reconstruct every request."""
    kind = classify_log(log)
    if kind == "fleet":
        return kind, explain_fleet_log(log)
    return kind, explain_scheduler_log(log)


# ----------------------------------------------------------------------
# lifecycle completeness validation
# ----------------------------------------------------------------------
def validate_lifecycle(log: EventLog) -> List[str]:
    """Audit a recorded log for reconstruction-breaking gaps.

    Returns a list of human-readable problems (empty when the log is
    complete): global/per-chain time regressions, orphaned phases
    (``complete``/``admit`` without a ``queue``, ``complete`` without
    an ``admit`` on scheduler logs), duplicated terminals, overlapping
    non-hedged dispatch legs, dispatch legs never closed by a
    completion/failover/cancellation, and ``wave_end`` events with no
    matching ``wave_start``.
    """
    problems: List[str] = []
    events = log.events()
    prev = None
    for event in events:
        if prev is not None and event.sim_time < prev.sim_time:
            problems.append(
                f"time regresses at seq {event.seq}: {event.kind} at "
                f"{event.sim_time} after {prev.kind} at {prev.sim_time}")
        prev = event

    kind = classify_log(log)
    if kind == "fleet":
        for rid in log.request_ids():
            chain = [e for e in log.timeline(rid)
                     if e.kind in _FLEET_KINDS]
            if not chain:
                continue
            if chain[0].kind != "queue":
                problems.append(
                    f"request {rid}: chain starts with "
                    f"{chain[0].kind!r}, not 'queue'")
            open_legs: List[int] = []
            terminal = None
            for event in chain:
                if terminal is not None and event.kind in (
                        "dispatch", "complete", "shed"):
                    problems.append(
                        f"request {rid}: {event.kind} at seq {event.seq} "
                        f"after terminal {terminal}")
                if event.kind == "dispatch":
                    device = event.attrs.get("device")
                    if open_legs and not event.attrs.get("hedged"):
                        problems.append(
                            f"request {rid}: overlapping non-hedged "
                            f"dispatch at seq {event.seq}")
                    open_legs.append(device)
                elif event.kind == "complete":
                    if terminal is not None:
                        problems.append(
                            f"request {rid}: duplicate complete at seq "
                            f"{event.seq}")
                    terminal = "complete"
                    _close(open_legs, event.attrs.get("device"))
                elif event.kind == "shed":
                    terminal = "shed"
                elif event.kind == "failover":
                    _close(open_legs, event.attrs.get("from_device"))
                    if event.attrs.get("outcome") == "exhausted":
                        terminal = "failover:exhausted"
                elif event.kind == "hedge" \
                        and event.attrs.get("cancelled"):
                    _close(open_legs, event.attrs.get("loser"))
            if open_legs:
                problems.append(
                    f"request {rid}: {len(open_legs)} dispatch leg(s) "
                    f"never closed (devices {open_legs})")
    else:
        wave_starts = {e.attrs.get("wave")
                       for e in log.by_kind("wave_start")}
        for e in log.by_kind("wave_end"):
            if e.attrs.get("wave") not in wave_starts:
                problems.append(
                    f"wave_end for wave {e.attrs.get('wave')} at seq "
                    f"{e.seq} has no wave_start")
        for cid in log.request_ids():
            chain = log.timeline(cid)
            kinds = [e.kind for e in chain]
            if kinds and kinds[0] != "queue":
                problems.append(
                    f"candidate {cid}: chain starts with {kinds[0]!r}, "
                    f"not 'queue'")
            n_admits = kinds.count("admit")
            n_completes = kinds.count("complete")
            if n_admits > 1:
                problems.append(
                    f"candidate {cid}: admitted {n_admits} times")
            if n_completes > 1:
                problems.append(
                    f"candidate {cid}: completed {n_completes} times")
            if n_completes and not n_admits:
                problems.append(
                    f"candidate {cid}: complete without an admit")
            if n_admits and n_completes:
                admit_seq = chain[kinds.index("admit")].seq
                complete_seq = chain[kinds.index("complete")].seq
                if complete_seq < admit_seq:
                    problems.append(
                        f"candidate {cid}: complete (seq {complete_seq}) "
                        f"precedes admit (seq {admit_seq})")
            if n_completes:
                tail = kinds[kinds.index("complete") + 1:]
                if tail:
                    problems.append(
                        f"candidate {cid}: events {tail} after complete")
    return problems


def _close(open_legs: List[int], device: Optional[int]) -> None:
    for i, d in enumerate(open_legs):
        if device is None or d == device:
            open_legs.pop(i)
            return


def assert_lifecycle(log: EventLog) -> None:
    """Raise :class:`ObservabilityError` listing every lifecycle gap."""
    problems = validate_lifecycle(log)
    if problems:
        raise ObservabilityError(
            "timeline lifecycle validation failed:\n  "
            + "\n  ".join(problems))
