"""Structured per-request event log on the *simulated* timeline.

Spans (:mod:`repro.obs.trace`) answer "where did host time go"; the
event log answers the serving question "what happened to request 17,
when, and why".  Every request admitted by the continuous-batching
scheduler (or a lock-step ``engine.generate`` run) carries a causal
chain of typed events::

    queue -> admit -> wave_assign -> prefill/decode_step* ->
        [fault -> retry -> rebuild | evict | throttle | deadline]* ->
        complete

Each :class:`TimelineEvent` carries the **simulated** clock time it
occurred at (a :class:`~repro.sim.SimClock` reading, never host
wall clock), so a recorded timeline is a deterministic function of the
run's seeds and fault plan — byte-identical across machines, which is
what lets ``repro monitor`` diff two runs and what the anomaly layer
(:mod:`repro.obs.anomaly`) depends on for reproducible alerts.

Like the tracer, the default global log is **disabled** and the
module-level :func:`emit` is a cheap guard-and-return, so the scheduler
hot loop pays one function call per site when nobody is monitoring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ObservabilityError

__all__ = [
    "EVENT_KINDS",
    "TimelineEvent",
    "EventLog",
    "get_event_log",
    "set_event_log",
    "emit",
    "timeline_enabled",
]

#: The typed event vocabulary.  ``queue`` marks a request entering the
#: pending set; ``admit``/``wave_assign`` its scheduling decision;
#: ``prefill``/``decode_step`` forward progress; ``fault``/``retry``/
#: ``rebuild``/``evict``/``throttle``/``deadline`` the resilience path;
#: ``complete`` retirement (with its finish reason).  The fleet layer
#: adds ``shed`` (admission control dropped the request on a full
#: queue) and ``dispatch`` (a queued request started service on a
#: device, with its queue wait), plus the chaos/recovery vocabulary:
#: ``device_down``/``device_up`` (a device crashed / rebooted),
#: ``failover`` (a lost dispatch re-offered, or its retry budget
#: exhausted), ``hedge`` (a second copy dispatched, or the losing leg
#: cancelled first-completion-wins), and ``breaker_open``/
#: ``breaker_close`` (a device's circuit breaker tripped / recovered).
#: Stage-level dispatch adds ``prefill_chunk`` (one chunk of a chunked
#: or admitted prompt forwarded) and ``backend_switch`` (the stage
#: dispatcher migrated between CPU/GPU/NPU, paying an rpcmem crossing).
#: ``wave_start``/``wave_end`` bracket a scheduler wave's population:
#: the first admit of wave ``k`` opens it, the last retirement closes
#: it — the run-level boundaries the critical-path reconstructor
#: (:mod:`repro.obs.critical_path`) uses to scope decode cohorts.
EVENT_KINDS = (
    "queue",
    "admit",
    "wave_assign",
    "wave_start",
    "wave_end",
    "prefill",
    "prefill_chunk",
    "decode_step",
    "backend_switch",
    "fault",
    "retry",
    "rebuild",
    "evict",
    "throttle",
    "deadline",
    "complete",
    "shed",
    "dispatch",
    "device_down",
    "device_up",
    "failover",
    "hedge",
    "breaker_open",
    "breaker_close",
)

_KIND_SET = frozenset(EVENT_KINDS)


@dataclass(frozen=True)
class TimelineEvent:
    """One typed event on the simulated timeline.

    ``seq`` is the log-global emission index (total order even when two
    events share a ``sim_time``); ``request_id`` is the candidate the
    event belongs to, or ``None`` for run-level events (a batch decode
    step, a throttle, a deadline).
    """

    seq: int
    kind: str
    sim_time: float
    request_id: Optional[int] = None
    step: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"seq": self.seq, "kind": self.kind,
                               "sim_time": self.sim_time}
        if self.request_id is not None:
            out["request_id"] = self.request_id
        if self.step is not None:
            out["step"] = self.step
        if self.attrs:
            out["attrs"] = {k: self.attrs[k] for k in sorted(self.attrs)}
        return out


class EventLog:
    """Append-only, queryable log of :class:`TimelineEvent` records.

    Besides the full log, :meth:`emit` appends each event that carries a
    ``request_id`` to that request's chain, so one request's
    :meth:`timeline` costs the length of its chain rather than of the
    log, and walking every request is linear in the log.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._events: List[TimelineEvent] = []
        self._chains: Dict[int, List[TimelineEvent]] = {}

    # ------------------------------------------------------------------
    def emit(self, kind: str, sim_time: float,
             request_id: Optional[int] = None, step: Optional[int] = None,
             **attrs: Any) -> Optional[TimelineEvent]:
        """Append one event; returns it, or ``None`` while disabled."""
        if not self.enabled:
            return None
        if kind not in _KIND_SET:
            raise ObservabilityError(
                f"unknown timeline event kind {kind!r}; known: {EVENT_KINDS}")
        sim_time = float(sim_time)
        if not sim_time >= 0.0:  # also rejects NaN
            raise ObservabilityError(
                f"timeline event {kind} needs a non-negative simulated "
                f"time, got {sim_time}")
        event = TimelineEvent(seq=len(self._events), kind=kind,
                              sim_time=sim_time, request_id=request_id,
                              step=step, attrs=attrs)
        self._events.append(event)
        if request_id is not None:
            self._chains.setdefault(request_id, []).append(event)
        return event

    # ------------------------------------------------------------------
    def events(self) -> List[TimelineEvent]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def timeline(self, request_id: int) -> List[TimelineEvent]:
        """The causal chain of one request, in emission order.

        A new list on every call (callers filter it), built from the
        index in O(chain length); ``[]`` for an unseen id.
        """
        return list(self._chains.get(request_id, ()))

    def by_kind(self, kind: str) -> List[TimelineEvent]:
        if kind not in _KIND_SET:
            raise ObservabilityError(
                f"unknown timeline event kind {kind!r}; known: {EVENT_KINDS}")
        return [e for e in self._events if e.kind == kind]

    def request_ids(self) -> List[int]:
        """Distinct request ids seen, ascending: O(R log R) in the
        number R of distinct requests."""
        return sorted(self._chains)

    def span(self) -> Tuple[float, float]:
        """(first, last) simulated time covered; (0, 0) when empty."""
        if not self._events:
            return 0.0, 0.0
        times = [e.sim_time for e in self._events]
        return min(times), max(times)

    def reset(self) -> None:
        self._events.clear()
        self._chains.clear()

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False


# ----------------------------------------------------------------------
# global default log (disabled: serving runs pay only the guard)
# ----------------------------------------------------------------------
_default_log = EventLog(enabled=False)


def get_event_log() -> EventLog:
    return _default_log


def set_event_log(log: EventLog) -> EventLog:
    """Install ``log`` as the global default; returns the previous one."""
    global _default_log
    previous = _default_log
    _default_log = log
    return previous


def emit(kind: str, sim_time: float, request_id: Optional[int] = None,
         step: Optional[int] = None, **attrs: Any) -> Optional[TimelineEvent]:
    """Emit on the global default log (no-op while disabled)."""
    log = _default_log
    if not log.enabled:
        return None
    return log.emit(kind, sim_time, request_id=request_id, step=step, **attrs)


def timeline_enabled() -> bool:
    return _default_log.enabled
