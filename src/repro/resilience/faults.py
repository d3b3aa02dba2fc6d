"""Deterministic fault injection for the NPU serving stack.

The paper's deployment story (§7.2) is dominated by failure modes the
happy path never sees: the 32-bit rpcmem VA-space wall (§7.2.1/§7.2.2),
DVFS/thermal throttling (§7.2.3), and FastRPC session plumbing (§6).
This module schedules those hazards as *data*, at the three sites where
recovery lives: the scheduler's decode step, its KV block pool and the
fleet's devices.  A :class:`FaultPlan` is an immutable list of
:class:`FaultEvent` records, each naming a fault kind, an injection
site, and the step, operation index or simulated time at that site
where it fires.  A :class:`FaultInjector` consumes the plan during a
scheduler run; the fleet schedules its own events.

Determinism is the design invariant:

* building a plan may use a seeded RNG (:meth:`FaultPlan.random`), but
  *injecting* from a plan never draws randomness — events fire by
  site-local operation counting, so the same (seed, plan) always yields
  the same faults, retries and degradations;
* an empty plan injects nothing and touches no RNG stream, so runs with
  an empty plan are bitwise identical to runs without the resilience
  layer at all (``tests/differential/test_fault_plan_noop.py``).

Fault kinds and the layers that recover from them:

=================  =====================================================
``session_abort``  FastRPC session dies; NPU-side state is lost.
                   Recovery: reopen + rebuild KV from snapshots.
``dma_timeout``    A DMA transfer stalls.  Transient: capped backoff
                   and retry, no state rebuild.
``alloc_fail``     A KV-pool allocation fails (rpcmem pressure on the
                   pool).  Recovery: evict the lowest-value
                   candidate, shrink the live batch, retry.
``thermal_throttle``  The DVFS governor is forced down via
                   :mod:`repro.npu.power_mgmt`; step costs rescale so
                   simulated timing stays honest.
=================  =====================================================

Fleet-level fault kinds (PR 8) extend the grammar to whole devices in a
:class:`~repro.fleet.simulation.FleetSimulation`.  They are addressed
per device (``dev#K``) and indexed by **simulated seconds** on the
shared event loop, not by operation count:

=================  =====================================================
``device_crash``   ``dev#K:crash@T[:D]`` — device K goes offline at
                   sim-time T; with D set it reboots D seconds later.
                   Recovery: in-flight dispatches fail over through the
                   admission controller.
``straggle``       ``dev#K:straggle@T:F:D`` — device K's service times
                   stretch by factor F for D seconds (thermal stall,
                   background app, bad radio).
``dispatch_drop``  ``dev#K:drop@T`` — the dispatch in flight on device
                   K at time T is lost; the request fails over.
``battery_drain``  ``dev#K:battery@T`` — device K's battery rail is
                   pulled to depleted; it leaves the rotation once its
                   current request completes.
=================  =====================================================

The recovery side (circuit breakers, failover budgets, hedging) lives
in :mod:`repro.fleet.health`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import FaultError, KVPoolExhausted
from ..obs import context as obs_context

__all__ = [
    "FAULT_KINDS",
    "FLEET_FAULT_KINDS",
    "INJECTION_SITES",
    "FaultEvent",
    "FaultPlan",
    "FaultRecord",
    "FaultInjector",
]

FAULT_KINDS = ("session_abort", "dma_timeout", "alloc_fail",
               "thermal_throttle", "device_crash", "straggle",
               "dispatch_drop", "battery_drain")

#: Fault kinds that target a whole fleet device (time-indexed, consumed
#: by :class:`~repro.fleet.simulation.FleetSimulation`, never by the
#: per-run :class:`FaultInjector`).
FLEET_FAULT_KINDS = ("device_crash", "straggle", "dispatch_drop",
                     "battery_drain")

#: Known injection sites.  ``scheduler.step`` events fire by decode step
#: number; ``kv_pool.alloc`` events by operation index (the N-th block
#: allocation of a scheduler run); ``fleet.device`` events at an absolute
#: simulated time on the fleet event loop.
INJECTION_SITES = ("scheduler.step", "kv_pool.alloc", "fleet.device")

# kinds that make sense per site (spec validation)
_SITE_KINDS = {
    "scheduler.step": {"session_abort", "dma_timeout", "alloc_fail",
                       "thermal_throttle"},
    "kv_pool.alloc": {"alloc_fail"},
    "fleet.device": set(FLEET_FAULT_KINDS),
}


def _fmt(value: float) -> str:
    """Canonical numeric rendering for spec strings (``1.5`` not ``1.50``)."""
    text = format(float(value), "g")
    return text


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``at`` is the decode step number for ``site="scheduler.step"``
    events and the zero-based block allocation index for
    ``site="kv_pool.alloc"``.
    ``governor``/``duration_steps`` only apply to thermal throttling:
    the governor the DVFS ladder is forced down to, and for how many
    decode steps (``None`` = the rest of the run).

    Fleet events (``site="fleet.device"``) instead carry ``device``
    (the target device id), ``time_seconds`` (when the fault fires on
    the fleet event loop), and for ``straggle``/``device_crash`` a
    ``factor`` / ``duration_seconds`` pair (service-time multiplier and
    how long the condition lasts; a crash without a duration never
    reboots).
    """

    kind: str
    site: str = "scheduler.step"
    at: int = 0
    governor: str = "efficiency"
    duration_steps: Optional[int] = None
    device: Optional[int] = None
    time_seconds: float = 0.0
    factor: float = 1.0
    duration_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}")
        if self.site not in INJECTION_SITES:
            raise FaultError(
                f"unknown injection site {self.site!r}; "
                f"known: {INJECTION_SITES}")
        if self.kind not in _SITE_KINDS[self.site]:
            raise FaultError(
                f"fault kind {self.kind!r} cannot fire at site "
                f"{self.site!r} (allowed: {sorted(_SITE_KINDS[self.site])})")
        if self.at < 0:
            raise FaultError(f"event index must be >= 0, got {self.at}")
        if self.kind == "thermal_throttle":
            from ..npu.power_mgmt import GOVERNORS
            if self.governor not in GOVERNORS:
                raise FaultError(
                    f"unknown governor {self.governor!r}; "
                    f"known: {sorted(GOVERNORS)}")
        if self.duration_steps is not None and self.duration_steps <= 0:
            raise FaultError(
                f"throttle duration must be positive, got "
                f"{self.duration_steps}")
        if self.site == "fleet.device":
            if self.device is None or self.device < 0:
                raise FaultError(
                    f"fleet fault {self.kind!r} needs a device id >= 0, "
                    f"got {self.device}")
            if self.time_seconds < 0.0:
                raise FaultError(
                    f"fleet fault time must be >= 0 seconds, got "
                    f"{self.time_seconds}")
            if self.kind == "straggle":
                if self.factor <= 1.0:
                    raise FaultError(
                        f"straggle factor must exceed 1, got {self.factor}")
                if self.duration_seconds is None:
                    raise FaultError("straggle needs a duration in seconds")
            if (self.duration_seconds is not None
                    and self.duration_seconds <= 0.0):
                raise FaultError(
                    f"fleet fault duration must be positive, got "
                    f"{self.duration_seconds}")
            if (self.kind in ("dispatch_drop", "battery_drain")
                    and self.duration_seconds is not None):
                raise FaultError(
                    f"{self.kind} faults are instantaneous; drop the "
                    f"duration")
        elif self.device is not None:
            raise FaultError(
                f"only fleet.device faults address a device; "
                f"{self.kind!r} at {self.site!r} must not set one")

    def spec(self) -> str:
        """Canonical single-event spec string (see :meth:`FaultPlan.parse`)."""
        if self.site == "fleet.device":
            head = f"dev#{self.device}"
            if self.kind == "device_crash":
                base = f"{head}:crash@{_fmt(self.time_seconds)}"
                if self.duration_seconds is not None:
                    base += f":{_fmt(self.duration_seconds)}"
                return base
            if self.kind == "straggle":
                return (f"{head}:straggle@{_fmt(self.time_seconds)}"
                        f":{_fmt(self.factor)}"
                        f":{_fmt(self.duration_seconds)}")
            short = {"dispatch_drop": "drop",
                     "battery_drain": "battery"}[self.kind]
            return f"{head}:{short}@{_fmt(self.time_seconds)}"
        if self.site == "scheduler.step":
            if self.kind == "thermal_throttle":
                base = f"throttle@{self.at}:{self.governor}"
                if self.duration_steps is not None:
                    base += f":{self.duration_steps}"
                return base
            short = {"session_abort": "abort", "dma_timeout": "dma",
                     "alloc_fail": "alloc"}[self.kind]
            return f"{short}@{self.at}"
        return f"kvpool#{self.at}"


class FaultPlan:
    """An immutable, deterministic schedule of fault events.

    Plans compare equal by their events, render to a canonical ``spec``
    string, and are safe to share across runs: injectors copy the event
    schedule and never mutate the plan.
    """

    def __init__(self, events: Sequence[FaultEvent] = ()) -> None:
        # the trailing fleet fields are constants for non-fleet events,
        # so the ordering of pre-existing plans is unchanged
        self.events: Tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: (
                e.site, e.at, e.time_seconds,
                -1 if e.device is None else e.device, e.kind)))

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "FaultPlan":
        """A plan that injects nothing (bitwise no-op by construction)."""
        return cls(())

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from a compact comma-separated spec.

        Step-indexed events (fire at decode step N of the scheduler)::

            abort@N                  FastRPC session abort
            dma@N                    DMA timeout (transient)
            alloc@N                  KV pool allocation failure
            throttle@N:GOV[:D]       force governor GOV for D steps
                                     (D omitted = rest of run)

        Operation-indexed events (fire at the K-th KV block allocation
        of the scheduler run)::

            kvpool#K                 K-th KV block allocation fails

        Fleet events (fire at simulated second T on device K of a
        :class:`~repro.fleet.simulation.FleetSimulation`)::

            dev#K:crash@T[:D]        device K offline at T; with D set
                                     it reboots D seconds later
            dev#K:straggle@T:F:D     device K serves F-times slower for
                                     D seconds
            dev#K:drop@T             the dispatch in flight on K at T
                                     is lost
            dev#K:battery@T          device K's battery rail depletes

        ``random:SEED`` generates a small mixed plan from a dedicated
        seeded RNG (see :meth:`random`).  Example chaos spec::

            abort@2,alloc@5,throttle@3:efficiency:4,dma@7
        """
        spec = spec.strip()
        if not spec:
            return cls.empty()
        if spec.startswith("random:"):
            try:
                seed = int(spec.split(":", 1)[1])
            except ValueError:
                raise FaultError(
                    f"bad random plan spec {spec!r}; expected random:SEED"
                ) from None
            return cls.random(seed)
        events: List[FaultEvent] = []
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            events.append(cls._parse_token(token))
        return cls(events)

    @staticmethod
    def _parse_token(token: str) -> FaultEvent:
        try:
            if token.startswith("dev#"):
                head, rest = token.split(":", 1)
                device = int(head[len("dev#"):])
                verb, args = rest.split("@", 1)
                parts = args.split(":")
                time_seconds = float(parts[0])
                if verb == "crash":
                    duration = (float(parts[1]) if len(parts) > 1 else None)
                    return FaultEvent("device_crash", "fleet.device",
                                      device=device,
                                      time_seconds=time_seconds,
                                      duration_seconds=duration)
                if verb == "straggle":
                    return FaultEvent("straggle", "fleet.device",
                                      device=device,
                                      time_seconds=time_seconds,
                                      factor=float(parts[1]),
                                      duration_seconds=float(parts[2]))
                kind = {"drop": "dispatch_drop",
                        "battery": "battery_drain"}[verb]
                if len(parts) > 1:
                    raise FaultError(
                        f"{verb} faults take no duration: {token!r}")
                return FaultEvent(kind, "fleet.device", device=device,
                                  time_seconds=time_seconds)
            if "@" in token:
                head, rest = token.split("@", 1)
                if head == "throttle":
                    parts = rest.split(":")
                    at = int(parts[0])
                    governor = parts[1] if len(parts) > 1 else "efficiency"
                    duration = int(parts[2]) if len(parts) > 2 else None
                    return FaultEvent("thermal_throttle", "scheduler.step",
                                      at, governor=governor,
                                      duration_steps=duration)
                kind = {"abort": "session_abort", "dma": "dma_timeout",
                        "alloc": "alloc_fail"}[head]
                return FaultEvent(kind, "scheduler.step", int(rest))
            if token.startswith("kvpool#"):
                return FaultEvent("alloc_fail", "kv_pool.alloc",
                                  int(token[len("kvpool#"):]))
        except (KeyError, ValueError, IndexError):
            pass
        raise FaultError(
            f"cannot parse fault spec token {token!r}; see FaultPlan.parse")

    @classmethod
    def random(cls, seed: int, n_aborts: int = 1, n_dma: int = 1,
               n_allocs: int = 1, n_throttles: int = 1,
               horizon_steps: int = 16, n_crashes: int = 0,
               n_straggles: int = 0, n_drops: int = 0,
               n_battery: int = 0, n_devices: int = 1,
               horizon_seconds: Optional[float] = None) -> "FaultPlan":
        """A seeded random chaos plan over the first ``horizon_steps``.

        Uses its own :func:`numpy.random.default_rng` stream so plan
        generation never perturbs the accuracy RNG; two calls with the
        same arguments produce identical plans.

        Fleet-level kinds are opt-in: the crash/straggle/drop/battery
        counts default to zero and their draws happen *after* every
        scheduler-level draw, so plans for pre-existing seeds and
        arguments are bitwise-stable (pinned by
        ``tests/test_fleet_chaos.py::test_random_seed0_spec_pinned``).
        Fleet fault times land on a centisecond grid inside
        ``horizon_seconds`` (default: ``horizon_steps`` seconds) across
        ``n_devices`` devices.
        """
        if horizon_steps <= 0:
            raise FaultError(
                f"horizon must be positive, got {horizon_steps}")
        rng = np.random.default_rng(seed)
        events: List[FaultEvent] = []
        for kind, count in (("session_abort", n_aborts),
                            ("dma_timeout", n_dma),
                            ("alloc_fail", n_allocs)):
            for _ in range(max(count, 0)):
                events.append(FaultEvent(
                    kind, "scheduler.step",
                    int(rng.integers(0, horizon_steps))))
        governors = ("balanced", "efficiency")
        for _ in range(max(n_throttles, 0)):
            events.append(FaultEvent(
                "thermal_throttle", "scheduler.step",
                int(rng.integers(0, horizon_steps)),
                governor=governors[int(rng.integers(0, len(governors)))],
                duration_steps=int(rng.integers(2, horizon_steps + 1))))
        n_fleet = max(n_crashes, 0) + max(n_straggles, 0) \
            + max(n_drops, 0) + max(n_battery, 0)
        if n_fleet:
            if n_devices <= 0:
                raise FaultError(
                    f"fleet faults need n_devices >= 1, got {n_devices}")
            horizon = (float(horizon_seconds) if horizon_seconds is not None
                       else float(horizon_steps))
            if horizon <= 0:
                raise FaultError(
                    f"fleet horizon must be positive, got {horizon}")
            # centisecond grid: spec strings round-trip exactly through
            # float parsing, keeping replay strings canonical
            ticks = max(1, int(horizon * 100))

            def _time() -> float:
                return int(rng.integers(0, ticks)) / 100.0

            def _device() -> int:
                return int(rng.integers(0, n_devices))

            for _ in range(max(n_crashes, 0)):
                reboot = int(rng.integers(0, 2))
                duration = (int(rng.integers(50, ticks + 50)) / 100.0
                            if reboot else None)
                events.append(FaultEvent(
                    "device_crash", "fleet.device", device=_device(),
                    time_seconds=_time(), duration_seconds=duration))
            for _ in range(max(n_straggles, 0)):
                events.append(FaultEvent(
                    "straggle", "fleet.device", device=_device(),
                    time_seconds=_time(),
                    factor=1.0 + int(rng.integers(1, 8)) / 2.0,
                    duration_seconds=int(rng.integers(50, ticks + 50))
                    / 100.0))
            for _ in range(max(n_drops, 0)):
                events.append(FaultEvent(
                    "dispatch_drop", "fleet.device", device=_device(),
                    time_seconds=_time()))
            for _ in range(max(n_battery, 0)):
                events.append(FaultEvent(
                    "battery_drain", "fleet.device", device=_device(),
                    time_seconds=_time()))
        return cls(events)

    # ------------------------------------------------------------------
    def spec(self) -> str:
        """Canonical spec string round-tripping through :meth:`parse`."""
        return ",".join(e.spec() for e in self.events)

    def counts(self) -> Dict[str, int]:
        """Event count per fault kind (chaos report headers)."""
        out: Dict[str, int] = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    def fleet_events(self) -> Tuple[FaultEvent, ...]:
        """The ``fleet.device`` events, in firing order.

        Consumed by :class:`~repro.fleet.simulation.FleetSimulation`,
        which schedules each on the shared event loop at its
        ``time_seconds`` and refuses a plan holding any other event: no
        fleet device fires one, since an engine-backed device arms each
        request's own ``fault_spec``.  The per-run
        :class:`FaultInjector` skips ``fleet.device`` events entirely.
        """
        return tuple(sorted(
            (e for e in self.events if e.site == "fleet.device"),
            key=lambda e: (e.time_seconds, e.device, e.kind)))

    def refuse_outside(self, sites: Sequence[str], run: str) -> None:
        """Raise :class:`FaultError` naming the plan's first event at a
        site outside ``sites``, the only ones ``run`` fires: an event
        that would never fire is refused, not silently dropped."""
        for event in self.events:
            if event.site not in sites:
                raise FaultError(
                    f"fault {event.spec()!r} at site {event.site!r} never "
                    f"fires: {run} arms only {' and '.join(sites)} events")

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return self.events == other.events

    def __hash__(self) -> int:
        return hash(self.events)

    def __repr__(self) -> str:
        return f"FaultPlan({self.spec()!r})"


@dataclass(frozen=True)
class FaultRecord:
    """One fault that actually fired during a run."""

    kind: str
    site: str
    at: int
    step: Optional[int] = None   # decode step when the scheduler saw it
    detail: str = ""


class FaultInjector:
    """Consumes a :class:`FaultPlan` during one run.

    The operation-indexed site, the KV block pool, calls
    :meth:`maybe_raise` once per allocation; the injector counts calls
    and fires the events whose index matches.  Step-indexed scheduler
    events are pulled with :meth:`step_events`.  Every fired event is
    appended to :attr:`injected` and recorded as a ``resilience.fault``
    span plus the ``repro.resilience.faults_injected`` counter, so chaos
    runs are auditable from the trace alone.

    Each event fires exactly once; :attr:`remaining` counts the events
    still pending, which chaos tests assert reaches zero.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._by_site: Dict[str, Dict[int, List[FaultEvent]]] = {}
        for event in plan:
            if event.site == "fleet.device":
                # device-level events belong to the fleet layer; they
                # never fire through per-run operation counting
                continue
            self._by_site.setdefault(event.site, {}).setdefault(
                event.at, []).append(event)
        self._counters: Dict[str, int] = {}
        self.injected: List[FaultRecord] = []
        #: Optional :class:`~repro.sim.SimClock` the owning run charges
        #: recovery time to; when set, fired faults also land on the
        #: structured event log (:mod:`repro.obs.timeline`) with their
        #: simulated timestamp.  Under the fleet layer this is the
        #: device-local clock of the shared event-loop kernel, so fault
        #: timestamps line up with the fleet timeline.
        self.clock = None

    # ------------------------------------------------------------------
    @property
    def remaining(self) -> int:
        return sum(len(evs) for site in self._by_site.values()
                   for evs in site.values())

    def _record(self, event: FaultEvent, index: int,
                step: Optional[int] = None, detail: str = "") -> FaultRecord:
        record = FaultRecord(kind=event.kind, site=event.site, at=index,
                             step=step, detail=detail)
        self.injected.append(record)
        obs = obs_context.current()
        if obs.tracer.enabled:
            obs.metrics.counter("repro.resilience.faults_injected").inc()
            obs.metrics.counter("repro.resilience.faults_injected",
                                labels={"kind": event.kind,
                                        "site": event.site}).inc()
            with obs.tracer.span("resilience.fault", category="resilience",
                                 kind=event.kind, site=event.site,
                                 at=index, step=step if step is not None
                                 else -1):
                pass
        if self.clock is not None and obs.log.enabled:
            obs.log.emit("fault", self.clock.total_seconds, step=step,
                         fault_kind=event.kind, site=event.site, at=index)
        return record

    # ------------------------------------------------------------------
    def take(self, site: str, index: Optional[int] = None
             ) -> List[FaultEvent]:
        """Pop the events firing at this operation of ``site``.

        With ``index=None`` the injector's per-site call counter is
        used (and advanced); pass an explicit index for step-indexed
        sites where retried steps must not re-count.
        """
        if index is None:
            index = self._counters.get(site, 0)
            self._counters[site] = index + 1
        pending = self._by_site.get(site)
        if not pending:
            return []
        return pending.pop(index, [])

    def maybe_raise(self, site: str, index: Optional[int] = None,
                    detail: str = "") -> None:
        """Fire any event scheduled for this operation by raising.

        Used by the hook in :class:`~repro.llm.block_pool.BlockPool`, so
        a fired ``alloc_fail`` raises
        :class:`~repro.errors.KVPoolExhausted`.  ``detail`` is embedded
        in the exception message (requested vs. free bytes etc.), so an
        injected failure is debuggable from the exception alone.
        """
        events = self.take(site, index)
        if not events:
            return
        event = events[0]
        fired_at = (index if index is not None
                    else self._counters.get(site, 1) - 1)
        self._record(event, fired_at, detail=detail)
        message = f"injected {event.kind} at {site}[{fired_at}]"
        if detail:
            message += f": {detail}"
        raise KVPoolExhausted(message)

    def step_events(self, step: int) -> List[FaultEvent]:
        """Scheduler-step events for decode step ``step`` (recorded)."""
        events = self.take("scheduler.step", step)
        for event in events:
            self._record(event, step, step=step,
                         detail=f"governor={event.governor}"
                         if event.kind == "thermal_throttle" else "")
        return events
