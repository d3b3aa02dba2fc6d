"""The fleet simulation: one event loop driving the whole population.

Arrivals, dispatches and completions are events on a single shared
:class:`~repro.sim.EventLoop`; devices price each request's service
time synchronously at dispatch (analytic model or a real scheduler run
on the device-local clock) and the completion lands back on the global
timeline ``service_seconds`` later.  Dispatch order is deterministic:
the longest-idle available device (ties by device id) serves the most
urgent queued request.

Chaos (PR 8): a :class:`~repro.resilience.faults.FaultPlan` may carry
``fleet.device`` events — ``dev#K:crash@T[:D]`` / ``straggle@T:F:D`` /
``drop@T`` / ``battery@T`` — which the simulation schedules on the same
loop.  The recovery side lives in :mod:`repro.fleet.health`: per-device
circuit breakers quarantine repeat offenders, failed dispatches fail
over back through the :class:`AdmissionController` under a capped
retry budget with deterministic jittered backoff, and (optionally) the
p99 queue tail hedges onto a second device with first-completion-wins
cancellation.  Under **any** fault schedule the run upholds the
conservation invariant::

    offered == completed + shed + failed_permanently + unserved

with no request served twice (hedge losers are cancelled before their
completion fires) — checked at the end of every run and fuzzed by the
``fleet`` oracle.

Timeline integration: with the structured event log
(:mod:`repro.obs.timeline`) armed in the context a run starts under,
the simulation emits ``queue`` / ``dispatch`` / ``shed`` /
``complete`` events per request — plus
``device_down`` / ``device_up`` / ``failover`` / ``hedge`` /
``breaker_open`` / ``breaker_close`` and ``fault`` under chaos — so
``repro monitor`` folds a fleet scenario exactly like a single-engine
one.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import FleetError
from ..obs import context as obs_context
from ..obs.metrics import Histogram
from ..obs.slo import hdr_buckets
from ..sim import EventHandle, EventLoop
from .devices import FleetDevice, ServiceOutcome
from .health import FleetHealth, FailoverPolicy, HedgePolicy
from .requests import AdmissionController, FleetRequest

__all__ = ["FleetResult", "FleetSimulation"]

#: Fleet-wide aggregation resolution (4 sub-buckets/octave); device
#: histograms use generation-dependent bits, so merging into these
#: bounds is the mixed-resolution path by construction.
_FLEET_HDR_BITS = 2


def _fleet_histogram(name: str, lo: float, hi: float) -> Histogram:
    return Histogram(name, buckets=hdr_buckets(
        lo, hi, precision_bits=_FLEET_HDR_BITS))


class _Dispatch:
    """One in-flight (request, device) service; a hedged request has two.

    Its ``handle`` fires :meth:`FleetSimulation._complete` with it, so
    the two reference each other; the simulation drops ``handle`` once
    the leg completes or is cancelled, so a finished run holds no cycle
    that keeps it alive.
    """

    __slots__ = ("request", "device_id", "outcome", "handle",
                 "start_seconds", "hedged")

    def __init__(self, request: FleetRequest, device_id: int,
                 outcome: ServiceOutcome, start_seconds: float,
                 hedged: bool) -> None:
        self.request = request
        self.device_id = device_id
        self.outcome = outcome
        self.handle: Optional[EventHandle] = None  # set once scheduled
        self.start_seconds = start_seconds
        self.hedged = hedged


@dataclass
class FleetResult:
    """Raw outcome of one simulated serving window."""

    devices: List[FleetDevice]
    n_arrivals: int = 0
    n_dispatched: int = 0
    n_completed: int = 0
    n_shed: int = 0
    n_unserved: int = 0
    makespan_seconds: float = 0.0
    peak_queue_depth: int = 0
    tokens: int = 0
    joules: float = 0.0
    n_faults: int = 0
    n_retries: int = 0
    # --- chaos / recovery counters (all zero on a fault-free run) ---
    n_failed: int = 0            #: requests whose failover budget ran out
    n_failovers: int = 0         #: re-dispatch attempts scheduled
    n_fleet_faults: int = 0      #: fleet.device fault events fired
    n_crashes: int = 0
    n_reboots: int = 0
    n_drops: int = 0             #: dispatches actually lost in flight
    n_straggles: int = 0
    n_battery_faults: int = 0
    n_hedges: int = 0            #: hedge dispatches issued
    n_hedge_cancelled: int = 0   #: losing hedge legs cancelled
    n_breaker_opens: int = 0
    n_breaker_closes: int = 0
    request_latency: Histogram = field(default_factory=lambda: _fleet_histogram(
        "fleet.request_latency_seconds", 1e-3, 1074.0))
    queue_wait: Histogram = field(default_factory=lambda: _fleet_histogram(
        "fleet.queue_wait_seconds", 1e-4, 1074.0))

    def token_latency(self) -> Histogram:
        """All devices' token-latency histograms folded into one.

        Per-device instruments carry generation-matched resolutions
        (:data:`~repro.fleet.devices.GENERATION_HDR_BITS`), so this is
        the mixed-resolution :meth:`~repro.obs.metrics.Histogram.merge`
        running in production, not just in its regression test.
        """
        merged = _fleet_histogram("fleet.token_latency_seconds", 1e-4, 134.0)
        for device in self.devices:
            if device.histogram.count:
                merged.merge(device.histogram)
        return merged

    @property
    def n_throttle_events(self) -> int:
        return sum(d.thermal.n_throttles for d in self.devices)

    @property
    def n_batteries_depleted(self) -> int:
        return sum(1 for d in self.devices if d.battery.depleted)

    def busy_fraction(self) -> float:
        """Mean device utilization over the makespan."""
        if self.makespan_seconds <= 0.0 or not self.devices:
            return 0.0
        busy = sum(d.busy_seconds for d in self.devices)
        return busy / (len(self.devices) * self.makespan_seconds)

    # ------------------------------------------------------------------
    def conservation(self) -> Dict[str, int]:
        """The invariant's ledger: every offered request's terminal state."""
        return {
            "offered": self.n_arrivals,
            "completed": self.n_completed,
            "shed": self.n_shed,
            "failed_permanently": self.n_failed,
            "unserved": self.n_unserved,
        }

    def check_conservation(self) -> None:
        """Raise :class:`FleetError` unless every request is accounted."""
        ledger = self.conservation()
        terminal = (ledger["completed"] + ledger["shed"]
                    + ledger["failed_permanently"] + ledger["unserved"])
        if ledger["offered"] != terminal:
            raise FleetError(
                f"request conservation violated: offered "
                f"{ledger['offered']} != completed + shed + "
                f"failed_permanently + unserved = {terminal} ({ledger})")


class FleetSimulation:
    """Drives a device population through an arrival trace.

    ``fault_plan`` arms any ``fleet.device`` events it carries on the
    shared loop (its scheduler-level events are untouched here — engine
    devices arm those per run).  ``failover`` / ``hedge`` configure the
    recovery policies; with no plan and no hedging the health layer is
    inert and the simulation is bitwise-identical to the pre-chaos one.
    """

    def __init__(self, devices: Sequence[FleetDevice],
                 requests: Sequence[FleetRequest],
                 admission: Optional[AdmissionController] = None,
                 loop: Optional[EventLoop] = None,
                 fault_plan=None,
                 failover: Optional[FailoverPolicy] = None,
                 hedge: Optional[HedgePolicy] = None,
                 seed: int = 0,
                 breaker_failure_threshold: int = 3,
                 breaker_cooldown_seconds: float = 2.0) -> None:
        if not devices:
            raise FleetError("fleet simulation needs at least one device")
        ids = [d.device_id for d in devices]
        if len(set(ids)) != len(ids):
            raise FleetError(f"duplicate device ids in population: {ids}")
        self.devices = list(devices)
        self._by_id: Dict[int, FleetDevice] = {d.device_id: d
                                               for d in self.devices}
        self.requests = sorted(requests,
                               key=lambda r: (r.arrival_seconds,
                                              r.request_id))
        self.admission = (admission if admission is not None
                          else AdmissionController())
        self.loop = loop if loop is not None else EventLoop()
        self.health = FleetHealth(
            self._by_id, seed=seed, failover=failover, hedge=hedge,
            failure_threshold=breaker_failure_threshold,
            cooldown_seconds=breaker_cooldown_seconds)
        self._fault_events: Tuple = ()
        if fault_plan is not None:
            self._fault_events = fault_plan.fleet_events()
            unknown = sorted({e.device for e in self._fault_events}
                             - set(self._by_id))
            if unknown:
                raise FleetError(
                    f"fault plan addresses devices {unknown} not in the "
                    f"population (ids: {sorted(self._by_id)})")
        # (idle_since, device_id): longest-idle first, ties by id — a
        # device appears at most once (the _in_rotation mirror guards
        # the rejoin paths: reboot, breaker half-open, hedge release)
        self._idle: List[Tuple[float, int]] = [
            (0.0, d.device_id) for d in sorted(self.devices,
                                               key=lambda d: d.device_id)]
        heapq.heapify(self._idle)
        self._in_rotation: Set[int] = {d.device_id for d in self.devices}
        self._inflight: Dict[int, List[_Dispatch]] = {}
        self._attempts: Dict[int, int] = {}
        self._completed_ids: Set[int] = set()
        self._hedge_pending: List[int] = []
        self.result = FleetResult(devices=self.devices)

    # ------------------------------------------------------------------
    def run(self) -> FleetResult:
        # the event log every fact goes to, bound for this run only: a
        # finished simulation stays alive in reference cycles until the
        # cyclic collector runs, and must not keep a recorded log alive
        self._log = obs_context.current().log
        # fault events are scheduled first: at equal timestamps a fault
        # fires before an arrival, deterministically
        for event in self._fault_events:
            self.loop.at(event.time_seconds, self._fault, event)
        self.loop.feed([r.arrival_seconds for r in self.requests],
                       self._arrive, self.requests)
        self.loop.run()
        del self._log
        # whatever is still queued after the last completion can never
        # be served (every device depleted/offline): account, don't lose
        leftover = self.admission.drain()
        self.result.n_unserved = len(leftover)
        self.result.peak_queue_depth = self.admission.peak_depth
        self.result.n_breaker_opens = self.health.n_breaker_opens
        self.result.n_breaker_closes = self.health.n_breaker_closes
        self.result.check_conservation()
        return self.result

    # ------------------------------------------------------------------
    def _arrive(self, request: FleetRequest) -> None:
        now = self.loop.now
        self.result.n_arrivals += 1
        if self._log.enabled:
            self._log.emit("queue", now, request_id=request.request_id,
                           tenant=request.tenant)
        admitted, shed = self.admission.offer(request)
        if not admitted:
            self._shed(request, now)
        elif shed is not None:
            self._shed(shed, now)
        self._dispatch(now)

    def _shed(self, request: FleetRequest, now: float) -> None:
        self.result.n_shed += 1
        self._log.emit("shed", now, request_id=request.request_id,
                       tenant=request.tenant,
                       queue_depth=len(self.admission))

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _dispatchable(self, device: FleetDevice) -> bool:
        return (not device.battery.depleted
                and self.health[device.device_id].dispatchable())

    def _pop_idle_device(self) -> Optional[FleetDevice]:
        """Longest-idle dispatchable device, or None; skipped entries
        drop out of the rotation until a rejoin path re-adds them."""
        while self._idle:
            _, device_id = heapq.heappop(self._idle)
            self._in_rotation.discard(device_id)
            device = self._by_id[device_id]
            if self._dispatchable(device):
                return device
        return None

    def _try_rejoin(self, device: FleetDevice, now: float) -> None:
        """Return a freed device to the idle rotation if it may serve."""
        if device.busy or device.device_id in self._in_rotation:
            return
        if not self._dispatchable(device):
            return
        heapq.heappush(self._idle, (now, device.device_id))
        self._in_rotation.add(device.device_id)

    def _dispatch(self, now: float) -> None:
        """Serve queued requests on idle devices at sim-time ``now``."""
        admission = self.admission
        queue_wait = self.result.queue_wait
        hedge = self.health.hedge
        while len(admission) > 0 and self._idle:
            device = self._pop_idle_device()
            if device is None:
                return
            request = admission.pop()
            assert request is not None
            wait = now - request.arrival_seconds
            # zero waits (dispatch at arrival) sit below the first
            # bound; the histogram's first bucket covers them
            queue_wait.observe_many(wait, 1)
            self._start_dispatch(request, device, now, wait, hedged=False)
            if hedge is not None and hedge.should_hedge(wait, queue_wait):
                # p99 queue tail: eligible for a hedge copy once the
                # fleet has spare capacity
                self._hedge_pending.append(request.request_id)
        if hedge is not None:
            self._service_hedges(now)

    def _service_hedges(self, now: float) -> None:
        """Hedge the queue tail onto spare devices.

        A request whose queue wait landed in the policy's tail gets a
        second dispatch on another device as soon as the queue is empty
        and a device idles — never ahead of real queued work.  The two
        legs race; the first completion wins and cancels the other.
        """
        if not self._hedge_pending or len(self.admission) > 0:
            return
        while self._hedge_pending:
            rid = self._hedge_pending[0]
            legs = self._inflight.get(rid)
            if not legs or len(legs) != 1 or legs[0].hedged:
                self._hedge_pending.pop(0)  # completed or already hedged
                continue
            partner = self._pop_idle_device()
            if partner is None:
                return  # stays pending; retried when a device frees
            self._hedge_pending.pop(0)
            primary = legs[0]
            self.result.n_hedges += 1
            self._log.emit(
                "hedge", now, request_id=rid,
                primary=primary.device_id,
                secondary=partner.device_id,
                elapsed_seconds=now - primary.request.arrival_seconds)
            self._start_dispatch(
                primary.request, partner, now,
                now - primary.request.arrival_seconds, hedged=True)

    def _start_dispatch(self, request: FleetRequest, device: FleetDevice,
                        now: float, wait: float, hedged: bool) -> None:
        multiplier = self.health[device.device_id].service_multiplier(now)
        outcome = device.serve(request, now,
                               service_multiplier=multiplier)
        self.result.n_dispatched += 1
        if self._log.enabled:
            # only a hedge leg carries the ``hedged`` attr
            if hedged:
                self._log.emit(
                    "dispatch", now, request_id=request.request_id,
                    device=device.device_id, generation=device.generation,
                    wait_seconds=wait,
                    service_seconds=outcome.service_seconds,
                    joules=outcome.joules, hedged=True)
            else:
                self._log.emit(
                    "dispatch", now, request_id=request.request_id,
                    device=device.device_id, generation=device.generation,
                    wait_seconds=wait,
                    service_seconds=outcome.service_seconds,
                    joules=outcome.joules)
        dispatch = _Dispatch(request, device.device_id, outcome, now,
                             hedged)
        dispatch.handle = self.loop.at(now + outcome.service_seconds,
                                       self._complete, dispatch)
        self._inflight.setdefault(request.request_id, []).append(dispatch)

    # ------------------------------------------------------------------
    # completion (and first-completion-wins hedge cancellation)
    # ------------------------------------------------------------------
    def _complete(self, dispatch: _Dispatch) -> None:
        now = self.loop.now
        request = dispatch.request
        rid = request.request_id
        legs = self._inflight.pop(rid, ())
        dispatch.handle = None
        # only a hedged request has a second leg to cancel
        losers = ([leg for leg in legs if leg is not dispatch]
                  if len(legs) > 1 else ())
        for loser in losers:
            self.loop.cancel(loser.handle)
            loser.handle = None
            loser_device = self._by_id[loser.device_id]
            unused = (loser.start_seconds + loser.outcome.service_seconds
                      - now)
            loser_device.release(now, unused_seconds=unused)
            # the loser's energy was really drawn from its battery at
            # dispatch; keep the fleet ledger honest about wasted work
            self.result.joules += loser.outcome.joules
            self.result.n_hedge_cancelled += 1
            self._log.emit("hedge", now, request_id=rid,
                           loser=loser.device_id,
                           winner=dispatch.device_id,
                           cancelled=True)
        if rid in self._completed_ids:
            raise FleetError(
                f"request {rid} completed twice — hedge cancellation "
                f"failed to fire")
        self._completed_ids.add(rid)
        device = self._by_id[dispatch.device_id]
        outcome = dispatch.outcome
        device.complete(request, outcome, now)
        result = self.result
        result.n_completed += 1
        result.tokens += outcome.tokens
        result.joules += outcome.joules
        result.n_faults += outcome.n_faults
        result.n_retries += outcome.n_retries
        if now > result.makespan_seconds:
            result.makespan_seconds = now
        latency = now - request.arrival_seconds
        result.request_latency.observe_many(latency, 1)
        if self._log.enabled:
            self._log.emit("complete", now, request_id=rid,
                           reason="served", tokens=outcome.tokens,
                           latency_seconds=latency,
                           joules=outcome.joules,
                           device=dispatch.device_id,
                           tenant=request.tenant)
        breaker = self.health[device.device_id].breaker
        if breaker.record_success():  # half-open probe succeeded
            self._log.emit("breaker_close", now,
                           device=device.device_id)
        self._try_rejoin(device, now)
        for loser in losers:
            self._try_rejoin(self._by_id[loser.device_id], now)
        self._dispatch(now)

    # ------------------------------------------------------------------
    # fleet-level faults
    # ------------------------------------------------------------------
    def _fault(self, event) -> None:
        now = self.loop.now
        device = self._by_id[event.device]
        health = self.health[event.device]
        self.result.n_fleet_faults += 1
        if event.kind == "device_crash":
            health.crash()
            self.result.n_crashes += 1
            self._log.emit("device_down", now, device=event.device,
                           reboot_seconds=event.duration_seconds)
            self._fail_inflight_on(device, now, reason="crash")
            if event.duration_seconds is not None:
                self.loop.after(event.duration_seconds, self._reboot,
                                device)
        elif event.kind == "straggle":
            health.start_straggle(now, event.factor,
                                  event.duration_seconds)
            self.result.n_straggles += 1
            self._log.emit("fault", now, fault_kind="straggle",
                           device=event.device, factor=event.factor,
                           duration_seconds=event.duration_seconds)
        elif event.kind == "dispatch_drop":
            self._log.emit("fault", now, fault_kind="dispatch_drop",
                           device=event.device)
            dropped = self._fail_inflight_on(device, now, reason="drop")
            if dropped:
                self.result.n_drops += dropped
                health.n_drops += dropped
                self._try_rejoin(device, now)
                self._dispatch(now)
        elif event.kind == "battery_drain":
            device.battery.deplete()
            self.result.n_battery_faults += 1
            self._log.emit("fault", now, fault_kind="battery_drain",
                           device=event.device)
        else:  # pragma: no cover — grammar validation forbids this
            raise FleetError(f"unhandled fleet fault kind {event.kind!r}")

    def _fail_inflight_on(self, device: FleetDevice, now: float,
                          reason: str) -> int:
        """Cancel every live dispatch on ``device``; fail them over.

        Returns the number of dispatches lost.  A lost *hedge leg*
        whose sibling is still running is not a request failure — the
        request is still being served — but it does count against the
        device's breaker.
        """
        lost = 0
        for rid in list(self._inflight):
            legs = self._inflight.get(rid, [])
            victims = [leg for leg in legs
                       if leg.device_id == device.device_id
                       and leg.handle.pending]
            for victim in victims:
                self.loop.cancel(victim.handle)
                victim.handle = None
                legs.remove(victim)
                unused = (victim.start_seconds
                          + victim.outcome.service_seconds - now)
                device.release(now, unused_seconds=unused)
                self.result.joules += victim.outcome.joules
                lost += 1
                self._record_device_failure(device, now)
                if legs:
                    # the sibling hedge leg races on — no failover
                    self.result.n_hedge_cancelled += 1
                    self._log.emit("hedge", now, request_id=rid,
                                   loser=device.device_id,
                                   cancelled=True, reason=reason)
                else:
                    del self._inflight[rid]
                    self._failover(victim.request, device, now, reason)
        return lost

    def _record_device_failure(self, device: FleetDevice,
                               now: float) -> None:
        breaker = self.health[device.device_id].breaker
        cooldown = breaker.record_failure()
        if cooldown is not None:
            self._log.emit(
                "breaker_open", now, device=device.device_id,
                cooldown_seconds=cooldown,
                consecutive_failures=breaker.consecutive_failures)
            self.loop.after(cooldown, self._half_open, device)

    def _half_open(self, device: FleetDevice) -> None:
        now = self.loop.now
        self.health[device.device_id].breaker.half_open()
        self._try_rejoin(device, now)
        self._dispatch(now)

    def _reboot(self, device: FleetDevice) -> None:
        health = self.health[device.device_id]
        if health.online:
            return  # a later crash/reboot pair already brought it back
        health.reboot()
        now = self.loop.now
        self.result.n_reboots += 1
        self._log.emit("device_up", now, device=device.device_id)
        self._try_rejoin(device, now)
        self._dispatch(now)

    # ------------------------------------------------------------------
    # failover
    # ------------------------------------------------------------------
    def _failover(self, request: FleetRequest, from_device: FleetDevice,
                  now: float, reason: str) -> None:
        rid = request.request_id
        attempt = self._attempts.get(rid, 0)
        policy = self.health.failover
        if attempt >= policy.max_attempts:
            self.result.n_failed += 1
            self._log.emit("failover", now, request_id=rid,
                           from_device=from_device.device_id,
                           reason=reason, attempt=attempt,
                           outcome="exhausted")
            return
        self._attempts[rid] = attempt + 1
        delay = policy.backoff(rid, attempt)
        self.result.n_failovers += 1
        self._log.emit("failover", now, request_id=rid,
                       from_device=from_device.device_id,
                       reason=reason, attempt=attempt,
                       outcome="retry", backoff_seconds=delay)
        self.loop.after(delay, self._reoffer, request)

    def _reoffer(self, request: FleetRequest) -> None:
        """Re-enter the admission queue after a failover backoff.

        The request keeps its tenant class (a failed-over batch request
        must not jump interactive traffic) and takes a fresh arrival
        sequence number — the back of its priority class, like any
        other late arrival.  Re-offers do not recount as arrivals.
        """
        now = self.loop.now
        self._log.emit("queue", now, request_id=request.request_id,
                       tenant=request.tenant, reoffer=True)
        admitted, shed = self.admission.offer(request)
        if not admitted:
            self._shed(request, now)
        elif shed is not None:
            self._shed(shed, now)
        self._dispatch(now)
