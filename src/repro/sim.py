"""Shared discrete-event simulation kernel.

Every layer of the simulator that reasons about *when* something
happens — the continuous-batching scheduler, the fault injector's
recovery backoff, and the fleet serving layer — advances the same two
primitives defined here:

* :class:`SimClock` — the monotone accumulator of simulated seconds
  that used to live in :mod:`repro.npu.timing`.  One clock is one
  execution timeline; ``total_seconds`` is a makespan on the modelled
  device, never host wall clock.
* :class:`EventLoop` — a deterministic event loop over a ``SimClock``:
  callbacks scheduled at absolute sim-times fire in non-decreasing
  time order with FIFO tie-breaking (insertion sequence), and the loop
  advances its clock to each event's timestamp before invoking it.

Determinism contract: given the same sequence of ``at``/``after``/
``cancel`` calls, the loop fires the same callbacks at the same
simulated times in the same order — there is no randomness, no host
clock, and no hash/iteration-order dependence anywhere in the kernel.
The hypothesis suite in ``tests/test_fleet_clock_property.py`` pins
this contract (monotone firing order, cancellation never resurrects a
handle, identical seed → identical event sequence).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from .errors import FleetError, NPUError

__all__ = ["SimClock", "EventHandle", "EventLoop"]


class SimClock:
    """Accumulator for simulated seconds along one execution timeline.

    Schedulers advance the clock once per step with the step's simulated
    latency; ``total_seconds`` is then the makespan of the run on the
    modelled device, independent of host wall clock.  Negative advances
    are rejected — simulated time is monotone.
    """

    def __init__(self) -> None:
        self.total_seconds = 0.0
        self.n_advances = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds (alias of ``total_seconds``)."""
        return self.total_seconds

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise NPUError(
                f"cannot advance simulated time by {seconds} seconds")
        self.total_seconds += seconds
        self.n_advances += 1
        return self.total_seconds

    def advance_to(self, seconds: float) -> float:
        """Advance to an absolute sim-time; rejects travel into the past.

        Assigns the target exactly instead of accumulating a delta:
        ``t + (T - t)`` can round *past* ``T`` in float arithmetic, and
        a subsequent event at exactly ``T`` would then see a negative
        delta.  Two events at the same timestamp must both observe it.
        """
        if seconds < self.total_seconds:
            raise NPUError(
                f"cannot advance simulated time backwards to {seconds} "
                f"(already at {self.total_seconds})")
        self.total_seconds = seconds
        self.n_advances += 1
        return self.total_seconds


class EventHandle:
    """One scheduled callback; returned by :meth:`EventLoop.at`.

    A handle moves through at most three states: *pending* →
    (*fired* | *cancelled*).  ``cancel()`` on a pending handle returns
    True exactly once; cancelling a fired handle — or firing a
    cancelled one — is impossible (cancellation never resurrects).
    """

    __slots__ = ("seq", "time", "callback", "args", "cancelled", "fired")

    def __init__(self, seq: int, time: float,
                 callback: Callable[..., Any], args: Tuple[Any, ...]) -> None:
        self.seq = seq
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False

    @property
    def pending(self) -> bool:
        return not (self.cancelled or self.fired)

    def __repr__(self) -> str:
        state = ("cancelled" if self.cancelled
                 else "fired" if self.fired else "pending")
        return f"EventHandle(seq={self.seq}, time={self.time:.6g}, {state})"


class EventLoop:
    """Deterministic discrete-event loop over a :class:`SimClock`.

    Events are held in a heap keyed ``(time, seq)`` where ``seq`` is
    the insertion sequence number, so simultaneous events fire in the
    order they were scheduled.  Cancelled handles stay in the heap and
    are skipped lazily at pop time — O(1) cancellation without
    disturbing heap order.
    """

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self._heap: List[Tuple[float, int, EventHandle]] = []
        self._seq = 0
        self.n_fired = 0
        self.n_cancelled = 0

    @property
    def now(self) -> float:
        return self.clock.total_seconds

    def __len__(self) -> int:
        """Number of pending (not yet fired, not cancelled) events."""
        return sum(1 for _, _, h in self._heap if h.pending)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def at(self, time: float, callback: Callable[..., Any],
           *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute sim-time ``time``."""
        if time < self.now:
            raise FleetError(
                f"cannot schedule an event at t={time:.6g}s, "
                f"already at t={self.now:.6g}s")
        handle = EventHandle(self._seq, time, callback, args)
        self._seq += 1
        heapq.heappush(self._heap, (time, handle.seq, handle))
        return handle

    def after(self, delay: float, callback: Callable[..., Any],
              *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` ``delay`` seconds from now."""
        if delay < 0:
            raise FleetError(
                f"cannot schedule an event {delay:.6g} seconds in the past")
        return self.at(self.now + delay, callback, *args)

    def cancel(self, handle: EventHandle) -> bool:
        """Cancel a pending handle; returns False if fired/cancelled."""
        if not handle.pending:
            return False
        handle.cancelled = True
        self.n_cancelled += 1
        return True

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def peek_time(self) -> Optional[float]:
        """Sim-time of the next pending event, or None when drained."""
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None

    def step(self) -> Optional[EventHandle]:
        """Fire the next pending event; None when the loop is drained.

        Advances the clock to the event's timestamp before invoking the
        callback, so callbacks observe ``loop.now == handle.time`` and
        may schedule further events at or after that instant.
        """
        while self._heap:
            _, _, handle = heapq.heappop(self._heap)
            if handle.cancelled:
                continue
            self.clock.advance_to(handle.time)
            handle.fired = True
            self.n_fired += 1
            handle.callback(*handle.args)
            return handle
        return None

    def run(self, until: Optional[float] = None) -> int:
        """Fire events until drained (or past ``until``); returns count.

        With ``until`` set, events scheduled strictly after it stay
        pending and the clock is left at the last fired event.
        """
        fired = 0
        while True:
            next_time = self.peek_time()
            if next_time is None or (until is not None and next_time > until):
                return fired
            self.step()
            fired += 1
