"""Recovery policies: retries, backoff, and graceful degradation.

Three layers consume this module:

* :class:`ResilientSession` wraps a
  :class:`~repro.npu.soc.FastRPCSession`: transient faults (DMA
  timeouts) retry after capped exponential backoff; a session abort
  additionally reopens the session before retrying.  Backoff is charged
  to a :class:`~repro.sim.SimClock`, never to the host clock, so
  recovery timing is deterministic and visible in the simulated
  makespan.
* the continuous-batching scheduler uses :class:`RetryPolicy` directly
  for its step-retry loop and the degradation ladder (see
  docs/ARCHITECTURE.md §9): retry -> rebuild-from-snapshot -> evict ->
  deadline-stop.
* the TTS layer uses :func:`degraded_schedule` to apply a fault plan
  and a deadline to an already-sampled Best-of-N wave schedule without
  touching the accuracy RNG stream: surviving candidates are a pure
  function of (candidate lengths, batch, plan, deadline).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import (
    FaultError,
    RetryExhaustedError,
    SessionAbortError,
    TransientFaultError,
)
from ..npu.power_mgmt import GOVERNORS
from ..sim import SimClock
from ..obs import context as obs_context
from .faults import FaultPlan

__all__ = ["RetryPolicy", "ResilientSession", "DegradedSchedule",
           "degraded_schedule"]

# Whole-batch stall, in decode-step equivalents, charged by the TTS
# statistical path per fault: an abort pays backoff + session reopen +
# KV rebuild from the prompt snapshot; a DMA timeout pays backoff only.
# The engine-level scheduler charges the *actual* simulated seconds of
# these recoveries; the statistical path uses fixed step-equivalents so
# it stays a pure function of the plan.
_ABORT_PENALTY_STEPS = 3.0
_DMA_PENALTY_STEPS = 1.0


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff for transient NPU faults.

    ``backoff(attempt)`` for attempt 0, 1, 2, ... is
    ``min(base_seconds * 2**attempt, cap_seconds)`` — deterministic (no
    jitter: the simulator has no competing clients, and determinism is
    the framework's core invariant).  ``reopen_seconds`` models the
    FastRPC session re-initialization cost (§6: remote session start +
    mailbox mapping), charged on top of backoff after a session abort.
    """

    max_retries: int = 3
    base_seconds: float = 0.002
    cap_seconds: float = 0.05
    reopen_seconds: float = 0.010

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise FaultError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_seconds < 0 or self.cap_seconds < self.base_seconds:
            raise FaultError(
                f"need 0 <= base <= cap, got base={self.base_seconds}, "
                f"cap={self.cap_seconds}")
        if self.reopen_seconds < 0:
            raise FaultError(
                f"reopen_seconds must be >= 0, got {self.reopen_seconds}")

    def backoff(self, attempt: int) -> float:
        if attempt < 0:
            raise FaultError(f"attempt must be >= 0, got {attempt}")
        return min(self.base_seconds * (2.0 ** attempt), self.cap_seconds)


class ResilientSession:
    """Retry/reopen wrapper around a FastRPC session.

    Mirrors what a production libcdsprpc client does: transient faults
    are retried with backoff; a dead session is reopened (tearing down
    and re-mapping the mailbox) and the request re-submitted.  When the
    retry budget is exhausted the last fault is wrapped in
    :class:`~repro.errors.RetryExhaustedError` so callers can
    distinguish "NPU is gone" from a single unlucky request.
    """

    def __init__(self, session, policy: Optional[RetryPolicy] = None,
                 clock: Optional[SimClock] = None) -> None:
        self.session = session
        self.policy = policy if policy is not None else RetryPolicy()
        self.clock = clock if clock is not None else SimClock()
        self.retries = 0
        self.reopens = 0

    def _note_retry(self, attempt: int, error: Exception,
                    reopened: bool) -> None:
        self.retries += 1
        obs = obs_context.current()
        if obs.tracer.enabled:
            obs.metrics.counter("repro.resilience.session_retries").inc()
            with obs.tracer.span("resilience.retry", category="resilience",
                                 attempt=attempt, reopened=reopened,
                                 error=type(error).__name__):
                pass
        if obs.log.enabled:
            obs.log.emit("retry", self.clock.total_seconds,
                         attempt=attempt, reopened=reopened,
                         error=type(error).__name__)

    def submit(self, opcode: int, payload: np.ndarray) -> np.ndarray:
        """Submit with retry; see :meth:`FastRPCSession.submit`."""
        attempt = 0
        while True:
            try:
                return self.session.submit(opcode, payload)
            except SessionAbortError as error:
                if attempt >= self.policy.max_retries:
                    raise RetryExhaustedError(
                        f"FastRPC submit failed after {attempt} retries: "
                        f"{error}") from error
                self.clock.advance(self.policy.backoff(attempt)
                                   + self.policy.reopen_seconds)
                self.session.reopen()
                self.reopens += 1
                self._note_retry(attempt, error, reopened=True)
                attempt += 1
            except TransientFaultError as error:
                if attempt >= self.policy.max_retries:
                    raise RetryExhaustedError(
                        f"FastRPC submit failed after {attempt} retries: "
                        f"{error}") from error
                self.clock.advance(self.policy.backoff(attempt))
                self._note_retry(attempt, error, reopened=False)
                attempt += 1


# ----------------------------------------------------------------------
# TTS-layer degradation (statistical Best-of-N path)
# ----------------------------------------------------------------------
@dataclass
class DegradedSchedule:
    """Outcome of applying a fault plan + deadline to one wave schedule.

    ``survivors`` indexes the candidates (in admission order) whose
    decode completed within the deadline under the faulted schedule —
    the set Best-of-N may select from.  At least one candidate always
    survives (best-answer-so-far, never an empty answer).
    """

    survivors: List[int] = field(default_factory=list)
    finish_steps: List[float] = field(default_factory=list)
    makespan_steps: float = 0.0
    n_evicted: int = 0
    n_deadline_dropped: int = 0
    n_aborts: int = 0
    n_retry_steps: float = 0.0
    throttled_steps: int = 0

    @property
    def degraded(self) -> bool:
        return bool(self.n_evicted or self.n_deadline_dropped
                    or self.n_aborts or self.throttled_steps)


def degraded_schedule(candidate_steps: Sequence[int], batch: int,
                      plan: Optional[FaultPlan] = None,
                      deadline_steps: Optional[float] = None
                      ) -> DegradedSchedule:
    """List-schedule candidates under faults and an optional deadline.

    The faultless baseline is the greedy earliest-free-slot schedule of
    :func:`~repro.llm.scheduler.plan_waves`.  On top of it:

    * ``thermal_throttle`` events stretch every step in their window by
      ``1 / clock_scale`` of the target governor (timing honesty: a
      throttled step does less work per second);
    * ``session_abort`` events stall the whole batch for
      ``_ABORT_PENALTY_STEPS`` step-equivalents (backoff + session
      reopen + snapshot rebuild); ``dma_timeout`` stalls for
      ``_DMA_PENALTY_STEPS`` (backoff only);
    * ``alloc_fail`` events evict the in-flight candidate with the
      least progress (lowest sunk cost) — it finishes early with the
      tokens it has, and is excluded from the survivor set;
    * candidates whose finish time exceeds ``deadline_steps`` are
      dropped, except that the earliest finisher always survives.

    Pure arithmetic over already-sampled lengths: no RNG, so the
    accuracy stream is untouched and an empty plan with no deadline
    returns every candidate with the baseline makespan.
    """
    lengths = [int(n) for n in candidate_steps]
    if not lengths or any(n <= 0 for n in lengths):
        raise FaultError(
            f"candidate step counts must be positive, got {lengths}")
    if batch <= 0:
        raise FaultError(f"batch must be positive, got {batch}")
    if deadline_steps is not None and deadline_steps <= 0:
        raise FaultError(
            f"deadline must be positive, got {deadline_steps}")
    events = [] if plan is None else [e for e in plan
                                      if e.site == "scheduler.step"]
    throttles = [e for e in events if e.kind == "thermal_throttle"]
    aborts = {e.at for e in events if e.kind == "session_abort"}
    dmas = {e.at for e in events if e.kind == "dma_timeout"}
    evicts = sorted(e.at for e in events if e.kind == "alloc_fail")

    def step_scale(step: int) -> float:
        scale = 1.0
        for event in throttles:
            end = (float("inf") if event.duration_steps is None
                   else event.at + event.duration_steps)
            if event.at <= step < end:
                gov = GOVERNORS.get(event.governor)
                if gov is None:
                    raise FaultError(
                        f"unknown governor {event.governor!r} in fault plan")
                scale = max(scale, 1.0 / gov.clock_scale)
        return scale

    # greedy earliest-free-slot schedule in integer step space
    slots = [0] * min(batch, len(lengths))
    heapq.heapify(slots)
    starts: List[int] = []
    for n in lengths:
        start = heapq.heappop(slots)
        heapq.heappush(slots, start + n)
        starts.append(start)

    out = DegradedSchedule()
    evicted: Dict[int, int] = {}  # victim index -> eviction step
    for at in evicts:
        in_flight = [(at - starts[i], i) for i in range(len(lengths))
                     if i not in evicted
                     and starts[i] < at < starts[i] + lengths[i]]
        if not in_flight:
            continue
        _, victim = min(in_flight)
        evicted[victim] = at
        out.n_evicted += 1

    # map integer steps onto the faulted timeline: cumulative[k] is the
    # scaled time at which integer step k begins
    horizon = max(s + n for s, n in zip(starts, lengths))
    cumulative = [0.0] * (horizon + 1)
    for step in range(horizon):
        scale = step_scale(step)
        penalty = 0.0
        if step in aborts:
            penalty += _ABORT_PENALTY_STEPS
            out.n_aborts += 1
            out.n_retry_steps += _ABORT_PENALTY_STEPS
        if step in dmas:
            penalty += _DMA_PENALTY_STEPS
            out.n_retry_steps += _DMA_PENALTY_STEPS
        if scale > 1.0:
            out.throttled_steps += 1
        cumulative[step + 1] = cumulative[step] + scale + penalty

    def finish_time(i: int) -> float:
        end_step = evicted.get(i, starts[i] + lengths[i])
        return cumulative[min(max(end_step, starts[i] + 1), horizon)]

    out.finish_steps = [finish_time(i) for i in range(len(lengths))]
    out.makespan_steps = max(out.finish_steps)

    survivors = [i for i in range(len(lengths)) if i not in evicted]
    if deadline_steps is not None:
        within = [i for i in survivors
                  if out.finish_steps[i] <= deadline_steps]
        out.n_deadline_dropped = len(survivors) - len(within)
        survivors = within
    if not survivors:
        # best-answer-so-far: the earliest finisher always survives
        survivors = [int(np.argmin(out.finish_steps))]
    out.survivors = sorted(survivors)
    return out
