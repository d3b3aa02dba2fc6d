"""Per-device health tracking and recovery policy for the fleet layer.

Real phone fleets are dominated by transient device misbehavior —
crashes, thermal stalls, stragglers, lost dispatches — so the serving
frontend needs the three classic recovery mechanisms, each implemented
here as deterministic policy objects wired into
:class:`~repro.fleet.simulation.FleetSimulation`:

* :class:`CircuitBreaker` — trips **open** after ``failure_threshold``
  consecutive failures on one device, quarantining it; after a
  seeded-jitter exponential cooldown it **half-opens** and the next
  dispatch is a probe: success closes the breaker, failure re-opens it
  with a doubled cooldown.
* :class:`FailoverPolicy` — a capped retry budget for requests whose
  dispatch died with the device; each re-offer through the admission
  controller waits a deterministic jittered exponential backoff first
  (the thundering-herd guard, minus the herd's nondeterminism).
* :class:`HedgePolicy` — requests stuck in the queue past the p99 of
  observed waits dispatch a second copy to another idle device;
  first completion wins, the loser is cancelled on the shared event
  loop so no request is ever served twice.

Determinism is the contract everywhere: "jitter" draws come from
:func:`numpy.random.default_rng` streams keyed by ``(seed, identity,
attempt)``, so the same fault schedule always produces the same
failovers, cooldowns and hedges — byte-identical ``repro.fleet/v1``
reports across replays, which is what the ``fleet`` fuzz oracle pins.

Each mechanism has a fixed address in the critical-path blame taxonomy
(:mod:`repro.obs.critical_path`): a failover retry charges the wait
before its re-offer to ``failover_backoff`` and the dead dispatch's
progress to ``service_lost``; a cancelled hedge loser's energy lands in
``hedge_wasted`` joules; a breaker quarantine shows up as ``queue_wait``
on the requests it delays (quarantine removes capacity, it does not
touch in-flight work).  :meth:`FleetHealth.counters` is the
cross-check surface: the invariant tests assert blame phases appear
only when the mechanism that produces them actually fired.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

import numpy as np

from ..errors import FleetError
from ..obs.metrics import Histogram

__all__ = ["BREAKER_CLOSED", "BREAKER_OPEN", "BREAKER_HALF_OPEN",
           "CircuitBreaker", "DeviceHealth", "FailoverPolicy",
           "HedgePolicy", "FleetHealth"]

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


def _jitter(seed: int, *key: int) -> float:
    """Deterministic uniform draw in [0, 1) keyed by (seed, *key)."""
    return float(np.random.default_rng([seed, *key]).random())


class CircuitBreaker:
    """Consecutive-failure breaker for one device.

    States walk ``closed -> open -> half_open -> (closed | open)``.
    The cooldown before half-opening grows exponentially with the trip
    count and carries a seeded jitter of up to 25% so a correlated
    failure burst across devices does not half-open the whole fleet on
    the same tick.
    """

    def __init__(self, device_id: int, failure_threshold: int = 3,
                 cooldown_seconds: float = 2.0,
                 backoff_factor: float = 2.0,
                 max_cooldown_seconds: float = 60.0,
                 seed: int = 0) -> None:
        if failure_threshold <= 0:
            raise FleetError(
                f"breaker failure_threshold must be positive, got "
                f"{failure_threshold}")
        if cooldown_seconds <= 0 or max_cooldown_seconds <= 0:
            raise FleetError(
                f"breaker cooldowns must be positive, got "
                f"{cooldown_seconds}/{max_cooldown_seconds}")
        if backoff_factor < 1.0:
            raise FleetError(
                f"breaker backoff_factor must be >= 1, got "
                f"{backoff_factor}")
        self.device_id = device_id
        self.failure_threshold = failure_threshold
        self.cooldown_seconds = cooldown_seconds
        self.backoff_factor = backoff_factor
        self.max_cooldown_seconds = max_cooldown_seconds
        self.seed = seed
        self.state = BREAKER_CLOSED
        self.consecutive_failures = 0
        self.n_trips = 0
        self.n_opens = 0
        self.n_closes = 0

    # ------------------------------------------------------------------
    @property
    def allows_dispatch(self) -> bool:
        """Closed and half-open breakers accept work (half-open probes)."""
        return self.state != BREAKER_OPEN

    def cooldown(self, trip: int) -> float:
        """Seeded-jitter exponential cooldown before half-opening."""
        base = self.cooldown_seconds * (self.backoff_factor ** max(
            0, trip - 1))
        base = min(base, self.max_cooldown_seconds)
        return base * (1.0 + 0.25 * _jitter(self.seed, self.device_id,
                                            trip))

    def record_failure(self) -> Optional[float]:
        """Count one failure; returns the cooldown if the breaker opened.

        A failure while half-open re-opens immediately (the probe
        failed); while closed the breaker opens once the consecutive
        count reaches the threshold.  Returns ``None`` when the breaker
        stayed closed (or was already open).
        """
        self.consecutive_failures += 1
        if self.state == BREAKER_OPEN:
            return None
        if (self.state == BREAKER_HALF_OPEN
                or self.consecutive_failures >= self.failure_threshold):
            self.state = BREAKER_OPEN
            self.n_trips += 1
            self.n_opens += 1
            return self.cooldown(self.n_trips)
        return None

    def record_success(self) -> bool:
        """Count one success; returns True if this closed the breaker."""
        self.consecutive_failures = 0
        if self.state == BREAKER_HALF_OPEN:
            self.state = BREAKER_CLOSED
            self.n_trips = 0
            self.n_closes += 1
            return True
        return False

    def half_open(self) -> None:
        """Cooldown expired: admit one probe dispatch."""
        if self.state == BREAKER_OPEN:
            self.state = BREAKER_HALF_OPEN


class DeviceHealth:
    """Everything the fleet tracks about one device beyond its physics.

    ``online`` covers crash/reboot; the straggle window stretches
    service times priced while it is active; the breaker quarantines
    repeat offenders.  :meth:`dispatchable` is the single gate the
    dispatch loop consults.
    """

    def __init__(self, device_id: int, breaker: CircuitBreaker) -> None:
        self.device_id = device_id
        self.breaker = breaker
        self.online = True
        self.straggle_factor = 1.0
        self.straggle_until = 0.0
        self.n_crashes = 0
        self.n_reboots = 0
        self.n_drops = 0
        self.n_straggles = 0

    def service_multiplier(self, now: float) -> float:
        """Service-time stretch in effect at ``now`` (1.0 = healthy)."""
        return self.straggle_factor if now < self.straggle_until else 1.0

    def start_straggle(self, now: float, factor: float,
                       duration_seconds: float) -> None:
        self.straggle_factor = factor
        self.straggle_until = now + duration_seconds
        self.n_straggles += 1

    def crash(self) -> None:
        self.online = False
        self.n_crashes += 1

    def reboot(self) -> None:
        self.online = True
        self.n_reboots += 1

    def dispatchable(self) -> bool:
        return self.online and self.breaker.allows_dispatch


@dataclass(frozen=True)
class FailoverPolicy:
    """Capped, deterministically-jittered retry budget for failovers.

    ``max_attempts`` counts re-dispatches after the first failure; a
    request whose budget is exhausted is accounted
    ``failed_permanently`` (the conservation invariant's fourth bucket)
    rather than retried forever against a dying fleet.
    """

    max_attempts: int = 3
    backoff_seconds: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_seconds: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 0:
            raise FleetError(
                f"failover max_attempts must be >= 0, got "
                f"{self.max_attempts}")
        if self.backoff_seconds <= 0 or self.max_backoff_seconds <= 0:
            raise FleetError(
                f"failover backoffs must be positive, got "
                f"{self.backoff_seconds}/{self.max_backoff_seconds}")
        if self.backoff_factor < 1.0:
            raise FleetError(
                f"failover backoff_factor must be >= 1, got "
                f"{self.backoff_factor}")

    def backoff(self, request_id: int, attempt: int) -> float:
        """Delay before re-offering ``request_id``'s ``attempt``-th retry."""
        base = self.backoff_seconds * (self.backoff_factor ** attempt)
        base = min(base, self.max_backoff_seconds)
        return base * (1.0 + 0.5 * _jitter(self.seed, 1_000_003,
                                           request_id, attempt))


@dataclass(frozen=True)
class HedgePolicy:
    """When to dispatch a second copy of a queued-too-long request.

    With ``threshold_seconds`` unset, a dispatch hedges once at least
    ``min_samples`` queue waits have been observed and this request
    waited at or beyond their ``quantile`` (default: the p99 queue
    tail).  An explicit threshold bypasses the quantile estimate.
    """

    quantile: float = 99.0
    min_samples: int = 32
    threshold_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.quantile <= 100.0:
            raise FleetError(
                f"hedge quantile must be in (0, 100], got {self.quantile}")
        if self.min_samples <= 0:
            raise FleetError(
                f"hedge min_samples must be positive, got "
                f"{self.min_samples}")
        if (self.threshold_seconds is not None
                and self.threshold_seconds < 0):
            raise FleetError(
                f"hedge threshold must be >= 0 seconds, got "
                f"{self.threshold_seconds}")

    def should_hedge(self, wait_seconds: float,
                     queue_wait: Histogram) -> bool:
        if self.threshold_seconds is not None:
            return wait_seconds >= self.threshold_seconds
        # a wait that is not > 0 (zero, negative or NaN) is never >= a
        # positive tail, and a tail <= 0 never hedges: skip the estimate
        if not wait_seconds > 0.0 or queue_wait.count < self.min_samples:
            return False
        tail = queue_wait.percentile(self.quantile)
        if tail <= 0.0:
            # an unloaded fleet's p99 wait is 0; hedging instant
            # dispatches would duplicate every request
            return False
        return wait_seconds >= tail


class FleetHealth:
    """The health side of a whole population: one tracker per device.

    Constructed by :class:`~repro.fleet.simulation.FleetSimulation`
    from its device ids; policies default to production-shaped values
    and everything is inert until a fault or hedge actually fires, so a
    fault-free simulation through this layer is behavior-identical to
    one without it.
    """

    def __init__(self, device_ids: Iterable[int], seed: int = 0,
                 failover: Optional[FailoverPolicy] = None,
                 hedge: Optional[HedgePolicy] = None,
                 failure_threshold: int = 3,
                 cooldown_seconds: float = 2.0,
                 max_cooldown_seconds: float = 60.0) -> None:
        self.seed = seed
        self.failover = (failover if failover is not None
                         else FailoverPolicy(seed=seed))
        self.hedge = hedge
        self.devices: Dict[int, DeviceHealth] = {
            device_id: DeviceHealth(
                device_id,
                CircuitBreaker(device_id,
                               failure_threshold=failure_threshold,
                               cooldown_seconds=cooldown_seconds,
                               max_cooldown_seconds=max_cooldown_seconds,
                               seed=seed))
            for device_id in device_ids}

    def __getitem__(self, device_id: int) -> DeviceHealth:
        return self.devices[device_id]

    @property
    def n_breaker_opens(self) -> int:
        return sum(h.breaker.n_opens for h in self.devices.values())

    @property
    def n_breaker_closes(self) -> int:
        return sum(h.breaker.n_closes for h in self.devices.values())

    def offline_devices(self) -> int:
        return sum(1 for h in self.devices.values() if not h.online)

    def counters(self) -> Dict[str, int]:
        """Fleet-wide fault/recovery totals across every device.

        The blame cross-check surface: ``service_lost`` nanoseconds can
        only exist when ``crashes + drops`` fired, ``hedge_wasted``
        joules require a hedge policy, and breaker opens bound how much
        capacity quarantine could have added to ``queue_wait``.
        """
        return {
            "crashes": sum(h.n_crashes for h in self.devices.values()),
            "reboots": sum(h.n_reboots for h in self.devices.values()),
            "drops": sum(h.n_drops for h in self.devices.values()),
            "straggles": sum(h.n_straggles for h in self.devices.values()),
            "breaker_opens": self.n_breaker_opens,
            "breaker_closes": self.n_breaker_closes,
        }
