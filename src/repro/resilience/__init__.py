"""Resilience layer: deterministic fault injection + graceful degradation.

The reproduction's serving stack must keep answering Best-of-N queries
through the hazards the paper's deployment hit (§7.2): FastRPC session
aborts, KV-pool (rpcmem) allocation failures, DMA stalls, and
DVFS/thermal throttling.  This package provides:

* :mod:`repro.resilience.faults` — :class:`FaultPlan` /
  :class:`FaultInjector`: seeded, fully deterministic fault schedules
  fired where recovery lives: the continuous-batching scheduler's
  decode steps, its KV block pool, and (through the plan's
  ``fleet.device`` events) the fleet's devices;
* :mod:`repro.resilience.recovery` — :class:`RetryPolicy` (capped
  exponential backoff for the scheduler's retry ladder) and
  :func:`degraded_schedule` (fault + deadline arithmetic for the
  statistical TTS path).

Core invariants (enforced by ``tests/differential`` and
``tests/test_determinism.py``):

* an **empty plan is a bitwise no-op**: behaviour, step costs, and the
  accuracy RNG stream match a build without the resilience layer;
* **chaos is reproducible**: same (seed, plan) ⇒ identical tokens,
  retries, evictions, and simulated makespan;
* **an answer always comes back**: under any plan, Best-of-N returns a
  selected answer (best-so-far under deadlines and evictions) instead
  of crashing or hanging.
"""

from .. import _lazy

__all__, __getattr__, __dir__ = _lazy.attach(globals(), names={
    "faults": ("FAULT_KINDS", "FLEET_FAULT_KINDS", "INJECTION_SITES",
               "FaultEvent", "FaultInjector", "FaultPlan", "FaultRecord"),
    "recovery": ("DegradedSchedule", "RetryPolicy", "degraded_schedule"),
})
