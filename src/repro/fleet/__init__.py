"""Fleet-scale serving simulation on the shared event-loop kernel.

Thousands of simulated phones, one timeline: a discrete-event layer
(:mod:`repro.sim`) drives a device population built from
:mod:`repro.npu.timing` parameter sets through seeded arrival traces,
with bounded admission control, per-device thermal governors and
battery rails, and a capacity-planning report surfaced by the
``repro fleet`` CLI (schema ``repro.fleet/v1``).
"""

from .. import _lazy

# Bound now: perfbench/layers.py wraps it through vars(repro.fleet),
# which never calls __getattr__.
from .report import run_fleet  # noqa: F401

__all__, __getattr__, __dir__ = _lazy.attach(globals(), names={
    "devices": ("AnalyticFleetDevice", "BatteryRail", "EngineFleetDevice",
                "FleetDevice", "GENERATION_HDR_BITS", "ServiceOutcome",
                "build_population"),
    "health": ("CircuitBreaker", "DeviceHealth", "FailoverPolicy",
               "FleetHealth", "HedgePolicy"),
    "load": ("ARRIVAL_PATTERNS", "TraceConfig", "generate_trace"),
    "report": ("DEFAULT_P99_TARGET_MS", "FLEET_SCHEMA", "FleetReport",
               "MAX_PLANNED_DEVICES", "plan_capacity", "run_fleet"),
    "requests": ("AdmissionController", "DEFAULT_TENANT_PRIORITIES",
                 "FleetRequest"),
    "simulation": ("FleetResult", "FleetSimulation"),
})
