"""Fleet-scale serving simulation on the shared event-loop kernel.

Thousands of simulated phones, one timeline: a discrete-event layer
(:mod:`repro.sim`) drives a device population built from
:mod:`repro.npu.timing` parameter sets through seeded arrival traces,
with bounded admission control, per-device thermal governors and
battery rails, and a capacity-planning report surfaced by the
``repro fleet`` CLI (schema ``repro.fleet/v1``).
"""

from .devices import (AnalyticFleetDevice, BatteryRail, EngineFleetDevice,
                      FleetDevice, GENERATION_HDR_BITS, ServiceOutcome,
                      build_population)
from .health import (CircuitBreaker, DeviceHealth, FailoverPolicy,
                     FleetHealth, HedgePolicy)
from .load import ARRIVAL_PATTERNS, TraceConfig, generate_trace
from .report import (DEFAULT_P99_TARGET_MS, FLEET_SCHEMA, FleetReport,
                     MAX_PLANNED_DEVICES, plan_capacity, run_fleet)
from .requests import (AdmissionController, DEFAULT_TENANT_PRIORITIES,
                       FleetRequest)
from .simulation import FleetResult, FleetSimulation

__all__ = [
    "FleetRequest", "AdmissionController", "DEFAULT_TENANT_PRIORITIES",
    "TraceConfig", "generate_trace", "ARRIVAL_PATTERNS",
    "FleetDevice", "AnalyticFleetDevice", "EngineFleetDevice",
    "BatteryRail", "ServiceOutcome", "build_population",
    "GENERATION_HDR_BITS",
    "CircuitBreaker", "DeviceHealth", "FailoverPolicy", "FleetHealth",
    "HedgePolicy",
    "FleetSimulation", "FleetResult",
    "FleetReport", "run_fleet", "plan_capacity", "FLEET_SCHEMA",
    "DEFAULT_P99_TARGET_MS", "MAX_PLANNED_DEVICES",
]
