"""Simulated energy attribution for the serving path.

:mod:`repro.perf.power` answers the *modeling* question — what does a
decode configuration draw in steady state (Fig. 12)?  This module
answers the *accounting* question — which phase and which request did
each simulated joule go to?  Every scheduler/engine step computes an
:class:`EnergyBreakdown` from the step's per-engine utilizations and a
:class:`~repro.perf.power.PowerBudget`, and an :class:`EnergyAccountant`
folds the charging events up per phase and per request, so timelines,
monitors, blame and bench metrics can surface tokens-per-joule — the
battery-life currency the paper's mobile setting trades in.  The same
charges carry the seconds each step kept the HMX, HVX, DMA and CPU
lanes busy, so the ledger is also the run's one simulated timeline:
``util_*`` (:func:`utilization`) and Perfetto's engine lanes are folded
from it.

Layering: like :mod:`repro.obs.export`, this module imports nothing
from :mod:`repro.npu` or :mod:`repro.perf` — ``budget`` and ``timing``
are duck-typed (anything with ``base_w``/``dram_w``/... watts and
``hmx_seconds``/``hvx_seconds``/``dma_seconds`` methods works), so obs
stays a leaf package with no import cycles.

Energy model per step (matching :class:`~repro.perf.power.PowerModel`):

    E = P_base * t_step
      + scale * (P_dram * t_dma + P_hmx * t_hmx + P_hvx * t_hvx)
      + P_cpu * t_cpu

where ``scale`` is the active governor's ``power_scale`` — dynamic NPU
power drops superlinearly with the DVFS clock while the CPU (not
governed by the NPU ladder) and the baseline do not.  Engine-seconds
are capped at the step duration, mirroring the utilization clamp in
``PowerModel._utilizations``; they are the lanes' busy seconds
(:func:`lane_seconds`, the one rule that splits a step across lanes).
A step dispatched off the NPU keeps only the CPU lane busy, for the
whole step; retry backoff and KV migration keep no lane busy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..errors import ObservabilityError

__all__ = ["EnergyBreakdown", "ZERO_ENERGY", "EnergyModel",
           "CHARGE_PHASES", "EnergyAccountant", "tokens_per_joule",
           "quantize_nj", "LANES", "lane_seconds", "utilization"]

#: Energy phase each charging event kind's ``joules`` go to.  Every
#: other timeline kind charges nothing.
CHARGE_PHASES: Dict[str, str] = {
    "prefill": "prefill",
    "prefill_chunk": "prefill",
    "decode_step": "decode",
    "rebuild": "rebuild",
    "retry": "idle",
    "backend_switch": "idle",
}

#: Engine lanes a priced step keeps busy.  A charge carries lane
#: ``lane``'s busy seconds as the attr ``f"{lane}_s"``.
LANES = ("hmx", "hvx", "dma", "cpu")

#: Relative rounding a lane's summed busy seconds may exceed the run by:
#: the run's clock sums the same step seconds in another order, from a
#: reading that may start above zero (a fleet device's injected clock).
_ROUNDING = 1e-12


def quantize_nj(joules: float) -> int:
    """Quantize one energy charge to integer nanojoules.

    The blame ledger (:mod:`repro.obs.critical_path`) quantizes every
    individual charge exactly once and then only ever adds integers, so
    per-phase attributions sum *bitwise* to the per-request total — the
    float path cannot promise that (addition order changes the ulps).
    One nanojoule of granularity is ~9 orders below a single decode
    step's budget, so the rounding is far under measurement noise.
    """
    return int(round(float(joules) * 1e9))


@dataclass(frozen=True)
class EnergyBreakdown:
    """Joules of one step, split by component rail, and the seconds the
    step kept each lane busy."""

    joules: float
    base_j: float = 0.0
    dram_j: float = 0.0
    hmx_j: float = 0.0
    hvx_j: float = 0.0
    cpu_j: float = 0.0
    hmx_s: float = 0.0
    hvx_s: float = 0.0
    dma_s: float = 0.0
    cpu_s: float = 0.0

    def charge_attrs(self) -> Dict[str, float]:
        """The attrs a charging event carries: joules and lane seconds."""
        return {"joules": self.joules, "hmx_s": self.hmx_s,
                "hvx_s": self.hvx_s, "dma_s": self.dma_s,
                "cpu_s": self.cpu_s}


ZERO_ENERGY = EnergyBreakdown(joules=0.0)


def tokens_per_joule(tokens: float, joules: float) -> float:
    """Tokens-per-joule, 0.0 when no energy was accrued."""
    return tokens / joules if joules > 0.0 else 0.0


def lane_seconds(timing: Any, npu_cost: Any, cpu_seconds: float,
                 step_seconds: float) -> Tuple[float, float, float, float]:
    """Busy seconds of each lane in :data:`LANES` during one step.

    ``timing`` prices ``npu_cost`` (``None`` for a step that ran off the
    NPU) per engine; every lane's time is capped at ``step_seconds``.
    """
    if npu_cost is None:
        hmx = hvx = dma = 0.0
    else:
        hmx = min(timing.hmx_seconds(npu_cost), step_seconds)
        hvx = min(timing.hvx_seconds(npu_cost), step_seconds)
        dma = min(timing.dma_seconds(npu_cost), step_seconds)
    return hmx, hvx, dma, min(cpu_seconds, step_seconds)


def utilization(busy: Mapping[str, float], sim_seconds: float,
                clock_seconds: float = 0.0) -> Dict[str, float]:
    """Each lane's busy fraction of a run lasting ``sim_seconds``.

    A lane in ``busy`` busier than the run, beyond rounding relative to
    the larger of ``sim_seconds`` and the clock's final reading
    ``clock_seconds``, raises :class:`ObservabilityError`.
    """
    allowance = _ROUNDING * max(sim_seconds, clock_seconds)
    for lane in LANES:
        if busy[lane] > sim_seconds + allowance:
            raise ObservabilityError(
                f"lane {lane} busy {busy[lane]!r} s exceeds the run's "
                f"sim_seconds {sim_seconds!r}")
    return {lane: (busy[lane] / sim_seconds if sim_seconds > 0.0 else 0.0)
            for lane in LANES}


def _check_finite(name: str, value: float) -> float:
    value = float(value)
    if math.isnan(value) or math.isinf(value) or value < 0.0:
        raise ObservabilityError(
            f"energy model needs finite non-negative {name}, got {value}")
    return value


class EnergyModel:
    """Per-step joule attribution from a power budget + timing model.

    ``budget`` supplies component watts (``base_w``/``dram_w``/``hmx_w``
    /``hvx_w``/``cpu_w``); ``timing`` converts a step's NPU kernel cost
    into per-engine seconds.  A step with no NPU cost (dispatched off the
    NPU) accrues only the baseline and CPU terms.
    """

    def __init__(self, budget: Any, timing: Any) -> None:
        for attr in ("base_w", "dram_w", "hmx_w", "hvx_w", "cpu_w"):
            watts = getattr(budget, attr, None)
            if watts is None:
                raise ObservabilityError(
                    f"power budget {budget!r} lacks {attr}")
            _check_finite(attr, watts)
        self.budget = budget
        self.timing = timing

    def step_energy(self, npu_cost: Any, cpu_seconds: float,
                    step_seconds: float,
                    power_scale: float = 1.0) -> EnergyBreakdown:
        """Joules of one step of duration ``step_seconds``.

        ``power_scale`` is the active governor's dynamic-power factor;
        it scales the NPU engine terms (DRAM/HMX/HVX) but not the
        baseline or the CPU.  A zero-duration step (empty live set,
        coalesced retirement) costs exactly :data:`ZERO_ENERGY` — no
        division ever happens, so there is no 0/0 hazard.
        """
        step_seconds = _check_finite("step_seconds", step_seconds)
        cpu_seconds = _check_finite("cpu_seconds", cpu_seconds)
        power_scale = _check_finite("power_scale", power_scale)
        if step_seconds == 0.0:
            return ZERO_ENERGY
        b = self.budget
        hmx, hvx, dma, cpu = lane_seconds(self.timing, npu_cost,
                                          cpu_seconds, step_seconds)
        base_j = b.base_w * step_seconds
        dram_j = power_scale * b.dram_w * dma
        hmx_j = power_scale * b.hmx_w * hmx
        hvx_j = power_scale * b.hvx_w * hvx
        cpu_j = b.cpu_w * cpu
        return EnergyBreakdown(
            joules=base_j + dram_j + hmx_j + hvx_j + cpu_j,
            base_j=base_j, dram_j=dram_j, hmx_j=hmx_j, hvx_j=hvx_j,
            cpu_j=cpu_j, hmx_s=hmx, hvx_s=hvx, dma_s=dma, cpu_s=cpu)

    def idle_energy(self, seconds: float) -> EnergyBreakdown:
        """Baseline-only joules (retry backoff, session reopen waits,
        KV migration), with no lane busy."""
        seconds = _check_finite("seconds", seconds)
        if seconds == 0.0:
            return ZERO_ENERGY
        base_j = self.budget.base_w * seconds
        return EnergyBreakdown(joules=base_j, base_j=base_j)


class EnergyAccountant:
    """The one energy ledger: folds charging events into joules.

    This is the only code that knows the charging rule.
    :data:`CHARGE_PHASES` says which phase an event kind's ``joules`` go
    to.  A lock-step decode step is one forward pass shared by the live
    batch, so its joules split **equally** across its ``live_ids`` — the
    same attribution rule the paper uses for per-token energy (power
    times step latency over batch).  A charge that names a
    ``request_id`` (a post-abort rebuild) goes to that request in full;
    prefill and idle joules stay run-level; lane seconds (``hmx_s``, ...,
    zero when absent) fold into :attr:`busy_s`.  The engine and the
    scheduler charge a ledger as they run, and ``repro monitor`` and
    ``repro explain`` fold a recorded log through a fresh one, so every
    reader adds the same floats in the same order.
    """

    def __init__(self) -> None:
        self.total_j = 0.0
        self.phase_j: Dict[str, float] = dict.fromkeys(
            CHARGE_PHASES.values(), 0.0)
        self.per_request: Dict[int, float] = {}
        self.busy_s: Dict[str, float] = dict.fromkeys(LANES, 0.0)

    def charge(self, kind: str, attrs: Mapping[str, Any],
               request_id: Optional[int] = None) -> List[Tuple[int, float]]:
        """Fold one event; return the ``(request, joules)`` shares charged.

        Kinds outside :data:`CHARGE_PHASES` charge nothing, so a whole
        log can be folded event by event.
        """
        phase = CHARGE_PHASES.get(kind)
        if phase is None:
            return []
        joules = float(attrs.get("joules", 0.0))
        self.total_j += joules
        self.phase_j[phase] += joules
        for lane in LANES:
            self.busy_s[lane] += attrs.get(f"{lane}_s", 0.0)
        if kind == "decode_step":
            live_ids = attrs.get("live_ids") or ()
            shares = [(rid, joules / len(live_ids)) for rid in live_ids]
        elif request_id is not None:
            shares = [(request_id, joules)]
        else:
            shares = []
        for rid, share in shares:
            self.per_request[rid] = self.per_request.get(rid, 0.0) + share
        return shares

    def request_joules(self, request_id: int) -> float:
        return self.per_request.get(request_id, 0.0)
