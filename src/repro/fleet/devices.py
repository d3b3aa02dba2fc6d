"""The device population: simulated phones a fleet serves on.

Each fleet device owns the state a real phone owns:

* an NPU generation parameter set (:data:`repro.npu.soc.DEVICES` /
  :data:`repro.npu.timing.GENERATIONS`) that fixes its speed,
* a thermal governor (:class:`~repro.npu.power_mgmt.ThermalState`) that
  walks the DVFS throttle ladder under sustained load and recovers
  while idle,
* a battery rail (:class:`BatteryRail`) drained by the
  :class:`~repro.perf.power.PowerBudget` power model — a depleted
  device drops out of the dispatchable population,
* a token-latency histogram at a resolution matched to its generation
  (:data:`GENERATION_HDR_BITS`), so fleet-wide percentiles exercise the
  mixed-resolution :meth:`~repro.obs.metrics.Histogram.merge`.  Its
  bounds are one tuple per resolution (:func:`_latency_bounds`), built
  once and shared; the counts are the device's own.

Two service models share the :class:`FleetDevice` interface:
:class:`AnalyticFleetDevice` prices a request in constant time — a
closed-form wave count times one memoized lookup of the request
shape's step and prefill seconds and watts
(:class:`~repro.perf.latency.DecodePerformanceModel`,
:class:`~repro.perf.power.PowerModel`), fast enough for thousands of
devices and millions of tokens — and :class:`EngineFleetDevice` drives
a real :class:`~repro.llm.scheduler.ContinuousBatchingScheduler` on a
device-local :class:`~repro.sim.SimClock` (the differential-test path
proving the shared-kernel extraction is a no-op).

Every pricing memo lives in this module as an ``lru_cache``, so one
``cache_clear`` per function drops all of them:
:func:`_request_pricing` (per request shape) reads
:func:`_decode_pricing` (step seconds and watts from one
:meth:`~repro.perf.power.PowerModel.sample`, so a cold shape prices its
decode step once) and :func:`_prefill_seconds`, both on the models
:func:`_governed_models` builds per (device, governor, model).  Those
models keep their layer GEMM costs per row count, so clearing the
caches drops that state too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from ..errors import FleetError
from ..llm.config import get_model_config
from ..npu.power_mgmt import GOVERNORS, ThermalState, apply_governor
from ..npu.soc import DEVICES, Device
from ..obs.metrics import Histogram
from ..obs.slo import hdr_buckets
from ..perf.power import PowerBudget, PowerModel
from ..perf.latency import DecodePerformanceModel
from ..sim import SimClock
from .requests import FleetRequest

__all__ = ["GENERATION_HDR_BITS", "BatteryRail", "ServiceOutcome",
           "FleetDevice", "AnalyticFleetDevice", "EngineFleetDevice",
           "build_population", "DEFAULT_FLEET_MODEL",
           "DEFAULT_BATTERY_JOULES"]

#: The serving model every fleet phone runs (the paper's on-device LLM).
DEFAULT_FLEET_MODEL = "qwen2.5-1.5b"

#: ~5000 mAh at a nominal 3.85 V — a 2024 flagship battery in joules.
DEFAULT_BATTERY_JOULES = 6.9e4

#: Token-latency histogram resolution per NPU generation: newer SoCs
#: carry finer HDR sub-bucketing, so fleet aggregation always crosses
#: bucket resolutions (the Histogram.merge satellite in production).
GENERATION_HDR_BITS: Dict[str, int] = {"V73": 1, "V75": 2, "V79": 3}

#: Engine batch the analytic service model assumes per phone; Best-of-N
#: wider than this waves over the batch exactly like the scheduler.
SERVICE_BATCH = 8

#: Shared token-latency range of every device/fleet histogram; only the
#: per-octave sub-bucket count varies by generation, so bounds of any
#: two resolutions are subset-aligned and merges re-bucket exactly.
_LATENCY_RANGE = (1e-4, 134.0)

# service-time memoization granularity: contexts and prompts quantize
# to these grids so the closed-form model is evaluated O(grid) times,
# not O(requests)
_CTX_QUANT = 64
_PROMPT_QUANT = 32


def _quantize(value: int, grid: int) -> int:
    return max(grid, ((value + grid - 1) // grid) * grid)


@lru_cache(maxsize=None)
def _latency_bounds(precision_bits: int) -> Tuple[float, ...]:
    """Token-latency bucket bounds at one HDR resolution, built once."""
    return tuple(hdr_buckets(*_LATENCY_RANGE, precision_bits=precision_bits))


@lru_cache(maxsize=None)
def _governed_models(device: Device, governor_name: str, model_name: str
                     ) -> "tuple[DecodePerformanceModel, PowerModel]":
    """(latency, power) models of ``device`` at a DVFS operating point.

    The latency model is the power model's own, so prefill and decode
    pricing share the layer GEMM costs it keeps per row count.
    """
    governor = GOVERNORS[governor_name]
    scaled = replace(device, npu=apply_governor(device.npu, governor))
    power = PowerModel(get_model_config(model_name), scaled)
    return power.performance, power


@lru_cache(maxsize=None)
def _prefill_seconds(device: Device, governor_name: str,
                     model_name: str, prompt_tokens: int) -> float:
    perf, _ = _governed_models(device, governor_name, model_name)
    return perf.prefill_latency(prompt_tokens)


@lru_cache(maxsize=None)
def _decode_pricing(device: Device, governor_name: str, model_name: str,
                    batch: int, context: int) -> Tuple[float, float]:
    """(decode-step seconds, whole-SoC watts) of one decode shape.

    Both come from one :meth:`~repro.perf.power.PowerModel.sample`,
    whose ``latency_s`` is the step's ``total_seconds``, so a new shape
    prices its decode step once.  The watts carry DVFS-scaled dynamic
    power.
    """
    _, power = _governed_models(device, governor_name, model_name)
    sample = power.sample(batch, context)
    base = power.budget.base_w
    scale = GOVERNORS[governor_name].power_scale
    return sample.latency_s, base + (sample.power_w - base) * scale


@lru_cache(maxsize=None)
def _request_pricing(device: Device, governor_name: str, model_name: str,
                     batch: int, context: int, prompt_tokens: int
                     ) -> Tuple[float, float, float, float]:
    """(decode-step seconds, prefill seconds, watts, dynamic watts above
    the idle base) of one quantized request shape: a single lookup, so
    a request hashes ``device`` once."""
    step_seconds, watts = _decode_pricing(device, governor_name,
                                          model_name, batch, context)
    return (step_seconds,
            _prefill_seconds(device, governor_name, model_name,
                             prompt_tokens),
            watts,
            max(0.0, watts - PowerBudget().base_w))


@dataclass
class BatteryRail:
    """Finite energy store drained by served requests.

    Depletion removes the device from the dispatchable population —
    capacity planning on battery-powered hardware must price energy,
    not just latency.
    """

    capacity_joules: float = DEFAULT_BATTERY_JOULES
    drained_joules: float = 0.0

    def __post_init__(self) -> None:
        if self.capacity_joules <= 0:
            raise FleetError(
                f"battery capacity must be positive, got "
                f"{self.capacity_joules}")

    def draw(self, joules: float) -> None:
        """Drain ``joules``; the rail clamps empty rather than going
        negative.  Negative draws are a caller bug, not a charge path —
        rejected with :class:`ValueError`."""
        if joules < 0:
            raise ValueError(
                f"cannot draw {joules} joules from a battery rail; "
                f"draws must be >= 0")
        self.drained_joules = min(self.capacity_joules,
                                  self.drained_joules + joules)

    def deplete(self) -> None:
        """Pull the rail straight to empty (the ``battery@T`` fault)."""
        self.drained_joules = self.capacity_joules

    @property
    def depleted(self) -> bool:
        return self.drained_joules >= self.capacity_joules

    @property
    def remaining_fraction(self) -> float:
        return max(0.0, 1.0 - self.drained_joules / self.capacity_joules)


@dataclass
class ServiceOutcome:
    """What serving one request on one device cost."""

    service_seconds: float
    tokens: int
    joules: float
    n_faults: int = 0
    n_retries: int = 0
    result: Optional[object] = None  # ScheduledGeneration on engine devices


class FleetDevice:
    """Common per-phone bookkeeping; subclasses price the service."""

    def __init__(self, device_id: int, device: Device,
                 battery: Optional[BatteryRail] = None,
                 thermal: Optional[ThermalState] = None,
                 hdr_bits: Optional[int] = None) -> None:
        self.device_id = device_id
        self.device = device
        self.battery = battery if battery is not None else BatteryRail()
        self.thermal = thermal if thermal is not None else ThermalState()
        bits = (hdr_bits if hdr_bits is not None
                else GENERATION_HDR_BITS.get(device.npu.name, 2))
        self.histogram = Histogram(
            f"fleet.device{device_id}.token_latency_seconds",
            buckets=_latency_bounds(bits))
        self.busy = False
        self.idle_since = 0.0
        self.n_served = 0
        self.tokens_generated = 0
        self.busy_seconds = 0.0
        self.joules = 0.0
        self.n_faults = 0
        self.n_retries = 0

    @property
    def generation(self) -> str:
        return self.device.npu.name

    @property
    def available(self) -> bool:
        return not self.busy and not self.battery.depleted

    # ------------------------------------------------------------------
    def serve(self, request: FleetRequest, start_seconds: float,
              service_multiplier: float = 1.0) -> ServiceOutcome:
        """Price the request and commit its thermal/battery effects.

        Called at dispatch time; the simulation schedules the completion
        event ``service_seconds`` later on the shared loop.
        ``service_multiplier`` stretches the priced service time (and
        the energy burned at the same power) — the ``straggle`` fault's
        hook; at its default of 1.0 the arithmetic is untouched, so
        fault-free runs stay bitwise-identical.
        """
        if service_multiplier <= 0:
            raise FleetError(
                f"service multiplier must be positive, got "
                f"{service_multiplier}")
        self.thermal.cool(max(0.0, start_seconds - self.idle_since))
        outcome = self._service(request)
        if service_multiplier != 1.0:
            outcome.service_seconds *= service_multiplier
            outcome.joules *= service_multiplier
        self.busy = True
        self.n_served += 1
        self.tokens_generated += outcome.tokens
        self.busy_seconds += outcome.service_seconds
        self.joules += outcome.joules
        self.n_faults += outcome.n_faults
        self.n_retries += outcome.n_retries
        self.battery.draw(outcome.joules)
        return outcome

    def complete(self, request: FleetRequest, outcome: ServiceOutcome,
                 completion_seconds: float) -> float:
        """Release the device; record per-token latency.  Returns it.

        Token latency is arrival-to-completion time amortized per
        generated token (time-per-output-token including queue wait) —
        the quantity the capacity planner targets at p99, because it is
        the one that degrades under load.
        """
        self.busy = False
        self.idle_since = completion_seconds
        tokens = max(1, outcome.tokens)
        token_latency = ((completion_seconds - request.arrival_seconds)
                         / tokens)
        self.histogram.observe_many(token_latency, tokens)
        return token_latency

    def release(self, release_seconds: float,
                unused_seconds: float = 0.0) -> None:
        """Free the device without recording a completion.

        The cancellation path: a crashed/dropped dispatch or a hedge
        loser never completes, so its unfired tail (``unused_seconds``)
        is refunded from ``busy_seconds`` to keep utilization honest.
        Latency histograms record nothing — the request's outcome is
        accounted where it actually terminates.
        """
        self.busy = False
        self.idle_since = release_seconds
        self.busy_seconds -= max(0.0, unused_seconds)

    def _service(self, request: FleetRequest) -> ServiceOutcome:
        raise NotImplementedError


class AnalyticFleetDevice(FleetDevice):
    """Closed-form service model: fast enough for thousands of phones.

    Service time = chunked prefill + (continuous-batching decode steps)
    x (per-step latency at the device's *current* thermal governor).
    The candidates share one budget L, so the steps are the closed-form
    wave count ceil(n / batch) x L, which is what
    :func:`~repro.llm.scheduler.plan_waves` returns for equal budgets.
    Step and prefill seconds, watts and dynamic watts come from one
    memoized lookup per (device, governor, model, batch, context,
    prompt), on quantized context and prompt grids.  Energy follows the
    utilization-weighted :class:`~repro.perf.power.PowerModel`, with
    dynamic power rescaled by the governor's operating point; dynamic
    joules heat the thermal state, so sustained load throttles the
    device and its service times visibly degrade — the heterogeneity
    capacity planning exists to price.
    """

    def __init__(self, device_id: int, device: Device,
                 model_name: str = DEFAULT_FLEET_MODEL,
                 battery: Optional[BatteryRail] = None,
                 thermal: Optional[ThermalState] = None,
                 hdr_bits: Optional[int] = None,
                 dispatch: bool = False) -> None:
        super().__init__(device_id, device, battery=battery,
                         thermal=thermal, hdr_bits=hdr_bits)
        self.model_name = model_name
        self.selector = None
        self.n_backend_switches = 0
        if dispatch:
            from ..llm.dispatch import BackendSelector

            self.selector = BackendSelector(device,
                                            get_model_config(model_name))

    def _service(self, request: FleetRequest) -> ServiceOutcome:
        governor = self.thermal.governor
        n_candidates = request.n_candidates
        batch = min(n_candidates, SERVICE_BATCH)
        prompt = _quantize(request.prompt_tokens, _PROMPT_QUANT)
        # mid-generation context: prompt plus half the decode budget
        context = _quantize(
            request.prompt_tokens + request.max_new_tokens // 2, _CTX_QUANT)
        # equal budgets list-schedule into full waves over the batch
        steps = -(-n_candidates // batch) * request.max_new_tokens
        step_seconds, prefill, watts, dynamic_w = _request_pricing(
            self.device, governor.name, self.model_name, batch, context,
            prompt)
        migration = 0.0
        if self.selector is not None:
            # stage-level placement: rescale each stage by the chosen
            # backend's modeled slowdown relative to the NPU (the same
            # npu_ratio lever the scheduler applies per step), and pay
            # one rpcmem KV crossing when prefill and decode land on
            # different backends
            from ..llm.placement import crossing_for_bytes

            pre = self.selector.select("prefill", prompt, governor.name)
            dec = self.selector.select("decode", batch, governor.name)
            prefill *= pre.npu_ratio
            step_seconds *= dec.npu_ratio
            if pre.backend != dec.backend:
                config = get_model_config(self.model_name)
                kv_bytes = (batch * context * config.n_layers
                            * 2 * config.kv_dim * 2)
                migration = crossing_for_bytes(self.device, kv_bytes)
                self.n_backend_switches += 1
        service = prefill + steps * step_seconds + migration
        # only dynamic power heats the SoC past its idle baseline
        self.thermal.absorb(dynamic_w * service)
        return ServiceOutcome(service_seconds=service,
                              tokens=request.total_new_tokens,
                              joules=watts * service)


class EngineFleetDevice(FleetDevice):
    """Engine-backed phone: runs the real continuous-batching scheduler.

    Every request executes on this device's local
    :class:`~repro.sim.SimClock` via the scheduler's injected-clock
    path, so a single-device fleet is bitwise-comparable to driving
    :class:`~repro.llm.scheduler.ContinuousBatchingScheduler` directly
    — the differential proof that the kernel extraction changed
    nothing.
    """

    def __init__(self, device_id: int, scheduler, device: Device,
                 sampler_factory=None,
                 battery: Optional[BatteryRail] = None,
                 hdr_bits: Optional[int] = None,
                 dispatch=None, prefill_chunk: Optional[int] = None) -> None:
        super().__init__(device_id, device, battery=battery,
                         hdr_bits=hdr_bits)
        self.scheduler = scheduler
        self.clock = SimClock()
        self._sampler_factory = sampler_factory
        # optional stage-level placement, threaded into every generate
        # call; both default off so existing fleets stay bitwise
        self.dispatch = dispatch
        self.prefill_chunk = prefill_chunk

    def _synthetic_prompt(self, request: FleetRequest) -> List[int]:
        # deterministic, request-shaped, vocabulary-safe token ids
        return [(7 * i + request.request_id) % 97 + 1
                for i in range(request.prompt_tokens)]

    def _service(self, request: FleetRequest) -> ServiceOutcome:
        from ..llm.sampler import Sampler
        from ..resilience.faults import FaultPlan

        prompt = (list(request.prompt) if request.prompt is not None
                  else self._synthetic_prompt(request))
        plan = (FaultPlan.parse(request.fault_spec)
                if request.fault_spec else None)
        sampler = (self._sampler_factory(request)
                   if self._sampler_factory is not None
                   else Sampler(temperature=0.8, seed=request.request_id))
        result = self.scheduler.generate(
            prompt, n_candidates=request.n_candidates,
            max_new_tokens=request.max_new_tokens, sampler=sampler,
            fault_plan=plan, clock=self.clock,
            dispatch=self.dispatch, prefill_chunk=self.prefill_chunk)
        tokens = sum(len(seq) for seq in result.sequences)
        return ServiceOutcome(service_seconds=result.sim_seconds,
                              tokens=tokens, joules=result.joules,
                              n_faults=result.n_faults,
                              n_retries=result.n_retries, result=result)


def build_population(n_devices: int,
                     model_name: str = DEFAULT_FLEET_MODEL,
                     battery_capacity_joules: float = DEFAULT_BATTERY_JOULES,
                     throttle_at_joules: float = 60.0,
                     recover_at_joules: float = 30.0,
                     dispatch: bool = False
                     ) -> List[AnalyticFleetDevice]:
    """A heterogeneous analytic population, round-robin over the three
    Table-3 devices (deterministic: device ``i`` is generation
    ``sorted(DEVICES)[i % 3]``)."""
    if n_devices <= 0:
        raise FleetError(f"population needs >= 1 device, got {n_devices}")
    keys = sorted(DEVICES)
    out: List[AnalyticFleetDevice] = []
    for i in range(n_devices):
        device = DEVICES[keys[i % len(keys)]]
        out.append(AnalyticFleetDevice(
            device_id=i, device=device, model_name=model_name,
            battery=BatteryRail(capacity_joules=battery_capacity_joules),
            thermal=ThermalState(throttle_at_joules=throttle_at_joules,
                                 recover_at_joules=recover_at_joules),
            dispatch=dispatch))
    return out
