"""Power and energy model for the decode stage (Fig. 12, §7.2.3).

Device power is decomposed into a baseline plus per-engine dynamic terms
weighted by engine utilization over a decode step:

    P = P_base + P_dram * u_dram + P_hmx * u_hmx + P_hvx * u_hvx + P_cpu * u_cpu

Utilizations come from the latency model's per-engine times, split from
the NPU cost :meth:`~repro.perf.latency.DecodePerformanceModel.decode_step`
composes, so one :meth:`PowerModel.sample` prices the decode step once
and its ``latency_s`` is that step's ``total_seconds``.  Power inherits
the same batch-scaling behaviour the paper measures on the OnePlus 12
rails: rising with batch for the 1.5B model but staying under
5 W, and a ~4.3 W plateau for the 3B model (whose DMA/CPU terms are
already saturated at batch 1).  Energy per token is power times
per-token latency, reproducing the Fig. 12 claim that the 1.5B model at
batch 8 costs less energy per token than the 3B model at batch 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..errors import EngineError
from ..llm.config import ModelConfig
from ..npu.soc import Device
from .latency import DecodePerformanceModel

__all__ = ["PowerBudget", "PowerModel", "PowerSample"]


@dataclass(frozen=True)
class PowerBudget:
    """Component power draws (watts) of a Snapdragon-class SoC."""

    base_w: float = 1.2       # display-off idle + rails + framework
    dram_w: float = 2.3       # LPDDR5 at full streaming bandwidth
    hmx_w: float = 1.2        # matrix engine fully busy
    hvx_w: float = 1.0        # vector engine fully busy
    cpu_w: float = 4.0        # 4 big cores fully busy


@dataclass(frozen=True)
class PowerSample:
    """Power/energy measurement of one decode configuration."""

    batch: int
    power_w: float
    latency_s: float
    energy_per_token_j: float
    utilization: Dict[str, float]


class PowerModel:
    """Utilization-weighted power for batched decoding."""

    def __init__(self, config: ModelConfig, device: Device,
                 budget: PowerBudget = PowerBudget()) -> None:
        self.config = config
        self.device = device
        self.budget = budget
        self.performance = DecodePerformanceModel(config, device)

    def _utilizations(self, batch: int, context: int) -> "tuple[Dict[str, float], float]":
        step, npu = self.performance._decode_step(batch, context)
        timing = self.performance.timing
        total = step.total_seconds
        if total <= 0:
            raise EngineError("non-positive step latency")
        utilization = {
            "dram": min(1.0, timing.dma_seconds(npu) / total),
            "hmx": min(1.0, timing.hmx_seconds(npu) / total),
            "hvx": min(1.0, timing.hvx_seconds(npu) / total),
            "cpu": min(1.0, step.cpu_seconds / total),
        }
        return utilization, total

    def sample(self, batch: int, context: int = 1024) -> PowerSample:
        """Power and per-token energy for one decode configuration."""
        utilization, latency = self._utilizations(batch, context)
        b = self.budget
        power = (b.base_w
                 + b.dram_w * utilization["dram"]
                 + b.hmx_w * utilization["hmx"]
                 + b.hvx_w * utilization["hvx"]
                 + b.cpu_w * utilization["cpu"])
        energy_per_token = power * latency / batch
        return PowerSample(batch=batch, power_w=power, latency_s=latency,
                           energy_per_token_j=energy_per_token,
                           utilization=utilization)
