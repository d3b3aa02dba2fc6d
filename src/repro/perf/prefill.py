"""Prefill pipeline study: the §8b optimization directions.

The paper's prefill "leaves room for improvement": offloading more
operators to the NPU, reducing memory access and communication overhead
through operator fusion, and better tiling/pipelining.  This module
models the prefill pipeline explicitly so those directions can be swept:

* ``chunk`` — tokens processed per pipeline stage.  Small chunks pay the
  per-chunk communication overhead more often; huge chunks overflow the
  TCM working set and lose double-buffering;
* ``fused_fraction`` — fraction of elementwise/norm operators fused into
  their producer GEMMs (fusion removes their activation round-trips);
* ``cpu_fallback_ops`` — operators still running on the CPU, each paying
  the rpcmem crossing both ways per chunk.

The defaults reproduce the current system's ~35% pipeline efficiency
(the ``PREFILL_EFFICIENCY`` constant of the latency model); the sweep
shows how the §8b work items close the gap toward the engine bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import EngineError
from ..llm.config import ModelConfig
from ..npu.soc import Device
from ..npu.timing import KernelCost, TimingModel, gemm_cost
from .latency import attention_cost

__all__ = ["PrefillPipelineModel", "PrefillConfig"]

# per-chunk, per-layer communication overhead: FastRPC signalling plus
# cache maintenance on the activation buffers (§6)
_CHUNK_SYNC_SECONDS = 25e-6
# unfused elementwise ops re-read and re-write activations once each
_UNFUSED_PASSES = 4
# TCM working-set limit for double-buffered prefill tiles
_TCM_TOKEN_LIMIT_BYTES = 4 * 2**20


@dataclass(frozen=True)
class PrefillConfig:
    """One operating point of the prefill pipeline."""

    chunk: int = 128
    fused_fraction: float = 0.0
    cpu_fallback_ops: int = 2         # ops per layer still on the CPU
    pipeline_efficiency: float = 0.45  # HMX/dequant/DMA tiling overlap

    def __post_init__(self) -> None:
        if self.chunk <= 0:
            raise EngineError(f"chunk must be positive, got {self.chunk}")
        if not 0.0 <= self.fused_fraction <= 1.0:
            raise EngineError(
                f"fused fraction must be in [0,1], got {self.fused_fraction}")
        if self.cpu_fallback_ops < 0:
            raise EngineError("cpu_fallback_ops must be non-negative")
        if not 0.05 <= self.pipeline_efficiency <= 1.0:
            raise EngineError(
                f"pipeline efficiency must be in [0.05, 1], got "
                f"{self.pipeline_efficiency}")


class PrefillPipelineModel:
    """Chunked prefill with communication, fusion and fallback knobs."""

    def __init__(self, config: ModelConfig, device: Device,
                 strategy: str = "ours") -> None:
        self.config = config
        self.device = device
        self.strategy = strategy
        self.timing = TimingModel(device.npu)
        self._qfloat = not device.npu.ieee_float

    # ------------------------------------------------------------------
    def _chunk_layer_cost(self, chunk: int, context: int) -> KernelCost:
        cfg = self.config
        cost = KernelCost()
        for name, (k, n) in cfg.projection_shapes().items():
            bits = 8 if name == "w_down" else 4
            cost.merge(gemm_cost(chunk, k, n, strategy=self.strategy,
                                 bits=bits, qfloat=self._qfloat))
        attn = attention_cost(chunk * cfg.gqa_group, context, cfg.head_dim,
                              qfloat=self._qfloat)
        cost.merge(attn.scaled(cfg.n_kv_heads))
        return cost

    def _activation_roundtrip_seconds(self, chunk: int,
                                      fused_fraction: float) -> float:
        """Unfused elementwise passes re-stream activations through DMA.

        Half the passes touch hidden-sized activations, half the larger
        FFN intermediates (SwiGLU inputs).
        """
        cfg = self.config
        mean_width = (cfg.hidden_dim + cfg.intermediate_dim) / 2
        bytes_per_pass = 2 * chunk * mean_width * 2  # read + write FP16
        passes = _UNFUSED_PASSES * (1.0 - fused_fraction)
        return passes * bytes_per_pass \
            / (self.device.npu.dma_read_gbps * 1e9)

    def _tcm_spill_factor(self, chunk: int) -> float:
        """Chunks whose tiles overflow the TCM lose double buffering."""
        cfg = self.config
        working_set = 2 * chunk * (cfg.hidden_dim + cfg.intermediate_dim)
        if working_set <= _TCM_TOKEN_LIMIT_BYTES:
            return 1.0
        return 1.0 + 0.5 * (working_set / _TCM_TOKEN_LIMIT_BYTES - 1.0)

    # ------------------------------------------------------------------
    def prefill_seconds(self, prompt_len: int,
                        pipeline: Optional[PrefillConfig] = None) -> float:
        """Prompt-processing time at one pipeline operating point."""
        if prompt_len <= 0:
            raise EngineError(f"prompt length must be positive, got {prompt_len}")
        p = pipeline if pipeline is not None else PrefillConfig()
        cfg = self.config
        total = 0.0
        done = 0
        while done < prompt_len:
            step = min(p.chunk, prompt_len - done)
            compute = self.timing.seconds(
                self._chunk_layer_cost(step, done + step).scaled(cfg.n_layers))
            compute *= self._tcm_spill_factor(step) / p.pipeline_efficiency
            sync = _CHUNK_SYNC_SECONDS * cfg.n_layers
            crossings = (2 * p.cpu_fallback_ops * cfg.n_layers
                         * (_CHUNK_SYNC_SECONDS
                            + 2 * step * cfg.hidden_dim
                            / (self.device.cpu.dram_read_gbps * 1e9)))
            roundtrips = cfg.n_layers \
                * self._activation_roundtrip_seconds(step, p.fused_fraction)
            total += compute + sync + crossings + roundtrips
            done += step
        # final lm_head evaluation on the CPU
        total += self.device.cpu.gemm_seconds(
            1, cfg.hidden_dim, cfg.vocab_size,
            weight_bytes=cfg.lm_head_bytes())
        return total

    def prefill_throughput(self, prompt_len: int,
                           pipeline: Optional[PrefillConfig] = None) -> float:
        return prompt_len / self.prefill_seconds(prompt_len, pipeline)

    # ------------------------------------------------------------------
    def sweep(self, prompt_len: int = 512) -> Dict[str, float]:
        """Throughput at the §8b operating points.

        ``current`` is the paper's system; the other entries apply each
        future-work item; ``all`` applies every optimization at once.
        """
        return {
            "current": self.prefill_throughput(
                prompt_len, PrefillConfig()),
            "fused_ops": self.prefill_throughput(
                prompt_len, PrefillConfig(fused_fraction=0.9)),
            "all_ops_on_npu": self.prefill_throughput(
                prompt_len, PrefillConfig(cpu_fallback_ops=0)),
            "tuned_pipeline": self.prefill_throughput(
                prompt_len, PrefillConfig(pipeline_efficiency=0.85)),
            "all": self.prefill_throughput(
                prompt_len, PrefillConfig(fused_fraction=0.9,
                                          cpu_fallback_ops=0,
                                          pipeline_efficiency=0.85)),
        }
