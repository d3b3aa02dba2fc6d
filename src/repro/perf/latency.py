"""End-to-end decode/prefill latency model for the real model sizes.

The functional simulator runs real numerics at tiny scale; for the
paper's full-size models (Figs. 8, 11, 12, 13, 16, 17) this module
computes the same :class:`~repro.npu.timing.KernelCost` records without
executing a kernel — each GEMM by :func:`~repro.npu.timing.gemm_cost`,
the rule :class:`~repro.kernels.gemm.MixedPrecisionGemm` charges with,
and attention by :func:`attention_phase_costs`, which agrees with the
functional kernel within 20% — and composes them into per-step latency:

* every projection GEMM uses the "ours" dequantization path (Q4_0, Q8_0
  for the FFN down projection);
* attention uses the FP16 FlashAttention cost structure per (sequence,
  kv-head) with GQA-grouped query rows;
* the lm_head runs on the CPU with quantized weights (§7.2.2), which is
  what bends the batch-scaling curves of Fig. 11 at batch 16.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

from ..errors import EngineError
from ..llm.config import ModelConfig
from ..npu.hmx import TILE_DIM
from ..npu.hvx import vectors_for_bytes as _vectors
from ..npu.soc import Device
from ..npu.timing import (
    CALL_FIXED_PACKETS,
    CHAIN_STALL_PACKETS,
    LUT_ROW_EXPOSED_PACKETS,
    ROW_REDUCE_PACKETS,
    KernelCost,
    TimingModel,
    gemm_cost,
)

__all__ = [
    "PREFILL_EFFICIENCY",
    "attention_cost",
    "DecodePerformanceModel",
]

# The paper's prefill leaves "room for improvement" (§8b): operators not
# yet offloaded to the NPU, missing fusion, and per-chunk communication.
# The pipeline achieves roughly this fraction of the ideal engine overlap.
PREFILL_EFFICIENCY = 0.35


def _tiles(dim: int) -> int:
    return -(-dim // TILE_DIM)


def attention_phase_costs(n_q: int, n_kv: int, head_dim: int,
                          method: str = "lut", qfloat: bool = True,
                          block_kv: int = TILE_DIM) -> Dict[str, KernelCost]:
    """Per-phase costs of one attention head (mirrors FlashAttention).

    ``n_q`` query rows (padded to a 32-row tile) against ``n_kv`` cached
    keys/values processed in ``block_kv`` chunks, following Algorithm 1's
    phase structure.  Phases: ``qk_matmul``, ``softmax``, ``pv_matmul``,
    ``rescale``, ``kv_stream`` — Fig. 8 plots the first four.
    """
    if min(n_q, n_kv, head_dim) <= 0:
        raise EngineError(
            f"attention dims must be positive, got ({n_q}, {n_kv}, {head_dim})")
    q_rows = _tiles(n_q) * TILE_DIM
    d_tiles = _tiles(head_dim)
    n_blocks = -(-n_kv // block_kv)
    block_cols = block_kv

    s_elems = q_rows * block_cols
    s_bytes16 = s_elems * 2

    qk = KernelCost()
    qk.hmx_tile_macs += _tiles(q_rows) * d_tiles * _tiles(block_cols)

    pv = KernelCost()
    pv.hmx_tile_macs += _tiles(q_rows) * _tiles(block_cols) * d_tiles

    # the vector-side softmax skips padded query rows (the HMX matmul
    # cannot), so its work scales with the *true* query count — which is
    # exactly why Softmax overtakes matmul as the query length grows
    # (Fig. 8)
    v_elems = n_q * block_cols
    v_bytes16 = v_elems * 2

    softmax = KernelCost()
    # scale + rowmax + subtract over S
    softmax.hvx_packets += 3 * _vectors(v_bytes16)
    # exp over S (+ the small correction vector, negligible)
    if method == "poly32":
        softmax.hvx_packets += int(round(_vectors(v_elems * 4) * 10
                                         * CHAIN_STALL_PACKETS))
    elif method == "poly16":
        n_ops = 12 + (2 if qfloat else 0)
        softmax.hvx_packets += int(round(_vectors(v_bytes16) * n_ops
                                         * CHAIN_STALL_PACKETS))
    elif method == "lut":
        softmax.hvx_packets += 2 * _vectors(v_bytes16)
        softmax.vgather_instrs += -(-v_elems // 64)
        softmax.hvx_packets += n_q * LUT_ROW_EXPOSED_PACKETS // max(1, n_blocks)
    else:
        raise EngineError(f"unknown exp method {method!r}")
    # FP32 row sum upcast + per-row reduce bookkeeping
    softmax.hvx_packets += _vectors(v_elems * 4)
    softmax.hvx_packets += n_q * ROW_REDUCE_PACKETS // max(1, n_blocks)

    rescale = KernelCost()
    o_bytes = q_rows * head_dim * 2
    rescale.hvx_packets += 2 * _vectors(o_bytes)

    phases = {
        "qk_matmul": qk.scaled(n_blocks),
        "softmax": softmax.scaled(n_blocks),
        "pv_matmul": pv.scaled(n_blocks),
        "rescale": rescale.scaled(n_blocks),
        "kv_stream": KernelCost(dma_bytes=2 * n_kv * head_dim * 2),
    }
    # final normalization + fixed call overhead
    phases["rescale"].hvx_packets += _vectors(q_rows * head_dim * 2) \
        + CALL_FIXED_PACKETS
    return phases


def attention_cost(n_q: int, n_kv: int, head_dim: int, method: str = "lut",
                   qfloat: bool = True, block_kv: int = TILE_DIM) -> KernelCost:
    """Total cost of one attention head (sum of the phase costs)."""
    phases = attention_phase_costs(n_q, n_kv, head_dim, method=method,
                                   qfloat=qfloat, block_kv=block_kv)
    total = KernelCost()
    for cost in phases.values():
        total.merge(cost)
    return total


@dataclass
class StepLatency:
    """Latency decomposition of one decode or prefill step."""

    npu_seconds: float
    cpu_seconds: float
    gemm_seconds: float
    attention_seconds: float

    @property
    def total_seconds(self) -> float:
        # the lm_head consumes the final hidden states, so CPU time
        # serializes after the NPU portion
        return self.npu_seconds + self.cpu_seconds


class DecodePerformanceModel:
    """Per-step latency/throughput for a full-size model on a device."""

    def __init__(self, config: ModelConfig, device: Device,
                 attention_method: str = "lut", strategy: str = "ours",
                 lm_head_on_npu: bool = False) -> None:
        self.config = config
        self.device = device
        self.attention_method = attention_method
        self.strategy = strategy
        self.lm_head_on_npu = lm_head_on_npu
        self.timing = TimingModel(device.npu)
        self._qfloat = not device.npu.ieee_float
        self._gemm_costs: Dict[int, KernelCost] = {}

    # ------------------------------------------------------------------
    def _layer_gemm_cost(self, m: int) -> KernelCost:
        """One layer's projection GEMMs at ``m`` rows.

        The model composes each ``m``'s cost once and hands out copies,
        so a caller that mutates its cost leaves the next call intact.
        """
        cost = self._gemm_costs.get(m)
        if cost is None:
            cost = KernelCost()
            for name, (k, n) in self.config.projection_shapes().items():
                bits = 8 if name == "w_down" else 4
                cost.merge(gemm_cost(m, k, n, strategy=self.strategy,
                                     bits=bits, qfloat=self._qfloat))
            self._gemm_costs[m] = cost
        return replace(cost)

    def _layer_attention_cost(self, batch: int, n_q: int, kv_len: int) -> KernelCost:
        cfg = self.config
        one_head = attention_cost(n_q * cfg.gqa_group, kv_len, cfg.head_dim,
                                  method=self.attention_method,
                                  qfloat=self._qfloat)
        return one_head.scaled(batch * cfg.n_kv_heads)

    # ------------------------------------------------------------------
    def decode_step(self, batch: int, context: int) -> StepLatency:
        """One batched decode step at the given context length."""
        return self._decode_step(batch, context)[0]

    def _decode_step(self, batch: int, context: int
                     ) -> Tuple[StepLatency, KernelCost]:
        """:meth:`decode_step` and the NPU cost it composed, which
        :class:`~repro.perf.power.PowerModel` splits into engine
        utilizations without pricing the step again."""
        if batch <= 0 or context <= 0:
            raise EngineError(
                f"batch/context must be positive, got {batch}/{context}")
        cfg = self.config
        gemm = self._layer_gemm_cost(batch).scaled(cfg.n_layers)
        attn = self._layer_attention_cost(batch, 1, context).scaled(cfg.n_layers)
        npu = KernelCost().merge(gemm).merge(attn)
        if self.lm_head_on_npu:
            # the §7.2.2 hypothetical: with the 32-bit VA limit solved,
            # the vocabulary projection runs on the NPU like any other
            # projection and the CPU leaves the critical path
            npu.merge(gemm_cost(batch, cfg.hidden_dim, cfg.vocab_size,
                                strategy=self.strategy, bits=4,
                                qfloat=self._qfloat))
            cpu = 0.0
        else:
            cpu = self.device.cpu.gemm_seconds(
                batch, cfg.hidden_dim, cfg.vocab_size,
                weight_bytes=cfg.lm_head_bytes())
        return StepLatency(
            npu_seconds=self.timing.seconds(npu),
            cpu_seconds=cpu,
            gemm_seconds=self.timing.seconds(gemm),
            attention_seconds=self.timing.seconds(attn),
        ), npu

    def decode_latency(self, batch: int, context: int) -> float:
        return self.decode_step(batch, context).total_seconds

    def decode_throughput(self, batch: int, context: int) -> float:
        """Aggregate tokens/second across the batch."""
        return batch / self.decode_latency(batch, context)

    # ------------------------------------------------------------------
    def prefill_latency(self, prompt_len: int, chunk: int = 128) -> float:
        """Prompt processing time, chunked causal prefill."""
        if prompt_len <= 0:
            raise EngineError(f"prompt length must be positive, got {prompt_len}")
        cfg = self.config
        total = 0.0
        done = 0
        while done < prompt_len:
            step = min(chunk, prompt_len - done)
            gemm = self._layer_gemm_cost(step).scaled(cfg.n_layers)
            attn = self._layer_attention_cost(1, step, done + step)
            attn = attn.scaled(cfg.n_layers)
            npu = KernelCost().merge(gemm).merge(attn)
            total += self.timing.seconds(npu) / PREFILL_EFFICIENCY
            done += step
        # single lm_head evaluation for the last position
        total += self.device.cpu.gemm_seconds(
            1, cfg.hidden_dim, cfg.vocab_size, weight_bytes=cfg.lm_head_bytes())
        return total

    def prefill_throughput(self, prompt_len: int) -> float:
        return prompt_len / self.prefill_latency(prompt_len)

    # ------------------------------------------------------------------
    def cpu_time_fraction(self, batch: int, context: int) -> float:
        """Fraction of step time spent in the CPU lm_head (Fig. 11/16)."""
        step = self.decode_step(batch, context)
        return step.cpu_seconds / step.total_seconds
