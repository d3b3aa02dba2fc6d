"""Calibrated timing model for the Hexagon NPU generations.

The functional models (:mod:`repro.npu.hvx`, :mod:`repro.npu.hmx`,
:mod:`repro.npu.memory`) record *what* executed — instruction traces and
DMA descriptors.  This module converts those records into *time* using a
cost model whose anchor points are the paper's own measurements:

* Table 2 — HMX FP16 GEMM 12032.54 GFLOPS vs 32.93 GFLOPS for a single
  HVX thread; 60 GB/s DMA read vs <30 GB/s HVX core-path read (V75);
* Section 5.2.1 — ``vgather`` costs 24-48 instruction packets on V75;
* Section 3.1.2 — 6-8 scalar VLIW threads, 4-6 HVX contexts, 1-2 HMX
  units, V79 produces IEEE floats directly (no qfloat conversion).

Absolute seconds are therefore simulator estimates, but the *ratios* the
paper reports (dequantization speedups in Fig. 15, softmax speedups in
Fig. 14, batch-scaling curves in Fig. 11) emerge from the same
instruction-count and bandwidth asymmetries that produce them on silicon.

The overlap model is deliberately simple and documented: DMA, HVX and HMX
engines run concurrently; execution time is the maximum engine time plus
a fixed fraction of the remaining (non-overlapped) work, reflecting
imperfect software pipelining.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..errors import NPUError
from .hmx import TILE_DIM
from .hvx import InstructionTrace
from .memory import DMAEngine

__all__ = [
    "TILE_MAC_FLOPS",
    "NPUGenerationTiming",
    "V73",
    "V75",
    "V79",
    "GENERATIONS",
    "KernelCost",
    "TimingModel",
]

TILE_MAC_FLOPS = 2 * TILE_DIM ** 3  # one 32x32x32 tile MAC = 65536 FLOPs

# Fraction of non-critical-path engine work that fails to overlap with the
# critical engine.  0 would be perfect pipelining, 1 fully serial.
_OVERLAP_SLACK = 0.15

# HVX instructions that occupy one issue slot for one packet (cycle).
_SINGLE_PACKET_OPS = frozenset({
    "vadd_hf", "vsub_hf", "vmpy_hf", "vmax_hf", "vmin_hf",
    "vmpy_qf32", "vadd_qf32", "vsplat", "vand", "vlsr", "vasl",
    "vsub_b", "vconv_b_hf", "vconv", "vlut16", "vshuff", "vdeal", "vror",
    "stall",  # exposed latency / fixed overhead packets recorded by kernels
})


@dataclass(frozen=True)
class NPUGenerationTiming:
    """Timing parameters of one Hexagon NPU generation."""

    name: str
    clock_hz: float
    hvx_contexts: int
    scalar_threads: int
    hmx_units: int
    hmx_fp16_gflops: float
    hvx_thread_gemm_gflops: float
    dma_read_gbps: float
    hvx_mem_read_gbps: float
    vgather_packets: int        # raw exposed latency (paper: 24-48 on V75)
    vgather_issue_packets: int  # effective occupancy when gathers pipeline
    vscatter_packets: int       # scatters serialize on write conflicts
    ieee_float: bool
    npu_va_space_bytes: int

    @property
    def hmx_seconds_per_tile_mac(self) -> float:
        return TILE_MAC_FLOPS / (self.hmx_fp16_gflops * 1e9)


# Parameter sets for the three evaluated generations (Table 3).  V75 values
# are the paper's measurements; V73/V79 are scaled by the published
# generation-over-generation characteristics (slower clock and 2 GiB VA
# space on 8 Gen 2; faster clock, IEEE HVX floats on 8 Elite).
V73 = NPUGenerationTiming(
    name="V73", clock_hz=0.9e9, hvx_contexts=4, scalar_threads=6, hmx_units=1,
    hmx_fp16_gflops=9200.0, hvx_thread_gemm_gflops=26.5,
    dma_read_gbps=50.0, hvx_mem_read_gbps=21.0,
    vgather_packets=40, vgather_issue_packets=17, vscatter_packets=52,
    ieee_float=False, npu_va_space_bytes=2 * 2**30,
)

V75 = NPUGenerationTiming(
    name="V75", clock_hz=1.0e9, hvx_contexts=6, scalar_threads=6, hmx_units=1,
    hmx_fp16_gflops=12032.54, hvx_thread_gemm_gflops=32.93,
    dma_read_gbps=60.0, hvx_mem_read_gbps=26.0,
    vgather_packets=36, vgather_issue_packets=15, vscatter_packets=48,
    ieee_float=False, npu_va_space_bytes=4 * 2**30,
)

V79 = NPUGenerationTiming(
    name="V79", clock_hz=1.2e9, hvx_contexts=6, scalar_threads=8, hmx_units=2,
    hmx_fp16_gflops=17500.0, hvx_thread_gemm_gflops=41.0,
    dma_read_gbps=72.0, hvx_mem_read_gbps=33.0,
    vgather_packets=30, vgather_issue_packets=12, vscatter_packets=40,
    ieee_float=True, npu_va_space_bytes=4 * 2**30,
)

GENERATIONS: Dict[str, NPUGenerationTiming] = {g.name: g for g in (V73, V75, V79)}


@dataclass
class KernelCost:
    """Aggregated execution cost of one kernel invocation."""

    hmx_tile_macs: int = 0
    hvx_packets: int = 0          # single-packet vector instructions
    vgather_instrs: int = 0
    vscatter_instrs: int = 0
    hvx_ddr_bytes: int = 0        # core-path reads that miss TCM/L2 (DDR)
    dma_bytes: int = 0

    def merge(self, other: "KernelCost") -> "KernelCost":
        """Accumulate ``other`` into ``self`` **in place** and return self.

        The returned object *is* ``self`` — binding it to a new name
        aliases the accumulator.  Use :meth:`__add__`/:meth:`combined`
        in expression position when a fresh record is wanted.
        """
        self.hmx_tile_macs += other.hmx_tile_macs
        self.hvx_packets += other.hvx_packets
        self.vgather_instrs += other.vgather_instrs
        self.vscatter_instrs += other.vscatter_instrs
        self.hvx_ddr_bytes += other.hvx_ddr_bytes
        self.dma_bytes += other.dma_bytes
        return self

    def __add__(self, other: "KernelCost") -> "KernelCost":
        """Non-mutating sum: returns a fresh record, operands untouched."""
        if not isinstance(other, KernelCost):
            return NotImplemented
        return KernelCost(
            hmx_tile_macs=self.hmx_tile_macs + other.hmx_tile_macs,
            hvx_packets=self.hvx_packets + other.hvx_packets,
            vgather_instrs=self.vgather_instrs + other.vgather_instrs,
            vscatter_instrs=self.vscatter_instrs + other.vscatter_instrs,
            hvx_ddr_bytes=self.hvx_ddr_bytes + other.hvx_ddr_bytes,
            dma_bytes=self.dma_bytes + other.dma_bytes,
        )

    def combined(self, *others: "KernelCost") -> "KernelCost":
        """Fresh sum of ``self`` and ``others`` (alias-safe merge)."""
        total = self + KernelCost()
        for other in others:
            total = total + other
        return total

    def scaled(self, factor: float) -> "KernelCost":
        """Return a cost scaled by ``factor`` (e.g. per-layer -> per-model)."""
        if factor < 0:
            raise ValueError(f"scale factor must be non-negative, got {factor}")
        return KernelCost(
            hmx_tile_macs=int(round(self.hmx_tile_macs * factor)),
            hvx_packets=int(round(self.hvx_packets * factor)),
            vgather_instrs=int(round(self.vgather_instrs * factor)),
            vscatter_instrs=int(round(self.vscatter_instrs * factor)),
            hvx_ddr_bytes=int(round(self.hvx_ddr_bytes * factor)),
            dma_bytes=int(round(self.dma_bytes * factor)),
        )

    @classmethod
    def from_trace(cls, trace: InstructionTrace,
                   dma: Optional[DMAEngine] = None) -> "KernelCost":
        """Build a cost record from a recorded instruction trace."""
        counts = trace.as_dict()
        cost = cls()
        for opcode, count in counts.items():
            if opcode in ("vmem_ld", "vmem_st"):
                # TCM accesses: full-rate, one issue packet each.  Core-path
                # DDR traffic is charged separately via hvx_ddr_bytes.
                cost.hvx_packets += count
            elif opcode == "vgather":
                cost.vgather_instrs += count
            elif opcode == "vscatter":
                cost.vscatter_instrs += count
            elif opcode == "hmx_tile_mac":
                cost.hmx_tile_macs += count
            elif opcode == "hmx_tile_out":
                pass  # output drain is folded into the tile MAC rate
            elif opcode in _SINGLE_PACKET_OPS:
                cost.hvx_packets += count
            else:
                raise NPUError(f"timing model does not know opcode {opcode!r}")
        if dma is not None:
            cost.dma_bytes += dma.total_bytes()
        return cost


class TimingModel:
    """Convert :class:`KernelCost` records into seconds for a generation."""

    def __init__(self, generation: NPUGenerationTiming) -> None:
        self.generation = generation

    # ------------------------------------------------------------------
    # per-engine component times
    # ------------------------------------------------------------------
    def hmx_seconds(self, cost: KernelCost) -> float:
        return cost.hmx_tile_macs * self.generation.hmx_seconds_per_tile_mac

    def hvx_seconds(self, cost: KernelCost, hvx_threads: Optional[int] = None) -> float:
        """Vector-engine time: issue packets + gather/scatter latency.

        Work distributes across ``hvx_threads`` contexts (defaults to all
        available).  Core-path memory traffic is bandwidth-limited and is
        taken as the max against the issue-rate bound.
        """
        gen = self.generation
        threads = gen.hvx_contexts if hvx_threads is None else hvx_threads
        if threads <= 0 or threads > gen.hvx_contexts:
            raise NPUError(
                f"hvx_threads must be in [1, {gen.hvx_contexts}], got {threads}")
        packets = (cost.hvx_packets
                   + cost.vgather_instrs * gen.vgather_issue_packets
                   + cost.vscatter_instrs * gen.vscatter_packets)
        issue_seconds = packets / threads / gen.clock_hz
        mem_seconds = cost.hvx_ddr_bytes / (gen.hvx_mem_read_gbps * 1e9)
        return max(issue_seconds, mem_seconds)

    def dma_seconds(self, cost: KernelCost) -> float:
        return cost.dma_bytes / (self.generation.dma_read_gbps * 1e9)

    # ------------------------------------------------------------------
    # composition
    # ------------------------------------------------------------------
    def seconds(self, cost: KernelCost, hvx_threads: Optional[int] = None) -> float:
        """Total kernel time under the partial-overlap engine model.

        The three engines (DMA, HVX, HMX) run concurrently; total time is
        the critical engine plus ``_OVERLAP_SLACK`` of the remaining work,
        modelling imperfect double-buffering.
        """
        parts = [
            self.dma_seconds(cost),
            self.hvx_seconds(cost, hvx_threads),
            self.hmx_seconds(cost),
        ]
        critical = max(parts)
        slack = sum(parts) - critical
        return critical + _OVERLAP_SLACK * slack

    def gemm_seconds_hmx_peak(self, m: int, k: int, n: int) -> float:
        """Ideal HMX-only GEMM time (used for Table 2 regeneration)."""
        from .hmx import HMXUnit
        tile_macs = HMXUnit.tile_macs_for_gemm(m, k, n)
        return tile_macs * self.generation.hmx_seconds_per_tile_mac

    def gemm_seconds_hvx_thread(self, m: int, k: int, n: int) -> float:
        """Single-HVX-thread GEMM time at the measured Table 2 rate."""
        flops = 2.0 * m * k * n
        return flops / (self.generation.hvx_thread_gemm_gflops * 1e9)

    def effective_gflops(self, flops: float, seconds: float) -> float:
        if seconds <= 0:
            raise NPUError(f"elapsed time must be positive, got {seconds}")
        return flops / seconds / 1e9
