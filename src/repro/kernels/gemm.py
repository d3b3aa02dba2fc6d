"""Mixed-precision GEMM: 4-bit weights through the FP16 matrix unit.

The paper's core compute path (§4): weights are stored in 4-bit
fine-grained groups, dequantized on the fly by the HVX vector unit, and
multiplied on the FP16 HMX unit.  :class:`MixedPrecisionGemm` packages
the full pipeline —

    DMA packed weights -> HVX dequantization (one of the Fig. 15
    strategies) -> HMX tile GEMM -> FP16 output

— and returns both the numerical result and the aggregated
:class:`~repro.npu.timing.KernelCost`, so a single invocation feeds both
accuracy tests and latency benchmarks.  All strategies produce identical
numerics; they differ only in instruction mix and memory traffic.

Host work fixed by the weight or by the call's shape is done once:
:meth:`MixedPrecisionGemm.prepare_weight` stores the tile-padded FP32
weight :meth:`HMXUnit.gemm` reads, and each call is charged from a table
of per-shape costs on the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..errors import KernelError
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..npu.hvx import HVXContext, InstructionTrace
from ..npu.hmx import HMXUnit, padded_fp32
from ..npu.memory import DMAEngine
from ..npu.timing import KernelCost
from ..quant.codebooks import Codebook, Q4_0_CODEBOOK
from ..quant.coalesce import (
    PackedWeight,
    pack_aos_q4,
    pack_supergroups_q4,
)
from ..quant.tile_quant import (
    QuantizedWeight,
    dequantize_weight,
    quantize_conventional_group,
    quantize_tile_group,
)
from .dequant import DEQUANT_STRATEGIES, dequantize_stream

__all__ = ["PreparedWeight", "MixedPrecisionGemm"]


@dataclass
class PreparedWeight:
    """A weight quantized and packed for one dequantization strategy.

    ``padded_fp32`` is the dequantized weight as :meth:`HMXUnit.gemm`
    reads it: zero-padded to whole tiles, widened to FP32 and laid out as
    :func:`~repro.npu.hmx.padded_fp32` lays out the FP16 matrix (C order
    for tile groups, F order for the column-major groups of
    ``baseline``).  It is built once, here, instead of on every call.
    """

    quantized: QuantizedWeight
    packed: Optional[PackedWeight]
    padded_fp32: np.ndarray
    strategy: str

    @property
    def dequantized_matrix(self) -> np.ndarray:
        """The FP16 weight in its original shape, copied out on each read."""
        rows, cols = self.quantized.original_shape
        return self.padded_fp32[:rows, :cols].astype(np.float16)

    @property
    def storage_bytes(self) -> int:
        if self.packed is not None:
            return int(self.packed.data.size)
        return self.quantized.storage_bytes


@dataclass(frozen=True)
class _Charge:
    """What one call of a given shape charges, recorded once.

    ``cost`` is the call's :class:`KernelCost`.  ``spans`` (leaf spans,
    as ``(name, category, attrs)``) and ``counters`` (the total added to
    each counter) are what recording it emitted to the tracer and the
    metrics registry; every traced call of that shape emits them again.
    """

    cost: KernelCost
    spans: Tuple[Tuple[str, str, Dict[str, Any]], ...]
    counters: Tuple[Tuple[str, float], ...]


class MixedPrecisionGemm:
    """W4A16 GEMM kernel parameterized by dequantization strategy.

    ``strategy`` selects the Fig. 15 variant; ``bits=8`` switches to the
    Q8_0 path used for FFN down projections (§7.1).  The 8-bit path skips
    nibble packing but follows the same layout rules.
    """

    def __init__(self, strategy: str = "ours", bits: int = 4,
                 codebook: Codebook = Q4_0_CODEBOOK, coalesce: int = 8,
                 qfloat_mode: str = "qfloat") -> None:
        if strategy not in DEQUANT_STRATEGIES:
            raise KernelError(
                f"unknown strategy {strategy!r}; expected one of {DEQUANT_STRATEGIES}")
        if bits not in (4, 8):
            raise KernelError(f"unsupported weight width {bits}")
        self.strategy = strategy
        self.bits = bits
        self.codebook = codebook
        self.coalesce = coalesce
        self.qfloat_mode = qfloat_mode
        self._charges: Dict[Tuple[int, ...], _Charge] = {}
        # computes every product; calls are charged from _charges, so
        # nothing reads its trace
        self._hmx = HMXUnit()

    # ------------------------------------------------------------------
    def prepare_weight(self, weight: np.ndarray) -> PreparedWeight:
        """Offline pipeline: layout transform, quantize, pack (§5.1)."""
        w = np.asarray(weight, dtype=np.float32)
        if self.strategy == "baseline":
            quantized = quantize_conventional_group(w, bits=self.bits)
        else:
            quantized = quantize_tile_group(w, bits=self.bits)
        packed: Optional[PackedWeight] = None
        if self.bits == 4:
            if self.strategy == "ours" or self.strategy == "no_dequant":
                packed = pack_supergroups_q4(quantized.groups, self.coalesce)
            else:
                packed = pack_aos_q4(quantized.groups)
        return PreparedWeight(quantized=quantized, packed=packed,
                              padded_fp32=padded_fp32(
                                  dequantize_weight(quantized)),
                              strategy=self.strategy)

    # ------------------------------------------------------------------
    def __call__(self, activations: np.ndarray, prepared: PreparedWeight
                 ) -> Tuple[np.ndarray, KernelCost]:
        """Run ``activations @ weight`` and return (output, cost)."""
        if prepared.strategy != self.strategy:
            raise KernelError(
                f"weight was prepared for strategy {prepared.strategy!r}, "
                f"kernel runs {self.strategy!r}")
        acts = np.asarray(activations, dtype=np.float16)
        if acts.ndim != 2:
            raise KernelError(f"activations must be 2-D, got shape {acts.shape}")
        in_dim, out_dim = prepared.quantized.original_shape
        if acts.shape[1] != in_dim:
            raise KernelError(
                f"activation width {acts.shape[1]} != weight input dim {in_dim}")

        m = acts.shape[0]
        flops = 2.0 * m * in_dim * out_dim
        with obs_trace.span("kernel.gemm", category="kernel",
                            m=m, k=in_dim, n=out_dim,
                            strategy=self.strategy, bits=self.bits,
                            flops=flops,
                            weight_bytes=prepared.storage_bytes) as sp:
            charge = self._charge(m, prepared)
            if obs_trace.enabled():
                for name, category, attrs in charge.spans:
                    with obs_trace.span(name, category, **attrs):
                        pass
                reg = obs_metrics.get_metrics()
                for name, value in charge.counters:
                    reg.counter(name).inc(value)
            if self.strategy == "no_dequant":
                # upper-bound variant computes nothing; it is charged the
                # MACs the real kernel would issue so only dequantization
                # differs
                output = np.zeros((m, out_dim), dtype=np.float16)
            else:
                output = self._hmx.gemm(padded_fp32(acts),
                                        prepared.padded_fp32,
                                        shape=(m, in_dim, out_dim))
            cost = charge.cost + KernelCost()
            sp.add_cost(cost)
        if obs_trace.enabled():
            reg = obs_metrics.get_metrics()
            reg.counter("repro.kernels.gemm_flops").inc(flops)
            reg.counter("repro.kernels.gemm_weight_bytes").inc(
                prepared.storage_bytes)
        return output, cost

    def _charge(self, m: int, prepared: PreparedWeight) -> _Charge:
        """The charges of an ``(m, k) @ (k, n)`` call on ``prepared``.

        They depend on the shape, the weight's group count and its packed
        size alone (dequantization is charged per group and byte and
        never reads a code), so each distinct key is recorded once, by
        the reference path: stage the activations, ``dequantize_stream``,
        :meth:`HMXUnit.record_gemm`, :meth:`KernelCost.from_trace`.  The
        recording runs under its own tracer and metrics registry, swapped
        in for the global ones (kernels run on one thread); what it
        emitted there is kept for traced calls to emit.
        """
        k, n = prepared.quantized.original_shape
        key = (m, k, n, prepared.quantized.groups.n_groups,
               prepared.storage_bytes)
        charge = self._charges.get(key)
        if charge is not None:
            return charge
        tracer, registry = obs_trace.Tracer(), obs_metrics.MetricsRegistry()
        outer_tracer = obs_trace.set_tracer(tracer)
        outer_registry = obs_metrics.set_metrics(registry)
        try:
            trace = InstructionTrace()
            dma = DMAEngine()
            # stage activations into TCM (2-D DMA descriptor)
            dma.transfer_2d(m, k * 2, direction="ddr_to_tcm")
            # weight dequantization (streams packed weights via DMA)
            dequantize_stream(prepared.quantized, self.strategy,
                              HVXContext(self.qfloat_mode, trace), dma,
                              packed=prepared.packed, codebook=self.codebook,
                              coalesce=self.coalesce)
            # HMX tile MACs and output tiles of the GEMM
            HMXUnit(trace).record_gemm(m, k, n)
        finally:
            obs_trace.set_tracer(outer_tracer)
            obs_metrics.set_metrics(outer_registry)
        charge = _Charge(
            cost=KernelCost.from_trace(trace, dma),
            spans=tuple((span.name, span.category, span.attrs)
                        for span in tracer.finished_spans()),
            counters=tuple((name, snap["value"]) for name, snap
                           in registry.snapshot().items()))
        self._charges[key] = charge
        return charge

    # ------------------------------------------------------------------
    def gemv(self, activation: np.ndarray, prepared: PreparedWeight
             ) -> Tuple[np.ndarray, KernelCost]:
        """Single-token convenience wrapper (the decode-phase GEMV)."""
        vec = np.asarray(activation, dtype=np.float16)
        if vec.ndim != 1:
            raise KernelError(f"gemv expects a vector, got shape {vec.shape}")
        out, cost = self(vec[np.newaxis, :], prepared)
        return out[0], cost
