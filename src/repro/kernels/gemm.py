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
of per-shape costs on the kernel.  Weights that multiply the same
activations (a layer's q/k/v, its gate/up) can be held as one
:class:`FusedWeight` and multiplied in one product.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from functools import cached_property
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from ..errors import KernelError
from ..obs import context as obs_context
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer
from ..npu.hvx import HVXContext, InstructionTrace
from ..npu.hmx import TILE_DIM, HMXUnit, padded_fp32
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
    tile_groups,
)
from .dequant import DEQUANT_STRATEGIES, dequantize_stream

__all__ = ["PreparedWeight", "FusedWeight", "MixedPrecisionGemm"]

#: How many (activation shape, weight shape) plans a kernel keeps; the
#: oldest is dropped past the limit.
PLAN_ENTRIES = 256


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

    @property
    def parts(self) -> Tuple["PreparedWeight", ...]:
        """A weight on its own is a fused weight of one part."""
        return (self,)

    @cached_property
    def charge_key(self) -> Tuple[Tuple[Any, ...], ...]:
        """What a call's charges depend on besides its activations' shape.

        One ``(strategy, k, n, group count, packed bytes)`` entry per
        part: dequantization is charged per group and byte and never
        reads a code.  Derived once, on first use.
        """
        k, n = self.quantized.original_shape
        return ((self.strategy, k, n, self.quantized.groups.n_groups,
                 self.storage_bytes),)


@dataclass(frozen=True)
class FusedWeight:
    """Weights that multiply the same activations, held as one matrix.

    ``padded_fp32`` holds the parts' tile-padded FP32 weights side by
    side, in the strategy's memory order (F for ``baseline``), and each
    part's own ``padded_fp32`` is a column view of it, so no weight is
    stored twice.  A call multiplies the whole matrix in one product and
    charges and traces each part as a call on it alone would.
    """

    parts: Tuple[PreparedWeight, ...]
    padded_fp32: np.ndarray

    @cached_property
    def charge_key(self) -> Tuple[Tuple[Any, ...], ...]:
        """The parts' :attr:`PreparedWeight.charge_key` entries, in order."""
        return sum((part.charge_key for part in self.parts), ())


@dataclass(frozen=True)
class _Plan:
    """What every call of one activation shape on one weight shares.

    ``cost`` is the sum of the parts' charges, as the fields of a
    :class:`KernelCost`.  The HMX product is ``n`` columns wide, and
    ``columns`` holds each part's ``(start, width)`` in it when tile
    padding lies between parts (``None`` otherwise); the output is
    ``width`` columns.
    """

    cost: Tuple[int, ...]
    n: int
    width: int
    columns: Optional[Tuple[Tuple[int, int], ...]]


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
        self._plans: Dict[Tuple[Any, ...], _Plan] = {}
        # computes every product; calls are charged from _charges, so
        # nothing reads its trace
        self._hmx = HMXUnit()

    # ------------------------------------------------------------------
    def prepare_weight(self, weight: np.ndarray) -> PreparedWeight:
        """Offline pipeline: quantize, pack and dequantize once (§5.1)."""
        quantized, packed, dequantized = self._quantize(weight)
        return PreparedWeight(quantized=quantized, packed=packed,
                              padded_fp32=padded_fp32(dequantized),
                              strategy=self.strategy)

    def prepare_fused(self, weights: Sequence[np.ndarray]) -> FusedWeight:
        """Prepare weights that multiply the same activations as one matrix.

        Each part is quantized and packed as by :meth:`prepare_weight`,
        and its dequantized weight is written, tile-padded, into its
        columns of one FP32 matrix.  The matrix is F-ordered for
        ``baseline``, as its parts would be on their own: BLAS rounds a
        tile product differently when the weight tile is stored the
        other way, so the order is part of the numerics.
        """
        shapes = [np.shape(weight) for weight in weights]
        if any(len(shape) != 2 for shape in shapes):
            raise KernelError(f"fused weights must be matrices, got shapes "
                              f"{shapes}")
        in_dims = {k for k, _ in shapes}
        if len(in_dims) != 1:
            raise KernelError(f"fused weights must share one input dim, "
                              f"got {sorted(in_dims)}")
        k = in_dims.pop()
        widths = [-(-n // TILE_DIM) * TILE_DIM for _, n in shapes]
        # zero pages are committed only as the parts are written in, so
        # the peak stays below separate weights'
        matrix = np.zeros((-(-k // TILE_DIM) * TILE_DIM, sum(widths)),
                          dtype=np.float32,
                          order="F" if self.strategy == "baseline" else "C")
        parts, start = [], 0
        for weight, (_, n), width in zip(weights, shapes, widths):
            quantized, packed, dequantized = self._quantize(weight)
            matrix[:k, start:start + n] = dequantized
            parts.append(PreparedWeight(
                quantized=quantized, packed=packed,
                padded_fp32=matrix[:, start:start + width],
                strategy=self.strategy))
            start += width
        return FusedWeight(parts=tuple(parts), padded_fp32=matrix)

    def _quantize(self, weight: np.ndarray) -> Tuple[
            QuantizedWeight, Optional[PackedWeight], np.ndarray]:
        """Quantization and packing of one weight, with its dequantized
        FP16 matrix (tile groups dequantize in the pass that quantizes)."""
        w = np.asarray(weight, dtype=np.float32)
        if self.strategy == "baseline":
            quantized = quantize_conventional_group(w, bits=self.bits)
            dequantized = dequantize_weight(quantized)
        else:
            groups = tile_groups(w, bits=self.bits)
            quantized, dequantized = groups.quantized, groups.dequantized()
        packed: Optional[PackedWeight] = None
        if self.bits == 4:
            if self.strategy == "ours" or self.strategy == "no_dequant":
                packed = pack_supergroups_q4(quantized.groups, self.coalesce)
            else:
                packed = pack_aos_q4(quantized.groups)
        return quantized, packed, dequantized

    # ------------------------------------------------------------------
    def __call__(self, activations: np.ndarray,
                 prepared: "PreparedWeight | FusedWeight"
                 ) -> Tuple[np.ndarray, KernelCost]:
        """Run ``activations @ weight`` and return (output, cost).

        ``prepared`` is one weight or a :class:`FusedWeight`, whose
        output is its parts' outputs side by side, from one HMX product
        of the whole matrix; each part's columns equal a call on that
        part alone, bit for bit.  The cost is the sum of the parts'
        charges, and a traced call emits each part's ``kernel.gemm``
        span, charge spans and counters in part order, as calling the
        parts one by one would.  What a call derives from its shapes
        alone is looked up once per (activation shape, weight shape).
        """
        acts = np.asarray(activations, dtype=np.float16)
        if acts.ndim != 2:
            raise KernelError(f"activations must be 2-D, got shape {acts.shape}")
        m, in_dim = acts.shape
        plan = self._plans.get((acts.shape, prepared.charge_key))
        if plan is None:
            plan = self._plan(m, in_dim, prepared)
        if obs_context.current().tracer.enabled:
            for part in prepared.parts:
                self._emit(m, part, self._charge(m, part))
        cost = KernelCost(*plan.cost)
        if self.strategy == "no_dequant":
            # upper-bound variant computes nothing; it is charged the
            # MACs the real kernel would issue so only dequantization
            # differs
            return np.zeros((m, plan.width), dtype=np.float16), cost
        output = self._hmx.gemm(padded_fp32(acts), prepared.padded_fp32,
                                shape=(m, in_dim, plan.n))
        if plan.columns is not None:  # drop the tile padding between parts
            output = np.concatenate([output[:, start:start + width]
                                     for start, width in plan.columns],
                                    axis=1)
        return output, cost

    def _plan(self, m: int, in_dim: int,
              prepared: "PreparedWeight | FusedWeight") -> _Plan:
        """Check a call's shapes and build its :class:`_Plan`, kept per
        ``(activation shape, weight.charge_key)`` key; the cost is summed
        from each part's :meth:`_charge`."""
        parts = prepared.parts
        if in_dim != parts[0].quantized.original_shape[0]:
            raise KernelError(
                f"activation width {in_dim} != weight input dim "
                f"{parts[0].quantized.original_shape[0]}")
        cost = KernelCost()
        for part in parts:
            if part.strategy != self.strategy:
                raise KernelError(
                    f"weight was prepared for strategy {part.strategy!r}, "
                    f"kernel runs {self.strategy!r}")
            cost.merge(self._charge(m, part).cost)
        widths = [part.quantized.original_shape[1] for part in parts]
        # the product's true width ends at the last part's real columns
        padded = [part.padded_fp32.shape[1] for part in parts]
        n = sum(padded[:-1]) + widths[-1]
        starts = np.cumsum([0] + padded[:-1]).tolist()
        plan = _Plan(cost=astuple(cost), n=n, width=sum(widths),
                     columns=None if n == sum(widths)
                     else tuple(zip(starts, widths)))
        if len(self._plans) >= PLAN_ENTRIES:
            del self._plans[next(iter(self._plans))]
        self._plans[((m, in_dim), prepared.charge_key)] = plan
        return plan

    def _emit(self, m: int, part: PreparedWeight, charge: _Charge) -> None:
        """Record a traced call on ``part``: its ``kernel.gemm`` span,
        carrying the call's cost, with the charge's spans and counters."""
        k, n = part.quantized.original_shape
        flops = 2.0 * m * k * n
        tracer, reg, _ = obs_context.current()
        with tracer.span("kernel.gemm", category="kernel",
                         m=m, k=k, n=n, strategy=self.strategy,
                         bits=self.bits, flops=flops,
                         weight_bytes=part.storage_bytes) as sp:
            for name, category, attrs in charge.spans:
                with tracer.span(name, category, **attrs):
                    pass
            for name, value in charge.counters:
                reg.counter(name).inc(value)
            sp.add_cost(charge.cost + KernelCost())
        reg.counter("repro.kernels.gemm_flops").inc(flops)
        reg.counter("repro.kernels.gemm_weight_bytes").inc(part.storage_bytes)

    def _charge(self, m: int, prepared: PreparedWeight) -> _Charge:
        """The charges of an ``(m, k) @ (k, n)`` call on ``prepared``.

        They depend on the shape, the weight's group count and its packed
        size alone (dequantization is charged per group and byte and
        never reads a code), so each distinct key is recorded once, by
        the reference path: stage the activations, ``dequantize_stream``,
        :meth:`HMXUnit.record_gemm`, :meth:`KernelCost.from_trace`.  The
        recording runs in its own scope, with a private tracer and
        metrics registry; what it emitted there is kept for traced calls
        to emit.
        """
        k, n = prepared.quantized.original_shape
        key = (m, k, n, prepared.quantized.groups.n_groups,
               prepared.storage_bytes)
        charge = self._charges.get(key)
        if charge is not None:
            return charge
        tracer, registry = Tracer(), MetricsRegistry()
        with obs_context.scope(tracer=tracer, metrics=registry):
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
