"""NPU kernels: mixed-precision GEMM, LUT softmax, FlashAttention, ops.

* :mod:`repro.kernels.lut` — exp LUT + vlut16 table construction (§5.2).
* :mod:`repro.kernels.softmax` — three exp kernels and on-chip softmax.
* :mod:`repro.kernels.dequant` — the four Fig. 15 dequantization paths.
* :mod:`repro.kernels.gemm` — the end-to-end W4A16 GEMM pipeline.
* :mod:`repro.kernels.flash_attention` — Algorithm 1 plus FP32 baseline.
* :mod:`repro.kernels.ops` — RMSNorm / RoPE / SwiGLU / residual add.
"""

from .dequant import (
    DEQUANT_STRATEGIES,
    broadcast_scales_vlut,
    broadcast_scales_vsplat,
    dequantize_stream,
    int4_to_fp16_unpack,
    int4_to_fp16_vlut,
)
from .flash_attention import (
    AttentionBreakdown,
    FlashAttention,
    attention_fp32_reference,
)
from .gemm import FusedWeight, MixedPrecisionGemm, PreparedWeight
from .lut import (
    EXP_LUT_BYTES,
    EXP_LUT_ENTRIES,
    ExpLUT,
    build_exp_lut,
    exp_lut_offsets,
    scale_broadcast_indices,
)
from .ops import residual_add, rms_norm, rope_frequencies, rope_rotate, silu, swiglu
from .tmac import TMacGemv, TMacPreparedWeight
from .softmax import (
    CHAIN_STALL_PACKETS,
    EXP_METHODS,
    OnChipSoftmax,
    exp_lut,
    exp_poly16,
    exp_poly32,
)

__all__ = [
    "DEQUANT_STRATEGIES",
    "broadcast_scales_vlut",
    "broadcast_scales_vsplat",
    "dequantize_stream",
    "int4_to_fp16_unpack",
    "int4_to_fp16_vlut",
    "AttentionBreakdown",
    "FlashAttention",
    "attention_fp32_reference",
    "MixedPrecisionGemm",
    "PreparedWeight",
    "FusedWeight",
    "EXP_LUT_BYTES",
    "EXP_LUT_ENTRIES",
    "ExpLUT",
    "build_exp_lut",
    "exp_lut_offsets",
    "scale_broadcast_indices",
    "TMacGemv",
    "TMacPreparedWeight",
    "residual_add",
    "rms_norm",
    "rope_frequencies",
    "rope_rotate",
    "silu",
    "swiglu",
    "CHAIN_STALL_PACKETS",
    "EXP_METHODS",
    "OnChipSoftmax",
    "exp_lut",
    "exp_poly16",
    "exp_poly32",
]
