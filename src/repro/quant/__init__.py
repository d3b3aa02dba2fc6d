"""Quantization subsystem: schemes, layouts, codebooks, AWQ.

* :mod:`repro.quant.schemes` — Q4_0 / Q8_0 group RTN, per-channel,
  per-tensor (the QNN-style baselines of Table 1).
* :mod:`repro.quant.tile_quant` — the paper's hardware-aware tile-group
  quantization (§5.1.1) and its conventional counterpart.
* :mod:`repro.quant.coalesce` — AoS vs super-group packing (§5.1.2).
* :mod:`repro.quant.codebooks` — Q4_0 / NF4 / FP4 / IQ4_NL tables for the
  vlut16 dequantization path (§5.2.2).
* :mod:`repro.quant.awq` — simplified activation-aware quantization.
"""

from .. import _lazy

__all__, __getattr__, __dir__ = _lazy.attach(globals(), names={
    "awq": ("AWQResult", "awq_quantize"),
    "coalesce": ("SUPER_GROUP_FACTOR", "PackedWeight", "pack_aos_q4",
                 "pack_nibbles", "pack_supergroups_q4", "register_utilization",
                 "unpack_aos_q4", "unpack_nibbles", "unpack_supergroups_q4"),
    "codebooks": ("CODEBOOKS", "Codebook", "dequantize_with_codebook",
                  "get_codebook", "quantize_with_codebook"),
    "patch_quant": ("patch_geometry_mse", "quantize_patch_group"),
    "schemes": ("Q4_GROUP_SIZE", "Q4_0_BPW", "Q8_0_BPW", "QuantizedGroups",
                "bits_per_weight", "dequantize_q4_0", "dequantize_q8_0",
                "quantization_mse", "quantize_per_channel",
                "quantize_per_tensor", "quantize_q4_0", "quantize_q8_0"),
    "tile_quant": ("QuantizedWeight", "TileGroups", "dequantize_weight",
                   "quantize_conventional_group", "quantize_tile_group",
                   "tile_group_geometry", "tile_groups"),
})
