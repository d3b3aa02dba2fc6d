"""Model checkpoints: a GGUF-like single-file format for the simulator.

The paper's system loads llama.cpp GGUF files whose tensors are already
Q4_0/Q8_0-packed.  This module provides the equivalent for the
reproduction: a self-describing binary container holding either

* ``f16`` master weights (for exact round-trips), or
* ``q4`` tensors — tile-group quantized, super-group packed projections
  (Q4_0, with the FFN down projection in Q8_0 per §7.1) plus FP16
  embeddings/norms — at the on-disk cost of ~4.5-8.5 bits per weight.

Layout::

    magic "RNPUCKPT" | u32 header_len | header JSON | tensor blob

The header carries the model configuration and a tensor index (name,
codec, shape, offset, size), so files are loadable without out-of-band
metadata and corruption is detected early.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from ..errors import ModelConfigError
from ..quant.coalesce import pack_supergroups_q4, unpack_supergroups_q4
from ..quant.schemes import QuantizedGroups
from ..quant.tile_quant import (
    QuantizedWeight,
    dequantize_weight,
    quantize_tile_group,
)
from .config import ModelConfig
from .model import TransformerWeights

__all__ = ["save_checkpoint", "load_checkpoint", "checkpoint_info"]

_MAGIC = b"RNPUCKPT"
_CODECS = ("f16", "f32", "q4_tile", "q8_tile")


def _config_to_dict(config: ModelConfig) -> Dict:
    return asdict(config)


def _config_from_dict(data: Dict) -> ModelConfig:
    return ModelConfig(**data)


class _BlobWriter:
    def __init__(self) -> None:
        self.chunks: List[bytes] = []
        self.offset = 0
        self.index: List[Dict] = []

    def add(self, name: str, codec: str, shape: Tuple[int, ...],
            payload: bytes, extra: Dict = None) -> None:
        entry = {"name": name, "codec": codec, "shape": list(shape),
                 "offset": self.offset, "nbytes": len(payload)}
        if extra:
            entry.update(extra)
        self.index.append(entry)
        self.chunks.append(payload)
        self.offset += len(payload)


def _encode_q4(matrix: np.ndarray) -> Tuple[bytes, Dict]:
    quantized = quantize_tile_group(matrix, bits=4)
    packed = pack_supergroups_q4(quantized.groups)
    extra = {"padded_shape": list(quantized.padded_shape),
             "group_size": quantized.groups.group_size,
             "coalesce": packed.coalesce,
             "n_groups": quantized.groups.n_groups}
    return packed.data.tobytes(), extra


def _decode_q4(payload: bytes, shape: Tuple[int, int], entry: Dict) -> np.ndarray:
    from ..quant.coalesce import PackedWeight
    packed = PackedWeight(data=np.frombuffer(payload, dtype=np.uint8),
                          layout="supergroup", n_groups=entry["n_groups"],
                          group_size=entry["group_size"],
                          coalesce=entry["coalesce"])
    groups = unpack_supergroups_q4(packed)
    quantized = QuantizedWeight(groups=groups, layout="hmx_tile",
                                original_shape=tuple(shape),
                                padded_shape=tuple(entry["padded_shape"]))
    return dequantize_weight(quantized).astype(np.float32)


def _encode_q8(matrix: np.ndarray) -> Tuple[bytes, Dict]:
    quantized = quantize_tile_group(matrix, bits=8)
    codes = quantized.groups.codes.tobytes()
    scales = quantized.groups.scales.tobytes()
    extra = {"padded_shape": list(quantized.padded_shape),
             "group_size": quantized.groups.group_size,
             "n_groups": quantized.groups.n_groups,
             "scale_bytes": len(scales)}
    return codes + scales, extra


def _decode_q8(payload: bytes, shape: Tuple[int, int], entry: Dict) -> np.ndarray:
    n_groups = entry["n_groups"]
    group_size = entry["group_size"]
    code_bytes = n_groups * group_size
    codes = np.frombuffer(payload[:code_bytes], dtype=np.uint8) \
        .reshape(n_groups, group_size)
    scales = np.frombuffer(payload[code_bytes:], dtype=np.float16)
    groups = QuantizedGroups(codes=codes, scales=scales, bits=8,
                             group_size=group_size)
    quantized = QuantizedWeight(groups=groups, layout="hmx_tile",
                                original_shape=tuple(shape),
                                padded_shape=tuple(entry["padded_shape"]))
    return dequantize_weight(quantized).astype(np.float32)


def save_checkpoint(path, weights: TransformerWeights,
                    codec: str = "q4") -> int:
    """Write a checkpoint; returns the file size in bytes.

    ``codec="f16"`` stores master weights losslessly enough for FP16
    inference; ``codec="q4"`` stores the deployment form (Q4_0 tile
    groups, Q8_0 down projections, FP16 embeddings and norms).
    """
    if codec not in ("f16", "q4"):
        raise ModelConfigError(f"unknown checkpoint codec {codec!r}")
    writer = _BlobWriter()

    def add_dense(name: str, array: np.ndarray, dtype: str = "f16") -> None:
        np_dtype = np.float16 if dtype == "f16" else np.float32
        writer.add(name, dtype, array.shape,
                   np.ascontiguousarray(array, dtype=np_dtype).tobytes())

    add_dense("embedding", weights.embedding)
    if not weights.config.tie_embeddings:
        add_dense("lm_head", weights.lm_head)
    add_dense("final_norm", weights.final_norm, "f32")
    for i, layer in enumerate(weights.layers):
        for name, matrix in layer.items():
            full = f"layers.{i}.{name}"
            if name.startswith("norm"):
                add_dense(full, matrix, "f32")
            elif codec == "f16":
                add_dense(full, matrix, "f16")
            elif name == "w_down":
                payload, extra = _encode_q8(matrix)
                writer.add(full, "q8_tile", matrix.shape, payload, extra)
            else:
                payload, extra = _encode_q4(matrix)
                writer.add(full, "q4_tile", matrix.shape, payload, extra)

    header = json.dumps({
        "config": _config_to_dict(weights.config),
        "codec": codec,
        "tensors": writer.index,
    }).encode("utf-8")
    path = Path(path)
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(np.uint32(len(header)).tobytes())
        f.write(header)
        for chunk in writer.chunks:
            f.write(chunk)
    return path.stat().st_size


def _read_header(path) -> Tuple[Dict, int]:
    with open(path, "rb") as f:
        magic = f.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ModelConfigError(
                f"{path} is not a repro checkpoint (bad magic {magic!r})")
        header_len = int(np.frombuffer(f.read(4), dtype=np.uint32)[0])
        header = json.loads(f.read(header_len).decode("utf-8"))
    return header, len(_MAGIC) + 4 + header_len


def checkpoint_info(path) -> Dict:
    """Header metadata: config, codec, tensor index."""
    header, _ = _read_header(path)
    return header


def load_checkpoint(path) -> TransformerWeights:
    """Load a checkpoint back into :class:`TransformerWeights`.

    Quantized tensors dequantize on load (the master weights of a ``q4``
    file are the quantize-dequantize round-trip, exactly what the NPU
    computes with).
    """
    header, blob_start = _read_header(path)
    config = _config_from_dict(header["config"])
    blob = Path(path).read_bytes()[blob_start:]

    def payload(entry: Dict) -> bytes:
        return blob[entry["offset"]:entry["offset"] + entry["nbytes"]]

    tensors: Dict[str, np.ndarray] = {}
    for entry in header["tensors"]:
        raw = payload(entry)
        shape = tuple(entry["shape"])
        codec = entry["codec"]
        if codec == "f16":
            tensors[entry["name"]] = np.frombuffer(raw, dtype=np.float16) \
                .reshape(shape).astype(np.float32)
        elif codec == "f32":
            tensors[entry["name"]] = np.frombuffer(raw, dtype=np.float32) \
                .reshape(shape).copy()
        elif codec == "q4_tile":
            tensors[entry["name"]] = _decode_q4(raw, shape, entry)
        elif codec == "q8_tile":
            tensors[entry["name"]] = _decode_q8(raw, shape, entry)
        else:
            raise ModelConfigError(f"unknown tensor codec {codec!r}")

    layers = []
    for i in range(config.n_layers):
        layer = {}
        for name in list(config.projection_shapes()) + ["norm_attn",
                                                        "norm_ffn"]:
            layer[name] = tensors[f"layers.{i}.{name}"]
        layers.append(layer)
    embedding = tensors["embedding"]
    lm_head = embedding.T.copy() if config.tie_embeddings \
        else tensors["lm_head"]
    return TransformerWeights(config=config, embedding=embedding,
                              lm_head=lm_head,
                              final_norm=tensors["final_norm"],
                              layers=layers)
