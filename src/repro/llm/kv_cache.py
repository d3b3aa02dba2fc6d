"""The KV storage format, and the contiguous per-layer KV cache.

Test-time scaling decodes a *batch* of candidate continuations against a
shared prompt, and the KV cache is what caps the batch on a phone
(§7.2.1).  This module defines, once, what a cached token stores in each
KV dtype: FP16 (the paper's configuration) stores its K and V vectors;
the INT8 extension (``"q8"``) stores their codes plus one FP16 scale per
(token, head) vector, about half the memory.  :data:`KV_FIELDS` names
the stored arrays, :func:`encode_kv` and :func:`decode_kv` convert to
and from FP16, and :func:`kv_token_nbytes` gives the bytes per token.

Both cache layouts store that record in ``(..., tokens, 2, kv_heads[,
head_dim])`` arrays, K at index 0 of the ``2`` axis and V at index 1:
:class:`LayerKVCache` preallocates ``(batch, capacity, ...)`` per layer,
tracks an independent length per sequence and forks one prefilled
sequence into N candidates by copying its prefix (the memory accounting
the paper reports for a fixed context budget);
:class:`~repro.llm.block_pool.PagedLayerKVCache` stores it in token
blocks shared copy-on-write.  The contiguous cache is the reference the
paged one is held to.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..errors import EngineError

__all__ = ["KV_FIELDS", "LayerKVCache", "KVCache", "check_append",
           "decode_kv", "dequantize_kv", "empty_kv", "encode_kv",
           "kv_fields", "kv_token_nbytes", "quantize_kv"]

#: What a cached token stores in each KV dtype: for each stored array,
#: its numpy dtype and whether it holds a ``head_dim`` vector per (K or
#: V, KV head) or a single value.
KV_FIELDS: Dict[str, Dict[str, Tuple[type, bool]]] = {
    "fp16": {"kv": (np.float16, True)},
    "q8": {"kv": (np.int8, True), "scale": (np.float16, False)},
}


def kv_fields(dtype: str) -> Dict[str, Tuple[type, bool]]:
    """The arrays a token of ``dtype`` stores; an unknown dtype raises
    :class:`~repro.errors.EngineError`."""
    try:
        return KV_FIELDS[dtype]
    except KeyError:
        raise EngineError(f"unknown KV cache dtype {dtype!r}") from None


def kv_token_nbytes(dtype: str, n_kv_heads: int, head_dim: int) -> int:
    """Bytes one token of one layer stores in ``dtype``, K and V."""
    return sum(2 * n_kv_heads * (head_dim if vector else 1)
               * np.dtype(stored).itemsize
               for stored, vector in kv_fields(dtype).values())


def empty_kv(dtype: str, tokens: Tuple[int, ...], n_kv_heads: int,
             head_dim: int) -> Dict[str, np.ndarray]:
    """Zeroed storage of ``dtype`` for a ``tokens``-shaped run of tokens:
    one ``tokens + (2, kv_heads[, head_dim])`` array per stored field."""
    return {name: np.zeros(tokens + (2, n_kv_heads)
                           + ((head_dim,) if vector else ()), dtype=stored)
            for name, (stored, vector) in kv_fields(dtype).items()}


def encode_kv(dtype: str, k: np.ndarray, v: np.ndarray
              ) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
    """FP16 ``(tokens, kv_heads, head_dim)`` keys and values as ``dtype``
    stores them: each field's K part and V part."""
    if dtype == "q8":
        k_codes, k_scales = quantize_kv(k)
        v_codes, v_scales = quantize_kv(v)
        return {"kv": (k_codes, v_codes), "scale": (k_scales, v_scales)}
    return {"kv": (k, v)}


def decode_kv(dtype: str, stored: Dict[str, np.ndarray]) -> np.ndarray:
    """Stored fields of ``dtype``, any leading shape, as FP16 K/V: the
    FP16 field itself, or the INT8 codes dequantized."""
    if dtype == "q8":
        return dequantize_kv(stored["kv"], stored["scale"])
    return stored["kv"]


def quantize_kv(block: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Symmetric INT8 codes of K or V vectors (the last axis), with one
    FP16 scale per vector: its absolute maximum over 127.

    The related work the paper cites (QuaRot, SpinQuant) quantizes the
    KV cache.  Each (token, head) vector is quantized alone, so a chunk
    split across blocks gets the same codes and scales as one appended
    whole, and the quantization error is a property of the codec, not
    of the layout.
    """
    data = np.asarray(block, dtype=np.float32)
    absmax = np.abs(data).max(axis=-1)
    scales = (absmax / 127.0).astype(np.float16)
    safe = np.where(scales.astype(np.float32) > 0,
                    scales.astype(np.float32), 1.0)
    codes = np.clip(np.rint(data / safe[..., None]), -127, 127)
    return codes.astype(np.int8), scales


def dequantize_kv(codes: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """INT8 K/V codes times their per-(token, head) scales, as FP16."""
    return np.multiply(codes, scales[..., np.newaxis],
                       dtype=np.float32).astype(np.float16)


def check_append(cache, seq: int, k, v) -> Tuple[np.ndarray, np.ndarray, int]:
    """Check an append to one layer cache of either layout: ``seq`` is a
    slot, ``k`` and ``v`` are ``(tokens, kv_heads, head_dim)`` blocks of
    the cache's shape, and the tokens fit its capacity.  Returns ``k``
    and ``v`` as FP16 and the sequence's length before the append."""
    if not 0 <= seq < cache.batch:
        raise EngineError(f"sequence {seq} out of range (batch {cache.batch})")
    k = np.asarray(k, dtype=np.float16)
    v = np.asarray(v, dtype=np.float16)
    if k.shape != v.shape or k.shape[1:] != (cache.n_kv_heads,
                                             cache.head_dim):
        raise EngineError(
            f"KV block shape {k.shape} incompatible with cache "
            f"(batch, capacity, {cache.n_kv_heads}, {cache.head_dim})")
    start = int(cache.lengths[seq])
    if start + k.shape[0] > cache.capacity:
        raise EngineError(f"KV cache overflow: {start} + {k.shape[0]} > "
                          f"capacity {cache.capacity}")
    return k, v, start


class LayerKVCache:
    """KV storage for one transformer layer, ``(batch, capacity)`` tokens
    of ``dtype`` preallocated (see :data:`KV_FIELDS`)."""

    def __init__(self, batch: int, capacity: int, n_kv_heads: int,
                 head_dim: int, dtype: str = "fp16") -> None:
        if min(batch, capacity, n_kv_heads, head_dim) <= 0:
            raise EngineError("all KV cache dimensions must be positive")
        self.batch = batch
        self.capacity = capacity
        self.n_kv_heads = n_kv_heads
        self.head_dim = head_dim
        self.dtype = dtype
        #: one ``(batch, capacity, 2, kv_heads[, head_dim])`` array per
        #: stored field
        self.arrays = empty_kv(dtype, (batch, capacity), n_kv_heads,
                               head_dim)
        self.lengths = np.zeros(batch, dtype=np.int64)

    def append(self, seq: int, k: np.ndarray, v: np.ndarray) -> None:
        """Append ``(tokens, kv_heads, head_dim)`` blocks for one sequence."""
        k, v, start = check_append(self, seq, k, v)
        end = start + k.shape[0]
        for name, (k_part, v_part) in encode_kv(self.dtype, k, v).items():
            self.arrays[name][seq, start:end, 0] = k_part
            self.arrays[name][seq, start:end, 1] = v_part
        self.lengths[seq] = end

    def view(self, seq: int) -> Tuple[np.ndarray, np.ndarray]:
        """The valid K/V prefix of one sequence: views into the storage
        for FP16, dequantized copies for INT8."""
        n = int(self.lengths[seq])
        kv = decode_kv(self.dtype, {name: array[seq, :n]
                                    for name, array in self.arrays.items()})
        return kv[:, 0], kv[:, 1]

    def gather(self, sequences: List[int]
               ) -> Tuple[np.ndarray, np.ndarray, List[int]]:
        """The listed sequences' cached K/V as one attention stack.

        Returns FP16 keys and values, each ``(len(sequences) *
        kv_heads, rows, head_dim)`` in (sequence, head) order, and each
        sequence's length.  ``rows`` covers the longest sequence; rows
        past a sequence's length hold values attention ignores.  Each
        stored field is read out of the cache in one indexing step, not
        one copy per sequence, and decoded once.
        """
        lengths = self.lengths[sequences].tolist()
        rows = max(lengths)
        stacked = {}
        for name, array in self.arrays.items():
            # (sequence, token, K or V, head, ...) to (K or V, sequence,
            # head, token, ...)
            stack = array[sequences, :rows].transpose(
                (2, 0, 3, 1, 4)[:array.ndim])
            stacked[name] = stack.reshape(
                (2, len(sequences) * self.n_kv_heads, rows) + stack.shape[4:])
        keys, values = decode_kv(self.dtype, stacked)
        return keys, values, lengths

    def fork(self, source: int, targets: List[int]) -> None:
        """Copy one sequence's cache into other slots (prompt sharing)."""
        n = int(self.lengths[source])
        for t in targets:
            if not 0 <= t < self.batch:
                raise EngineError(f"fork target {t} out of range")
            for array in self.arrays.values():
                array[t, :n] = array[source, :n]
            self.lengths[t] = n

    def truncate(self, seq: int, length: int) -> None:
        """Roll a sequence back to ``length`` tokens (beam-search reuse)."""
        if length < 0 or length > int(self.lengths[seq]):
            raise EngineError(
                f"cannot truncate sequence {seq} to {length} "
                f"(current {int(self.lengths[seq])})")
        self.lengths[seq] = length

    def free(self, seq: int) -> None:
        """Drop a sequence (contiguous backing keeps its allocation)."""
        if not 0 <= seq < self.batch:
            raise EngineError(f"sequence {seq} out of range (batch {self.batch})")
        self.lengths[seq] = 0

    def nbytes_used(self) -> int:
        """Allocated storage bytes (contiguous caches preallocate fully)."""
        return sum(array.nbytes for array in self.arrays.values())


class KVCache:
    """The full stack of per-layer caches for one model instance.

    ``dtype`` selects FP16 storage (the paper's configuration) or the
    INT8 extension (``"q8"``, halving KV memory at a small accuracy cost).
    """

    def __init__(self, n_layers: int, batch: int, capacity: int,
                 n_kv_heads: int, head_dim: int, dtype: str = "fp16") -> None:
        self.layers = [LayerKVCache(batch, capacity, n_kv_heads, head_dim,
                                    dtype)
                       for _ in range(n_layers)]
        self.batch = batch
        self.capacity = capacity
        self.dtype = dtype

    def __getitem__(self, layer: int) -> LayerKVCache:
        return self.layers[layer]

    def __len__(self) -> int:
        return len(self.layers)

    def sequence_length(self, seq: int) -> int:
        return int(self.layers[0].lengths[seq])

    def fork(self, source: int, targets: List[int]) -> None:
        for layer in self.layers:
            layer.fork(source, targets)

    def truncate(self, seq: int, length: int) -> None:
        for layer in self.layers:
            layer.truncate(seq, length)

    def free_sequence(self, seq: int) -> None:
        """Drop one sequence; contiguous backing cannot reclaim its bytes."""
        for layer in self.layers:
            layer.free(seq)

    def nbytes(self) -> int:
        return sum(layer.nbytes_used() for layer in self.layers)
