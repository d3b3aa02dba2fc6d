"""Per-layer FP16 KV cache with batched sequences.

Test-time scaling decodes a *batch* of candidate continuations against a
shared prompt.  The cache therefore stores ``(batch, capacity, kv_heads,
head_dim)`` FP16 tensors per layer, tracks an independent length per
sequence, and supports forking one prefilled sequence into N candidates
(the prompt KV is shared logically; we copy for simplicity, matching the
memory accounting the paper reports for a fixed context budget).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..errors import EngineError

__all__ = ["LayerKVCache", "QuantizedLayerKVCache", "KVCache", "dequantize_kv"]


class LayerKVCache:
    """KV storage for one transformer layer."""

    def __init__(self, batch: int, capacity: int, n_kv_heads: int,
                 head_dim: int) -> None:
        if min(batch, capacity, n_kv_heads, head_dim) <= 0:
            raise EngineError("all KV cache dimensions must be positive")
        self.batch = batch
        self.capacity = capacity
        self.keys = np.zeros((batch, capacity, n_kv_heads, head_dim), dtype=np.float16)
        self.values = np.zeros_like(self.keys)
        self.lengths = np.zeros(batch, dtype=np.int64)

    def append(self, seq: int, k: np.ndarray, v: np.ndarray) -> None:
        """Append ``(tokens, kv_heads, head_dim)`` blocks for one sequence."""
        if not 0 <= seq < self.batch:
            raise EngineError(f"sequence {seq} out of range (batch {self.batch})")
        k = np.asarray(k, dtype=np.float16)
        v = np.asarray(v, dtype=np.float16)
        if k.shape != v.shape or k.shape[1:] != self.keys.shape[2:]:
            raise EngineError(
                f"KV block shape {k.shape} incompatible with cache "
                f"{self.keys.shape}")
        n = k.shape[0]
        start = int(self.lengths[seq])
        if start + n > self.capacity:
            raise EngineError(
                f"KV cache overflow: {start} + {n} > capacity {self.capacity}")
        self.keys[seq, start:start + n] = k
        self.values[seq, start:start + n] = v
        self.lengths[seq] = start + n

    def view(self, seq: int) -> Tuple[np.ndarray, np.ndarray]:
        """The valid K/V prefix of one sequence."""
        n = int(self.lengths[seq])
        return self.keys[seq, :n], self.values[seq, :n]

    def gather(self, sequences: List[int]
               ) -> Tuple[np.ndarray, np.ndarray, List[int]]:
        """The listed sequences' cached K/V as one attention stack.

        Returns FP16 keys and values, each ``(len(sequences) *
        kv_heads, rows, head_dim)`` in (sequence, head) order, and each
        sequence's length.  ``rows`` covers the longest sequence; rows
        past a sequence's length hold values attention ignores.  The
        stack is read out of the cache in one indexing step, not one
        copy per sequence.
        """
        lengths = self.lengths[sequences].tolist()
        rows = max(lengths)
        return (_stacked(self.keys, sequences, rows),
                _stacked(self.values, sequences, rows), lengths)

    def fork(self, source: int, targets: List[int]) -> None:
        """Copy one sequence's cache into other slots (prompt sharing)."""
        n = int(self.lengths[source])
        for t in targets:
            if not 0 <= t < self.batch:
                raise EngineError(f"fork target {t} out of range")
            self.keys[t, :n] = self.keys[source, :n]
            self.values[t, :n] = self.values[source, :n]
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
        return self.keys.nbytes + self.values.nbytes


class QuantizedLayerKVCache(LayerKVCache):
    """INT8 per-(token, head) symmetric KV storage (half the memory).

    The related work the paper cites (QuaRot, SpinQuant) quantizes the
    KV cache; this extension stores K/V as INT8 with one FP16 scale per
    (token, head) vector.  Reads dequantize on the fly, so the interface
    matches :class:`LayerKVCache` and the quantization error is a real
    numerical property tests can measure.
    """

    def __init__(self, batch: int, capacity: int, n_kv_heads: int,
                 head_dim: int) -> None:
        super().__init__(batch, capacity, n_kv_heads, head_dim)
        shape = (batch, capacity, n_kv_heads, head_dim)
        self.keys = np.zeros(shape, dtype=np.int8)
        self.values = np.zeros(shape, dtype=np.int8)
        self.key_scales = np.zeros(shape[:3], dtype=np.float16)
        self.value_scales = np.zeros(shape[:3], dtype=np.float16)

    @staticmethod
    def _quantize(block: np.ndarray) -> "Tuple[np.ndarray, np.ndarray]":
        data = np.asarray(block, dtype=np.float32)
        absmax = np.abs(data).max(axis=-1)
        scales = (absmax / 127.0).astype(np.float16)
        safe = np.where(scales.astype(np.float32) > 0,
                        scales.astype(np.float32), 1.0)
        codes = np.clip(np.rint(data / safe[..., None]), -127, 127)
        return codes.astype(np.int8), scales

    def append(self, seq: int, k: np.ndarray, v: np.ndarray) -> None:
        if not 0 <= seq < self.batch:
            raise EngineError(f"sequence {seq} out of range (batch {self.batch})")
        k = np.asarray(k, dtype=np.float16)
        v = np.asarray(v, dtype=np.float16)
        if k.shape != v.shape or k.shape[1:] != self.keys.shape[2:]:
            raise EngineError(
                f"KV block shape {k.shape} incompatible with cache "
                f"{self.keys.shape}")
        n = k.shape[0]
        start = int(self.lengths[seq])
        if start + n > self.capacity:
            raise EngineError(
                f"KV cache overflow: {start} + {n} > capacity {self.capacity}")
        k_codes, k_scales = self._quantize(k)
        v_codes, v_scales = self._quantize(v)
        self.keys[seq, start:start + n] = k_codes
        self.values[seq, start:start + n] = v_codes
        self.key_scales[seq, start:start + n] = k_scales
        self.value_scales[seq, start:start + n] = v_scales
        self.lengths[seq] = start + n

    def view(self, seq: int) -> "Tuple[np.ndarray, np.ndarray]":
        n = int(self.lengths[seq])
        return (dequantize_kv(self.keys[seq, :n], self.key_scales[seq, :n]),
                dequantize_kv(self.values[seq, :n],
                              self.value_scales[seq, :n]))

    def gather(self, sequences: List[int]
               ) -> Tuple[np.ndarray, np.ndarray, List[int]]:
        lengths = self.lengths[sequences].tolist()
        rows = max(lengths)
        return (dequantize_kv(_stacked(self.keys, sequences, rows),
                              _stacked(self.key_scales, sequences, rows)),
                dequantize_kv(_stacked(self.values, sequences, rows),
                              _stacked(self.value_scales, sequences, rows)),
                lengths)

    def fork(self, source: int, targets: List[int]) -> None:
        n = int(self.lengths[source])
        for t in targets:
            if not 0 <= t < self.batch:
                raise EngineError(f"fork target {t} out of range")
            self.keys[t, :n] = self.keys[source, :n]
            self.values[t, :n] = self.values[source, :n]
            self.key_scales[t, :n] = self.key_scales[source, :n]
            self.value_scales[t, :n] = self.value_scales[source, :n]
            self.lengths[t] = n

    def nbytes_used(self) -> int:
        return (self.keys.nbytes + self.values.nbytes
                + self.key_scales.nbytes + self.value_scales.nbytes)


def dequantize_kv(codes: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """INT8 K/V codes times their per-(token, head) scales, as FP16."""
    return np.multiply(codes, scales[..., np.newaxis],
                       dtype=np.float32).astype(np.float16)


def _stacked(storage: np.ndarray, sequences: List[int],
             rows: int) -> np.ndarray:
    """Rows ``[0, rows)`` of the listed sequences of a ``(batch,
    capacity, kv_heads, ...)`` array, as one ``(len(sequences) *
    kv_heads, rows, ...)`` array in (sequence, head) order."""
    stack = storage[sequences, :rows].swapaxes(1, 2)
    return stack.reshape((len(sequences) * stack.shape[1], rows)
                         + stack.shape[3:])


class KVCache:
    """The full stack of per-layer caches for one model instance.

    ``dtype`` selects FP16 storage (the paper's configuration) or the
    INT8 extension (``"q8"``, halving KV memory at a small accuracy cost).
    """

    def __init__(self, n_layers: int, batch: int, capacity: int,
                 n_kv_heads: int, head_dim: int, dtype: str = "fp16") -> None:
        if dtype == "fp16":
            layer_cls = LayerKVCache
        elif dtype == "q8":
            layer_cls = QuantizedLayerKVCache
        else:
            raise EngineError(f"unknown KV cache dtype {dtype!r}")
        self.layers = [layer_cls(batch, capacity, n_kv_heads, head_dim)
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
