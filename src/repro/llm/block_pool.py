"""Paged KV cache: fixed-size token blocks from a refcounted shared pool.

The contiguous :class:`~repro.llm.kv_cache.LayerKVCache` preallocates
``batch x capacity`` for every slot and copies the whole prompt prefix on
``fork`` — exactly the rpcmem waste that caps the candidate count N on
Snapdragon 8 Gen 2 (§7.2.1).  This module replaces that backing with a
vLLM-style block table:

* KV storage is split into fixed-size *token blocks* (default 16 tokens)
  allocated from a :class:`BlockPool` shared by every layer and charged
  against the NPU session's rpcmem budget;
* ``fork`` becomes copy-on-write sharing: targets reference the source's
  blocks and only the block a candidate actually writes into is copied
  (one partial tail block per fork, not the whole prompt);
* a candidate that terminates frees its private blocks immediately, so a
  scheduler can admit a new candidate into the vacated slot
  mid-generation (waved Best-of-N).

A block stores its tokens in the one format :mod:`repro.llm.kv_cache`
defines for every dtype, FP16 or INT8 codes with FP16 scales, and in the
contiguous cache's order, so ``gather`` and ``view`` reassemble the
contiguous cache's values bitwise, which ``tests/differential`` asserts
token-for-token.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import EngineError, KVPoolExhausted
from ..obs import context as obs_context
from .kv_cache import (check_append, decode_kv, empty_kv, encode_kv,
                       kv_fields, kv_token_nbytes)

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "BlockPool",
    "PagedLayerKVCache",
    "PagedKVCache",
    "SequenceSnapshot",
]

DEFAULT_BLOCK_SIZE = 16


class BlockPool:
    """Refcounted accountant for KV blocks shared across layers.

    The pool hands out integer block handles and charges their bytes
    against a fixed capacity (optionally backed by an rpcmem mapping so
    the NPU VA budget enforces it).  Layers own the actual block storage;
    the pool owns lifetime: a handle is live while its refcount is
    positive, and every byte of a live handle counts toward
    ``used_bytes`` exactly once no matter how many sequences share it.
    """

    def __init__(self, capacity_bytes: int,
                 block_size: int = DEFAULT_BLOCK_SIZE,
                 heap=None, name: str = "kv-pool") -> None:
        if capacity_bytes <= 0:
            raise EngineError(
                f"pool capacity must be positive, got {capacity_bytes}")
        if block_size <= 0:
            raise EngineError(f"block size must be positive, got {block_size}")
        self.capacity_bytes = capacity_bytes
        self.block_size = block_size
        self.name = name
        self.backing = None
        if heap is not None:
            # raises AddressSpaceError when the session cannot hold it
            self.backing = heap.alloc(capacity_bytes, name=name)
        self._refcounts: Dict[int, int] = {}
        self._handle_nbytes: Dict[int, int] = {}
        self._next_handle = 0
        self.used_bytes = 0
        self.peak_bytes = 0
        self.cow_copies = 0
        self.total_allocated = 0
        # optional repro.resilience.FaultInjector; fires alloc_fail
        # events at the "kv_pool.alloc" site when set
        self.fault_injector = None

    # ------------------------------------------------------------------
    @property
    def blocks_in_use(self) -> int:
        return len(self._refcounts)

    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes

    def refcount(self, handle: int) -> int:
        try:
            return self._refcounts[handle]
        except KeyError:
            raise EngineError(f"block {handle} is not live") from None

    def live_handles(self) -> Dict[int, int]:
        """Live handle -> refcount (invariant checks in tests)."""
        return dict(self._refcounts)

    # ------------------------------------------------------------------
    def alloc(self, nbytes: int) -> int:
        """Allocate one block of ``nbytes`` with refcount 1."""
        if nbytes <= 0:
            raise EngineError(f"block bytes must be positive, got {nbytes}")
        if self.fault_injector is not None:
            self.fault_injector.maybe_raise(
                "kv_pool.alloc",
                detail=f"requested {nbytes} bytes, {self.free_bytes()} free "
                       f"of {self.capacity_bytes}, peak {self.peak_bytes}, "
                       f"{self.blocks_in_use} blocks live")
        if self.used_bytes + nbytes > self.capacity_bytes:
            raise KVPoolExhausted(
                f"KV block pool exhausted: need {nbytes} bytes, "
                f"{self.free_bytes()} free of {self.capacity_bytes}, "
                f"peak {self.peak_bytes}, {self.blocks_in_use} blocks live")
        handle = self._next_handle
        self._next_handle += 1
        self._refcounts[handle] = 1
        self._handle_nbytes[handle] = nbytes
        self.used_bytes += nbytes
        self.peak_bytes = max(self.peak_bytes, self.used_bytes)
        self.total_allocated += 1
        self._publish()
        return handle

    def incref(self, handle: int) -> None:
        self._refcounts[handle] = self.refcount(handle) + 1

    def decref(self, handle: int) -> bool:
        """Drop one reference; returns True when the block was freed.

        Decrefing a dead handle is a double-free and raises
        :class:`~repro.errors.EngineError`.
        """
        count = self.refcount(handle) - 1
        if count == 0:
            del self._refcounts[handle]
            self.used_bytes -= self._handle_nbytes.pop(handle)
            self._publish()
            return True
        self._refcounts[handle] = count
        return False

    def note_cow(self) -> None:
        """Record one copy-on-write block divergence."""
        self.cow_copies += 1
        obs = obs_context.current()
        if obs.tracer.enabled:
            obs.metrics.counter("repro.kv.cow_copies").inc()

    def _publish(self) -> None:
        obs = obs_context.current()
        if obs.tracer.enabled:
            obs.metrics.gauge("repro.kv.blocks_in_use").set(
                self.blocks_in_use)
            obs.metrics.gauge("repro.kv.used_bytes").set(self.used_bytes)


class PagedLayerKVCache:
    """Block-table KV storage for one layer: each block stores
    ``block_size`` tokens of ``dtype`` (see
    :data:`~repro.llm.kv_cache.KV_FIELDS`).

    Interface-compatible with :class:`~repro.llm.kv_cache.LayerKVCache`
    (``append`` / ``view`` / ``gather`` / ``fork`` / ``truncate`` plus
    ``lengths``), so :meth:`NPUTransformer.forward` runs unmodified on
    either backing.
    """

    def __init__(self, batch: int, capacity: int, n_kv_heads: int,
                 head_dim: int, pool: BlockPool, dtype: str = "fp16") -> None:
        if min(batch, capacity, n_kv_heads, head_dim) <= 0:
            raise EngineError("all KV cache dimensions must be positive")
        self.batch = batch
        self.capacity = capacity
        self.n_kv_heads = n_kv_heads
        self.head_dim = head_dim
        self.dtype = dtype
        self.fields = kv_fields(dtype)
        self.pool = pool
        self.block_size = pool.block_size
        self._block_nbytes = self.block_size * kv_token_nbytes(
            dtype, n_kv_heads, head_dim)
        self.tables: List[List[int]] = [[] for _ in range(batch)]
        self.lengths = np.zeros(batch, dtype=np.int64)
        #: block handle -> one ``(block_size, 2, kv_heads[, head_dim])``
        #: array per stored field
        self._storage: Dict[int, Dict[str, np.ndarray]] = {}

    def block_nbytes(self) -> int:
        """Bytes of one block: ``block_size`` tokens, K and V."""
        return self._block_nbytes

    def _stacked(self, tables: List[List[int]], rows: int
                 ) -> Dict[str, np.ndarray]:
        """Each stored field of every table's blocks as a ``(2, tables *
        kv_heads, rows, ...)`` stack, keys then values, each in (table,
        head) order: each block is copied once, straight into its rows,
        and rows no block covers are zero."""
        stacked = {}
        for name, (dtype, vector) in self.fields.items():
            trailing = (self.head_dim,) if vector else ()
            stack = np.zeros((2, len(tables), self.n_kv_heads, rows)
                             + trailing, dtype=dtype)
            # (table, token, K or V, head, ...), the order blocks store
            by_token = stack.transpose((1, 3, 0, 2, 4)[:stack.ndim])
            for i, table in enumerate(tables):
                if table:
                    np.concatenate(
                        [self._storage[h][name] for h in table],
                        out=by_token[i, :len(table) * self.block_size])
            stacked[name] = stack.reshape(
                (2, len(tables) * self.n_kv_heads, rows) + trailing)
        return stacked

    # ------------------------------------------------------------------
    # block-table plumbing
    # ------------------------------------------------------------------
    def _check_seq(self, seq: int) -> None:
        if not 0 <= seq < self.batch:
            raise EngineError(
                f"sequence {seq} out of range (batch {self.batch})")

    def _new_block(self) -> int:
        handle = self.pool.alloc(self._block_nbytes)
        self._storage[handle] = empty_kv(self.dtype, (self.block_size,),
                                         self.n_kv_heads, self.head_dim)
        return handle

    def _release(self, handle: int) -> None:
        if self.pool.decref(handle):
            del self._storage[handle]

    def _writable_block(self, seq: int, block_idx: int) -> int:
        """The block at ``block_idx``, copied first when shared (CoW)."""
        handle = self.tables[seq][block_idx]
        if self.pool.refcount(handle) == 1:
            return handle
        fresh = self._new_block()
        for key, array in self._storage[handle].items():
            self._storage[fresh][key][:] = array
        self.tables[seq][block_idx] = fresh
        self._release(handle)
        self.pool.note_cow()
        return fresh

    # ------------------------------------------------------------------
    # LayerKVCache interface
    # ------------------------------------------------------------------
    def append(self, seq: int, k: np.ndarray, v: np.ndarray) -> None:
        """Append ``(tokens, kv_heads, head_dim)`` blocks for one sequence."""
        k, v, start = check_append(self, seq, k, v)
        n = k.shape[0]
        encoded = encode_kv(self.dtype, k, v)
        pos = start
        written = 0
        table = self.tables[seq]
        while written < n:
            block_idx, offset = divmod(pos, self.block_size)
            if block_idx == len(table):
                table.append(self._new_block())
                handle = table[block_idx]
            else:
                handle = self._writable_block(seq, block_idx)
            take = min(self.block_size - offset, n - written)
            block = self._storage[handle]
            for name, (k_part, v_part) in encoded.items():
                block[name][offset:offset + take, 0] = \
                    k_part[written:written + take]
                block[name][offset:offset + take, 1] = \
                    v_part[written:written + take]
            pos += take
            written += take
        self.lengths[seq] = start + n

    def view(self, seq: int) -> Tuple[np.ndarray, np.ndarray]:
        """The valid K/V prefix of one sequence (FP16)."""
        self._check_seq(seq)
        keys, values, (n,) = self.gather([seq])
        return keys.swapaxes(0, 1)[:n], values.swapaxes(0, 1)[:n]

    def gather(self, sequences: List[int]
               ) -> Tuple[np.ndarray, np.ndarray, List[int]]:
        """The listed sequences' cached K/V as one attention stack.

        As :meth:`~repro.llm.kv_cache.LayerKVCache.gather`: FP16 keys and
        values, each ``(len(sequences) * kv_heads, rows, head_dim)`` in
        (sequence, head) order, and each sequence's length.  ``rows``
        covers every listed sequence's blocks; rows past a sequence's
        length hold values attention ignores.
        """
        lengths = self.lengths[sequences].tolist()
        tables = [self.tables[seq] for seq in sequences]
        keys, values = decode_kv(self.dtype, self._stacked(
            tables, max(map(len, tables)) * self.block_size))
        return keys, values, lengths

    def fork(self, source: int, targets: List[int]) -> None:
        """Share one sequence's blocks into other slots (CoW, no copy)."""
        self._check_seq(source)
        for t in targets:
            if not 0 <= t < self.batch:
                raise EngineError(f"fork target {t} out of range")
            if t == source:
                continue
            self.free(t)
            for handle in self.tables[source]:
                self.pool.incref(handle)
            self.tables[t] = list(self.tables[source])
            self.lengths[t] = self.lengths[source]

    def truncate(self, seq: int, length: int) -> None:
        """Roll a sequence back to ``length`` tokens, freeing whole blocks."""
        self._check_seq(seq)
        if length < 0 or length > int(self.lengths[seq]):
            raise EngineError(
                f"cannot truncate sequence {seq} to {length} "
                f"(current {int(self.lengths[seq])})")
        keep = -(-length // self.block_size)
        table = self.tables[seq]
        for handle in table[keep:]:
            self._release(handle)
        self.tables[seq] = table[:keep]
        self.lengths[seq] = length

    def free(self, seq: int) -> None:
        """Release every block a sequence references."""
        self._check_seq(seq)
        for handle in self.tables[seq]:
            self._release(handle)
        self.tables[seq] = []
        self.lengths[seq] = 0

    # ------------------------------------------------------------------
    def nbytes_used(self) -> int:
        """Bytes of distinct live blocks referenced by this layer."""
        distinct = {h for table in self.tables for h in table}
        return len(distinct) * self._block_nbytes


@dataclass
class SequenceSnapshot:
    """A pinned reference to one sequence's block tables (all layers).

    Taking a snapshot increfs every referenced block, so the prompt
    prefix stays resident even after every candidate slot has been freed
    — the scheduler restores it into vacated slots to admit new
    candidates mid-generation.  Release with
    :meth:`PagedKVCache.release_snapshot`.
    """

    tables: List[List[int]] = field(default_factory=list)
    length: int = 0
    released: bool = False


class PagedKVCache:
    """Stack of per-layer paged caches over one shared :class:`BlockPool`.

    Drop-in for :class:`~repro.llm.kv_cache.KVCache`: the engine and the
    model only use ``__getitem__`` / ``sequence_length`` / ``fork`` /
    ``truncate``, all provided here with block-table semantics.
    """

    def __init__(self, n_layers: int, batch: int, capacity: int,
                 n_kv_heads: int, head_dim: int, dtype: str = "fp16",
                 block_size: int = DEFAULT_BLOCK_SIZE,
                 pool: Optional[BlockPool] = None, heap=None) -> None:
        if pool is None:
            if block_size <= 0:
                raise EngineError(
                    f"block size must be positive, got {block_size}")
            blocks_per_seq = -(-capacity // block_size)
            # budget one sequence beyond the batch: a pinned snapshot
            # (the scheduler's prompt anchor) holds at most one
            # sequence's worth of blocks on top of the live slots
            capacity_bytes = (n_layers * (batch + 1) * blocks_per_seq
                              * block_size
                              * kv_token_nbytes(dtype, n_kv_heads, head_dim))
            pool = BlockPool(capacity_bytes, block_size, heap=heap)
        self.pool = pool
        self.layers = [PagedLayerKVCache(batch, capacity, n_kv_heads,
                                         head_dim, pool, dtype)
                       for _ in range(n_layers)]
        self.batch = batch
        self.capacity = capacity
        self.dtype = dtype

    def __getitem__(self, layer: int) -> PagedLayerKVCache:
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
        """Release a retired candidate's blocks so a new one can admit."""
        for layer in self.layers:
            layer.free(seq)

    def nbytes(self) -> int:
        """Live pool bytes (contiguous caches report full preallocation)."""
        return self.pool.used_bytes

    # ------------------------------------------------------------------
    # snapshots (scheduler admission)
    # ------------------------------------------------------------------
    def snapshot_sequence(self, seq: int) -> SequenceSnapshot:
        """Pin a sequence's current blocks for later restoration."""
        tables = []
        for layer in self.layers:
            table = list(layer.tables[seq])
            for handle in table:
                self.pool.incref(handle)
            tables.append(table)
        return SequenceSnapshot(tables=tables,
                                length=self.sequence_length(seq))

    def restore_sequence(self, seq: int, snapshot: SequenceSnapshot) -> None:
        """Install a snapshot into a slot (shares blocks, CoW on write)."""
        if snapshot.released:
            raise EngineError("cannot restore a released snapshot")
        for layer, table in zip(self.layers, snapshot.tables):
            layer.free(seq)
            for handle in table:
                self.pool.incref(handle)
            layer.tables[seq] = list(table)
            layer.lengths[seq] = snapshot.length

    def release_snapshot(self, snapshot: SequenceSnapshot) -> None:
        """Drop the snapshot's pins; storage is reclaimed when unshared."""
        if snapshot.released:
            raise EngineError("snapshot already released")
        for layer, table in zip(self.layers, snapshot.tables):
            for handle in table:
                layer._release(handle)
        snapshot.released = True
