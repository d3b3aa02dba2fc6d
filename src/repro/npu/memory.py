"""Memory subsystem of the Hexagon NPU model: TCM, DMA and shared buffers.

Section 3.1.2 of the paper describes the memory hierarchy this module
models:

* 8 MiB of TCM (Tightly Coupled Memory), a software-managed on-chip
  scratchpad.  Vector scatter/gather and *all* HMX instructions can only
  touch TCM, so kernels must explicitly stage data here;
* a shared 1 MiB L2 cache fed by ``l2fetch`` (we model capacity only);
* a DMA engine that moves large regular 1D/2D blocks between DDR and TCM
  at ~60 GB/s, but "cannot efficiently handle small or irregular memory
  accesses" (Section 3.3);
* ``rpcmem`` shared buffers between CPU and NPU with only *one-way*
  coherence: after the CPU writes, the NPU-side cache must be manually
  cleaned or the NPU observes stale data (Section 6).  The staleness is
  simulated for real so integration tests can catch missing cache
  maintenance, the actual bug class the paper warns about.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..errors import AddressSpaceError, DMAError, TCMAccessError, TCMAllocationError
from ..obs import context as obs_context

__all__ = [
    "TCM_CAPACITY_BYTES",
    "L2_CAPACITY_BYTES",
    "TCM_ALIGNMENT",
    "TCMRegion",
    "TCM",
    "DMATransfer",
    "DMAEngine",
    "SharedBuffer",
    "RpcMemHeap",
]

TCM_CAPACITY_BYTES = 8 * 1024 * 1024
L2_CAPACITY_BYTES = 1 * 1024 * 1024
TCM_ALIGNMENT = 128  # HVX vector width in bytes


@dataclass(frozen=True)
class TCMRegion:
    """A reserved region of TCM: ``[offset, offset + size)``."""

    offset: int
    size: int

    @property
    def end(self) -> int:
        return self.offset + self.size


class TCM:
    """Software-managed on-chip scratchpad with a first-fit allocator.

    The allocator enforces HVX alignment (128 bytes) because vector and
    HMX accesses require it.  Peak usage is tracked so experiments can
    confirm claims like the exp LUT consuming ~0.8% of TCM.
    """

    def __init__(self, capacity: int = TCM_CAPACITY_BYTES,
                 alignment: int = TCM_ALIGNMENT) -> None:
        if capacity <= 0:
            raise ValueError(f"TCM capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.alignment = alignment
        self._buffer = np.zeros(capacity, dtype=np.uint8)
        self._regions: List[TCMRegion] = []
        self._peak_usage = 0
        # optional repro.resilience.FaultInjector; fires alloc_fail
        # events at the "tcm.alloc" site when set
        self.fault_injector = None

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def _align(self, value: int) -> int:
        return -(-value // self.alignment) * self.alignment

    def alloc(self, size: int) -> TCMRegion:
        """Reserve ``size`` bytes; raises :class:`TCMAllocationError` when full."""
        if size <= 0:
            raise TCMAllocationError(f"allocation size must be positive, got {size}")
        aligned = self._align(size)
        if self.fault_injector is not None:
            self.fault_injector.maybe_raise(
                "tcm.alloc",
                detail=f"requested {size} bytes ({aligned} aligned), "
                       f"{self.free_bytes()} free of {self.capacity}, "
                       f"peak use {self._peak_usage}")
        cursor = 0
        for region in sorted(self._regions, key=lambda r: r.offset):
            if region.offset - cursor >= aligned:
                break
            cursor = self._align(region.end)
        if cursor + aligned > self.capacity:
            raise TCMAllocationError(
                f"TCM exhausted: need {aligned} bytes "
                f"({size} requested), {self.free_bytes()} free of "
                f"{self.capacity}, peak use {self._peak_usage}")
        region = TCMRegion(cursor, aligned)
        self._regions.append(region)
        self._peak_usage = max(self._peak_usage, self.used_bytes())
        obs = obs_context.current()
        if obs.tracer.enabled:
            obs.metrics.gauge("repro.npu.tcm_used_bytes").set(
                self.used_bytes())
            obs.metrics.gauge("repro.npu.tcm_peak_bytes").set(
                self._peak_usage)
        return region

    def free(self, region: TCMRegion) -> None:
        try:
            self._regions.remove(region)
        except ValueError:
            raise TCMAllocationError(f"region {region} was not allocated") from None

    def used_bytes(self) -> int:
        return sum(r.size for r in self._regions)

    def free_bytes(self) -> int:
        return self.capacity - self.used_bytes()

    @property
    def peak_usage(self) -> int:
        return self._peak_usage

    def reset(self) -> None:
        self._regions.clear()
        self._buffer[:] = 0

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def _check(self, region: TCMRegion, offset: int, nbytes: int) -> int:
        start = region.offset + offset
        if offset < 0 or start + nbytes > region.end:
            raise TCMAccessError(
                f"access [{offset}, {offset + nbytes}) outside region of {region.size} bytes")
        return start

    def write(self, region: TCMRegion, data: np.ndarray, offset: int = 0) -> None:
        raw = np.ascontiguousarray(data).view(np.uint8).ravel()
        start = self._check(region, offset, raw.size)
        self._buffer[start:start + raw.size] = raw

    def read(self, region: TCMRegion, nbytes: int, offset: int = 0,
             dtype: np.dtype = np.uint8) -> np.ndarray:
        start = self._check(region, offset, nbytes)
        raw = self._buffer[start:start + nbytes]
        return raw.view(dtype).copy()

    def view(self, region: TCMRegion) -> np.ndarray:
        """Raw byte view of a region (used by gather/scatter models)."""
        return self._buffer[region.offset:region.end]


@dataclass(frozen=True)
class DMATransfer:
    """A completed DMA descriptor, used by the timing model."""

    nbytes: int
    rows: int
    direction: str  # "ddr_to_tcm" or "tcm_to_ddr"

    @property
    def is_2d(self) -> bool:
        return self.rows > 1


class DMAEngine:
    """DMA engine moving regular 1D/2D blocks between DDR and TCM.

    Transfers are recorded as :class:`DMATransfer` descriptors; the
    timing model converts total bytes (plus a per-row setup charge for 2D
    descriptors) into seconds.  Small irregular transfers must instead go
    through the HVX core path — this split is what makes the paper's
    AoS-friendly layouts matter.
    """

    _DIRECTIONS = ("ddr_to_tcm", "tcm_to_ddr")

    def __init__(self) -> None:
        self.transfers: List[DMATransfer] = []

    def transfer_1d(self, nbytes: int, direction: str = "ddr_to_tcm") -> DMATransfer:
        return self._submit(nbytes, 1, direction)

    def transfer_2d(self, rows: int, row_bytes: int,
                    direction: str = "ddr_to_tcm") -> DMATransfer:
        if rows <= 0 or row_bytes <= 0:
            raise DMAError(f"2D transfer needs positive rows/row_bytes, got {rows}x{row_bytes}")
        return self._submit(rows * row_bytes, rows, direction)

    def _submit(self, nbytes: int, rows: int, direction: str) -> DMATransfer:
        if direction not in self._DIRECTIONS:
            raise DMAError(f"unknown DMA direction {direction!r}")
        if nbytes <= 0:
            raise DMAError(f"DMA transfer size must be positive, got {nbytes}")
        transfer = DMATransfer(nbytes=nbytes, rows=rows, direction=direction)
        self.transfers.append(transfer)
        obs = obs_context.current()
        if obs.tracer.enabled:
            obs.metrics.counter("repro.npu.dma_bytes").inc(nbytes)
        return transfer

    def total_bytes(self, direction: Optional[str] = None) -> int:
        return sum(t.nbytes for t in self.transfers
                   if direction is None or t.direction == direction)

    def reset(self) -> None:
        self.transfers.clear()


class SharedBuffer:
    """An rpcmem (dmabuf-backed) buffer shared between CPU and NPU.

    Coherence is one-way on Snapdragon SoCs: the NPU does not observe CPU
    writes until the corresponding cache lines are cleaned.  We simulate
    this faithfully — :meth:`npu_read` returns the *snapshot from the
    last* :meth:`clean_cache` call, so forgetting cache maintenance
    produces stale activations, exactly as on hardware.
    """

    def __init__(self, nbytes: int, name: str = "rpcmem") -> None:
        if nbytes <= 0:
            raise ValueError(f"buffer size must be positive, got {nbytes}")
        self.name = name
        self.nbytes = nbytes
        self._ddr = np.zeros(nbytes, dtype=np.uint8)
        self._npu_snapshot = np.zeros(nbytes, dtype=np.uint8)
        self.clean_count = 0

    def cpu_write(self, data: np.ndarray, offset: int = 0) -> None:
        raw = np.ascontiguousarray(data).view(np.uint8).ravel()
        if offset < 0 or offset + raw.size > self.nbytes:
            raise TCMAccessError(
                f"cpu_write of {raw.size} bytes at {offset} exceeds buffer {self.nbytes}")
        self._ddr[offset:offset + raw.size] = raw

    def clean_cache(self) -> None:
        """Flush CPU writes so the NPU observes them (manual maintenance)."""
        self._npu_snapshot[:] = self._ddr
        self.clean_count += 1

    def npu_read(self, nbytes: int, offset: int = 0,
                 dtype: np.dtype = np.uint8) -> np.ndarray:
        if offset < 0 or offset + nbytes > self.nbytes:
            raise TCMAccessError(
                f"npu_read of {nbytes} bytes at {offset} exceeds buffer {self.nbytes}")
        return self._npu_snapshot[offset:offset + nbytes].view(dtype).copy()

    def npu_write(self, data: np.ndarray, offset: int = 0) -> None:
        """NPU-side write; visible to the CPU immediately (one-way coherence)."""
        raw = np.ascontiguousarray(data).view(np.uint8).ravel()
        if offset < 0 or offset + raw.size > self.nbytes:
            raise TCMAccessError(
                f"npu_write of {raw.size} bytes at {offset} exceeds buffer {self.nbytes}")
        self._npu_snapshot[offset:offset + raw.size] = raw
        self._ddr[offset:offset + raw.size] = raw

    def cpu_read(self, nbytes: int, offset: int = 0,
                 dtype: np.dtype = np.uint8) -> np.ndarray:
        if offset < 0 or offset + nbytes > self.nbytes:
            raise TCMAccessError(
                f"cpu_read of {nbytes} bytes at {offset} exceeds buffer {self.nbytes}")
        return self._ddr[offset:offset + nbytes].view(dtype).copy()


class RpcMemHeap:
    """Allocator for rpcmem shared buffers bounded by the NPU VA space.

    Older NPU generations expose a 32-bit virtual address space to a
    session — and Snapdragon 8 Gen 2 effectively only 2 GiB — which
    prevents 3B-parameter models from running (Sections 7.2.1, 7.2.2).
    Every mapping is charged against the session's VA budget.  The
    paper's §8c mitigation — "employing multiple NPU sessions could help
    alleviate this issue" — is modelled by :class:`MultiSessionHeap`.
    """

    def __init__(self, va_space_bytes: int) -> None:
        if va_space_bytes <= 0:
            raise ValueError(f"VA space must be positive, got {va_space_bytes}")
        self.va_space_bytes = va_space_bytes
        self.buffers: List[SharedBuffer] = []
        self.peak_mapped_bytes = 0
        # optional repro.resilience.FaultInjector; fires alloc_fail
        # events at the "rpcmem.alloc" site when set
        self.fault_injector = None

    def mapped_bytes(self) -> int:
        return sum(b.nbytes for b in self.buffers)

    def free_va_bytes(self) -> int:
        """Remaining VA headroom — what bounds the KV block pool size."""
        return self.va_space_bytes - self.mapped_bytes()

    def alloc(self, nbytes: int, name: str = "rpcmem") -> SharedBuffer:
        if self.fault_injector is not None:
            self.fault_injector.maybe_raise(
                "rpcmem.alloc",
                detail=f"mapping {name}: requested {nbytes} bytes, "
                       f"{self.free_va_bytes()} VA free of "
                       f"{self.va_space_bytes}, peak mapped "
                       f"{self.peak_mapped_bytes}")
        if self.mapped_bytes() + nbytes > self.va_space_bytes:
            raise AddressSpaceError(
                f"mapping {name} ({nbytes / 2**20:.0f} MiB) exceeds NPU VA space: "
                f"requested {nbytes} bytes, "
                f"{self.mapped_bytes() / 2**20:.0f} MiB already mapped of "
                f"{self.va_space_bytes / 2**20:.0f} MiB "
                f"({self.free_va_bytes()} bytes free, peak mapped "
                f"{self.peak_mapped_bytes})")
        buffer = SharedBuffer(nbytes, name=name)
        self.buffers.append(buffer)
        self.peak_mapped_bytes = max(self.peak_mapped_bytes,
                                     self.mapped_bytes())
        obs = obs_context.current()
        if obs.tracer.enabled:
            obs.metrics.gauge("repro.npu.rpcmem_mapped_bytes").set(
                self.mapped_bytes())
        return buffer

    def free(self, buffer: SharedBuffer) -> None:
        try:
            self.buffers.remove(buffer)
        except ValueError:
            raise AddressSpaceError(f"buffer {buffer.name} is not mapped") from None


class MultiSessionHeap:
    """Sharded rpcmem mapping across several NPU sessions (§8c).

    Each FastRPC session has its own virtual address space; a model too
    large for one session can shard its weights (e.g. layer groups)
    across several.  ``alloc_sharded`` splits a mapping into per-session
    shards, each of which must fit the session with the most headroom;
    crossing sessions at runtime costs an extra synchronization, which
    the performance model charges per boundary.
    """

    def __init__(self, n_sessions: int, va_space_bytes: int) -> None:
        if n_sessions <= 0:
            raise ValueError(f"need at least one session, got {n_sessions}")
        self.sessions = [RpcMemHeap(va_space_bytes) for _ in range(n_sessions)]

    @property
    def n_sessions(self) -> int:
        return len(self.sessions)

    def total_mapped_bytes(self) -> int:
        return sum(s.mapped_bytes() for s in self.sessions)

    def alloc(self, nbytes: int, name: str = "rpcmem") -> SharedBuffer:
        """Map an unshardable buffer into the emptiest session."""
        target = min(self.sessions, key=lambda s: s.mapped_bytes())
        return target.alloc(nbytes, name=name)

    def free(self, buffer: SharedBuffer) -> None:
        """Unmap a buffer from whichever session holds it."""
        for session in self.sessions:
            if buffer in session.buffers:
                session.free(buffer)
                return
        raise AddressSpaceError(f"buffer {buffer.name} is not mapped")

    def alloc_sharded(self, nbytes: int, name: str = "rpcmem",
                      shards: Optional[int] = None) -> List[SharedBuffer]:
        """Split a large mapping evenly across sessions.

        Raises :class:`~repro.errors.AddressSpaceError` when even the
        sharded pieces do not fit — the model is too large for the
        device no matter how many sessions are opened.
        """
        n = self.n_sessions if shards is None else shards
        if not 1 <= n <= self.n_sessions:
            raise AddressSpaceError(
                f"cannot split into {n} shards across {self.n_sessions} sessions")
        shard_bytes = -(-nbytes // n)
        buffers = []
        for i in range(n):
            size = min(shard_bytes, nbytes - i * shard_bytes)
            if size <= 0:
                break
            buffers.append(self.sessions[i].alloc(size, name=f"{name}[{i}]"))
        return buffers
