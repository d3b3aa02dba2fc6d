"""SoC-level model: devices, CPU complex, and the FastRPC NPU session.

Covers the non-NPU pieces the paper's end-to-end system depends on:

* the three evaluated devices (Table 3) with their NPU generations;
* a mobile CPU model used for the operators the system keeps on the CPU —
  most importantly the ``lm_head`` vocabulary projection, whose CPU
  placement caps throughput scaling at large batch (Section 7.2.2);
* a FastRPC-style session: a shared-memory mailbox the NPU side polls,
  with the manual cache maintenance the paper describes (Section 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from ..errors import EngineError, NPUError, SessionAbortError
from .memory import RpcMemHeap, SharedBuffer
from .timing import GENERATIONS, NPUGenerationTiming

__all__ = [
    "CPUModel",
    "Device",
    "DEVICES",
    "DEFAULT_DEVICE",
    "get_device",
    "FastRPCSession",
]


@dataclass(frozen=True)
class CPUModel:
    """Simple throughput model of the mobile CPU cluster.

    The system limits itself to 4 cores (Fig. 16 shows utilized cores
    "consistently limited to 4"); per-core throughput and shared DRAM
    bandwidth are representative of Snapdragon big cores.
    """

    name: str
    max_cores: int
    gflops_per_core: float
    dram_read_gbps: float

    def gemm_seconds(self, m: int, k: int, n: int, cores: Optional[int] = None,
                     weight_bytes: Optional[int] = None) -> float:
        """Time for an ``m x k x n`` GEMM: max of compute and weight streaming.

        ``weight_bytes`` defaults to FP16 weights; decode-sized GEMMs
        (small ``m``) are memory-bound on weight traffic, which is why
        the CPU-resident lm_head becomes the bottleneck at batch 16.
        """
        if min(m, k, n) <= 0:
            raise EngineError(f"GEMM dims must be positive, got ({m}, {k}, {n})")
        used = self.max_cores if cores is None else min(cores, self.max_cores)
        flops = 2.0 * m * k * n
        compute = flops / (self.gflops_per_core * used * 1e9)
        bytes_streamed = (2 * k * n) if weight_bytes is None else weight_bytes
        memory = bytes_streamed / (self.dram_read_gbps * 1e9)
        return max(compute, memory)


@dataclass(frozen=True)
class Device:
    """One evaluation device from Table 3."""

    name: str
    soc: str
    npu: NPUGenerationTiming
    cpu: CPUModel

    def rpcmem_heap(self) -> RpcMemHeap:
        """A fresh rpcmem heap bounded by this device's NPU VA space."""
        return RpcMemHeap(self.npu.npu_va_space_bytes)

    @property
    def short_name(self) -> str:
        return {"Snapdragon 8 Gen 2": "8G2",
                "Snapdragon 8 Gen 3": "8G3",
                "Snapdragon 8 Elite": "8E"}.get(self.soc, self.soc)


_CPU_8G2 = CPUModel(name="Kryo (8 Gen 2)", max_cores=4, gflops_per_core=30.0,
                    dram_read_gbps=22.0)
_CPU_8G3 = CPUModel(name="Kryo (8 Gen 3)", max_cores=4, gflops_per_core=40.0,
                    dram_read_gbps=25.0)
_CPU_8E = CPUModel(name="Oryon (8 Elite)", max_cores=4, gflops_per_core=55.0,
                   dram_read_gbps=30.0)

DEVICES: Dict[str, Device] = {
    "oneplus_ace3": Device(name="OnePlus Ace3", soc="Snapdragon 8 Gen 2",
                           npu=GENERATIONS["V73"], cpu=_CPU_8G2),
    "oneplus_12": Device(name="OnePlus 12", soc="Snapdragon 8 Gen 3",
                         npu=GENERATIONS["V75"], cpu=_CPU_8G3),
    "oneplus_ace5_pro": Device(name="OnePlus Ace5 Pro", soc="Snapdragon 8 Elite",
                               npu=GENERATIONS["V79"], cpu=_CPU_8E),
}

#: Registry key of the device an engine, bench run or monitor uses when
#: none is named: the OnePlus 12, whose V75 NPU anchors the calibration.
DEFAULT_DEVICE = "oneplus_12"


def get_device(key: str) -> Device:
    """Look up a device by registry key or human-readable name."""
    if key in DEVICES:
        return DEVICES[key]
    for device in DEVICES.values():
        if key in (device.name, device.soc, device.npu.name, device.short_name):
            return device
    raise NPUError(f"unknown device {key!r}; known: {sorted(DEVICES)}")


class FastRPCSession:
    """Shared-memory command session between the CPU and the NPU side.

    Mirrors the paper's Section 6 design: backend initialization starts a
    remote session and sets up a shared-memory mailbox that an NPU thread
    polls for computation requests.  Because CPU->NPU coherence is
    one-way, the CPU must clean the cache after writing a request —
    :meth:`submit` does so explicitly, and tests can call
    :meth:`submit_without_clean` to observe the stale-read failure mode.

    Sessions can die: on real hardware the remote Hexagon process is
    torn down by driver restarts or subsystem resets, and every mapping
    it held is lost (§7.2's FastRPC plumbing).  :meth:`abort` models
    that — the session goes dead and submits raise
    :class:`~repro.errors.SessionAbortError` until :meth:`reopen`
    rebuilds the mailbox.  A
    :class:`~repro.resilience.FaultInjector` passed as
    ``fault_injector`` schedules aborts and DMA timeouts at the
    ``fastrpc.submit`` site; :class:`~repro.resilience.ResilientSession`
    wraps the retry/reopen loop around it.
    """

    _MAILBOX_BYTES = 4096

    def __init__(self, heap: RpcMemHeap, fault_injector=None) -> None:
        self.heap = heap
        self.fault_injector = fault_injector
        self.alive = True
        self.reopen_count = 0
        self.mailbox = heap.alloc(self._MAILBOX_BYTES, name="fastrpc-mailbox")
        self._handlers: Dict[int, Callable[[np.ndarray], np.ndarray]] = {}
        self._sequence = 0
        self.requests_served = 0

    # ------------------------------------------------------------------
    # session lifecycle
    # ------------------------------------------------------------------
    def abort(self) -> None:
        """Kill the session: NPU-side state is gone until :meth:`reopen`."""
        self.alive = False

    def reopen(self) -> None:
        """Re-establish a dead session.

        Tears down the old mailbox mapping (its VA range is returned to
        the heap) and maps a fresh one; registered op handlers are
        CPU-side state and survive.  The request sequence restarts, as
        it would with a fresh remote session.
        """
        if self.alive:
            raise EngineError("cannot reopen a live session; abort it first")
        self.heap.free(self.mailbox)
        self.reopen_count += 1
        self.mailbox = self.heap.alloc(
            self._MAILBOX_BYTES, name=f"fastrpc-mailbox#{self.reopen_count}")
        self._sequence = 0
        self.alive = True

    def _check_alive(self) -> None:
        if not self.alive:
            raise SessionAbortError(
                "FastRPC session is dead; reopen() before submitting")
        if self.fault_injector is not None:
            try:
                self.fault_injector.maybe_raise(
                    "fastrpc.submit",
                    detail=f"after {self.requests_served} requests")
            except SessionAbortError:
                self.abort()
                raise

    def register_op(self, opcode: int,
                    handler: Callable[[np.ndarray], np.ndarray]) -> None:
        if opcode in self._handlers:
            raise EngineError(f"opcode {opcode} already registered")
        self._handlers[opcode] = handler

    def _encode(self, opcode: int, payload: np.ndarray) -> np.ndarray:
        raw = np.ascontiguousarray(payload).view(np.uint8).ravel()
        header = np.array([self._sequence, opcode, raw.size], dtype=np.uint32)
        message = np.concatenate([header.view(np.uint8), raw])
        if message.size > self._MAILBOX_BYTES:
            raise EngineError(
                f"request of {message.size} bytes exceeds mailbox "
                f"({self._MAILBOX_BYTES} bytes)")
        return message

    def submit(self, opcode: int, payload: np.ndarray) -> np.ndarray:
        """Write a request, clean the cache, let the NPU poll and execute."""
        self._check_alive()
        self._sequence += 1
        self.mailbox.cpu_write(self._encode(opcode, payload))
        self.mailbox.clean_cache()
        return self._poll_and_execute()

    def submit_without_clean(self, opcode: int, payload: np.ndarray) -> np.ndarray:
        """Faulty submit path: skips cache maintenance (for failure tests)."""
        self._check_alive()
        self._sequence += 1
        self.mailbox.cpu_write(self._encode(opcode, payload))
        return self._poll_and_execute()

    def _poll_and_execute(self) -> np.ndarray:
        header = self.mailbox.npu_read(12, dtype=np.uint32)
        sequence, opcode, size = (int(header[0]), int(header[1]), int(header[2]))
        if sequence != self._sequence:
            raise EngineError(
                f"NPU observed stale mailbox (sequence {sequence}, expected "
                f"{self._sequence}); was the cache cleaned after the CPU write?")
        if opcode not in self._handlers:
            raise EngineError(f"NPU has no handler for opcode {opcode}")
        payload = self.mailbox.npu_read(size, offset=12)
        self.requests_served += 1
        return self._handlers[opcode](payload)
