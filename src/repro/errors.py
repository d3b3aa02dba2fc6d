"""Exception hierarchy for the :mod:`repro` package.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can distinguish simulator faults from ordinary Python errors.  The
hierarchy mirrors the major subsystems: NPU hardware model, quantization,
kernels, LLM engine and the test-time-scaling layer.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class NPUError(ReproError):
    """Base class for errors raised by the NPU hardware model."""


class TCMAllocationError(NPUError):
    """Raised when a TCM allocation request cannot be satisfied."""


class TCMAccessError(NPUError):
    """Raised on out-of-bounds or misaligned TCM access."""


class AddressSpaceError(NPUError):
    """Raised when a mapping exceeds the NPU virtual address space.

    Models the 32-bit (and, on Snapdragon 8 Gen 2, effectively 2 GiB)
    virtual-address-space limitation discussed in Sections 7.2.1/7.2.2 of
    the paper.
    """


class RegisterError(NPUError):
    """Raised on invalid HVX register usage (bad index, wrong width)."""


class TileShapeError(NPUError):
    """Raised when a matrix does not decompose into whole HMX tiles."""


class DMAError(NPUError):
    """Raised on invalid DMA descriptor (bad shape, overlapping rows)."""


class QuantizationError(ReproError):
    """Base class for quantization subsystem errors."""


class GroupSizeError(QuantizationError):
    """Raised when a tensor cannot be split into whole quantization groups."""


class CodebookError(QuantizationError):
    """Raised for invalid 4-bit codebook definitions."""


class KernelError(ReproError):
    """Base class for kernel-level errors."""


class LUTError(KernelError):
    """Raised for invalid lookup-table construction or addressing."""


class ModelConfigError(ReproError):
    """Raised for invalid or unknown LLM model configurations."""


class EngineError(ReproError):
    """Raised by the inference engine (scheduling, KV-cache, placement)."""


class KVPoolExhausted(EngineError):
    """Raised when the paged KV block pool cannot satisfy an allocation.

    Real exhaustion happens when the rpcmem budget backing the pool is
    undersized for the live batch (the Section 7.2.1 VA-space wall seen
    from the KV cache's side); the fault injector raises it to model
    transient memory pressure.  The continuous-batching scheduler
    recovers by evicting the lowest-value candidate and retrying.
    """


class FaultError(ReproError):
    """Base class for injected faults and resilience-layer failures.

    The :mod:`repro.resilience` fault injector models the deployment
    hazards of Section 7.2 — FastRPC session plumbing, rpcmem/TCM
    memory pressure, DVFS/thermal behaviour — as deterministic,
    seed-scheduled events so recovery paths can be tested exactly.
    """


class TransientFaultError(FaultError):
    """A fault expected to clear on retry (backoff, no state rebuild)."""


class DMATimeoutError(TransientFaultError, DMAError):
    """An injected DMA descriptor timeout.

    Models a stalled DDR<->TCM transfer under memory-subsystem
    contention (the DMA engine of Section 3.3); transient — the
    retry policy re-submits the step after capped backoff.
    """


class SessionAbortError(FaultError):
    """The FastRPC session to the NPU died mid-operation.

    Models the Section 6 failure mode where the remote Hexagon session
    is torn down (driver restart, SSR, process kill): all NPU-side
    mappings and state are lost.  Recovery requires
    :meth:`~repro.npu.soc.FastRPCSession.reopen` and a rebuild of
    NPU-resident state from host-side snapshots.
    """


class RetryExhaustedError(FaultError):
    """A retried operation kept faulting past the policy's retry cap."""


class FleetError(ReproError):
    """Raised by the discrete-event fleet layer (:mod:`repro.fleet`).

    Covers malformed traces and populations, scheduling an event in the
    simulated past, and capacity planning that cannot meet its latency
    target within the device cap.
    """


class ScalingError(ReproError):
    """Raised by the test-time-scaling layer (bad budget, empty beams)."""


class HarnessError(ReproError):
    """Raised by the experiment harness (unknown experiment id, etc.)."""


class ObservabilityError(ReproError):
    """Raised by the tracing/metrics/export subsystem."""


class TestingError(ReproError):
    """Raised by the conformance subsystem (:mod:`repro.testing`).

    (``__test__ = False`` keeps pytest from trying to collect the
    class because of the ``Test`` name prefix.)

    Covers unknown oracle names, malformed repro strings, invalid
    fuzz configurations and golden-fixture bookkeeping errors — the
    mismatches the oracles *detect* are reported as structured
    records, not exceptions.
    """

    __test__ = False
