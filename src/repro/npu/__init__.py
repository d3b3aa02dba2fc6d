"""Hexagon NPU model: functional HVX/HMX simulation plus a timing model.

Public surface:

* :mod:`repro.npu.datatypes` — FP16/FP32 bit manipulation, qfloat.
* :mod:`repro.npu.hvx` — vector unit (``vlut16``, ``vgather``, shuffles,
  FP16 arithmetic) with instruction tracing.
* :mod:`repro.npu.hmx` — matrix unit: 32x32 FP16 tiles, Fig. 4 layout.
* :mod:`repro.npu.memory` — TCM, DMA, rpcmem shared buffers.
* :mod:`repro.npu.timing` — calibrated per-generation cost model.
* :mod:`repro.npu.soc` — device registry (Table 3), CPU model, FastRPC.
"""

from .. import _lazy

__all__, __getattr__, __dir__ = _lazy.attach(globals(), names={
    "datatypes": ("QFloatMode",),
    "hmx": ("TILE_DIM", "HMXUnit", "matrix_from_hmx_layout",
            "matrix_to_hmx_layout", "tile_permute", "tile_unpermute"),
    "hvx": ("VECTOR_BYTES", "HVXContext", "InstructionTrace"),
    "memory": ("DMAEngine", "MultiSessionHeap", "RpcMemHeap", "SharedBuffer",
               "TCM"),
    "power_mgmt": ("GOVERNORS", "PowerGovernor", "apply_governor"),
    "soc": ("DEVICES", "CPUModel", "Device", "FastRPCSession", "get_device"),
    "timing": ("GENERATIONS", "V73", "V75", "V79", "KernelCost",
               "TimingModel"),
})
