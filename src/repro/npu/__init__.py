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

from .datatypes import QFloatMode
from .hmx import (
    TILE_DIM,
    HMXUnit,
    matrix_from_hmx_layout,
    matrix_to_hmx_layout,
    tile_permute,
    tile_unpermute,
)
from .hvx import VECTOR_BYTES, HVXContext, InstructionTrace
from .memory import DMAEngine, MultiSessionHeap, RpcMemHeap, SharedBuffer, TCM
from .power_mgmt import GOVERNORS, PowerGovernor, apply_governor
from .soc import DEVICES, CPUModel, Device, FastRPCSession, get_device
from .timing import GENERATIONS, V73, V75, V79, KernelCost, TimingModel

__all__ = [
    "QFloatMode",
    "TILE_DIM",
    "HMXUnit",
    "matrix_from_hmx_layout",
    "matrix_to_hmx_layout",
    "tile_permute",
    "tile_unpermute",
    "VECTOR_BYTES",
    "HVXContext",
    "InstructionTrace",
    "DMAEngine",
    "MultiSessionHeap",
    "RpcMemHeap",
    "SharedBuffer",
    "TCM",
    "GOVERNORS",
    "PowerGovernor",
    "apply_governor",
    "DEVICES",
    "CPUModel",
    "Device",
    "FastRPCSession",
    "get_device",
    "GENERATIONS",
    "V73",
    "V75",
    "V79",
    "KernelCost",
    "TimingModel",
]
