"""Operator placement: NPU kernels with seamless CPU fallback (§6).

The paper's llama.cpp backend "schedule[s] the operators that have not
been implemented on the NPU to run on the CPU, achieving seamless
integration with upper-layer applications".  This module models that
scheduler:

* an :class:`OpCatalog` records which operator types have NPU kernels;
* a :class:`PlacementPolicy` assigns each operator instance to a device,
  with overrides (the paper pins ``lm_head`` to the CPU because of the
  32-bit VA space — §7.2.2);
* a :class:`PlacementPlan` walks a model's per-layer operator list,
  assigns devices, and charges the cross-device transfers a fallback
  introduces (activations crossing via rpcmem cost a cache
  clean/invalidate pair plus the copy bandwidth).

The performance consequence of an unimplemented NPU op is therefore
visible end to end: the op's own CPU time plus two boundary crossings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import EngineError
from ..npu.soc import Device
from .config import ModelConfig

__all__ = [
    "OP_TYPES",
    "OpInstance",
    "OpCatalog",
    "PlacementPolicy",
    "PlacementPlan",
    "build_decode_ops",
    "crossing_for_bytes",
]

OP_TYPES = ("gemm", "attention", "rms_norm", "rope", "swiglu",
            "residual_add", "embedding", "lm_head", "softcap")

# rpcmem boundary crossing: explicit cache maintenance + FastRPC signal
_CROSSING_OVERHEAD_S = 30e-6


def crossing_for_bytes(device: Device, nbytes: int) -> float:
    """Cost of moving ``nbytes`` across the CPU/NPU rpcmem boundary.

    One cache clean/invalidate pair plus the copy at DRAM bandwidth —
    the unit charge behind both per-op fallback crossings and the
    scheduler's mid-request stage migrations.
    """
    if nbytes < 0:
        raise EngineError(f"crossing bytes must be >= 0, got {nbytes}")
    return _CROSSING_OVERHEAD_S + nbytes / (device.cpu.dram_read_gbps * 1e9)


@dataclass(frozen=True)
class OpInstance:
    """One operator occurrence in the execution graph."""

    name: str
    op_type: str
    flops: float
    activation_bytes: int

    def __post_init__(self) -> None:
        if self.op_type not in OP_TYPES:
            raise EngineError(f"unknown op type {self.op_type!r}")


class OpCatalog:
    """Which operator types have NPU kernel implementations."""

    # the paper's system: projections, attention and misc ops on the NPU
    DEFAULT_NPU_OPS = frozenset({"gemm", "attention", "rms_norm", "rope",
                                 "swiglu", "residual_add"})

    def __init__(self, npu_ops: Optional[frozenset] = None) -> None:
        ops = self.DEFAULT_NPU_OPS if npu_ops is None else frozenset(npu_ops)
        unknown = ops - set(OP_TYPES)
        if unknown:
            raise EngineError(f"catalog references unknown op types {sorted(unknown)}")
        self.npu_ops = ops

    def has_npu_kernel(self, op_type: str) -> bool:
        if op_type not in OP_TYPES:
            raise EngineError(f"unknown op type {op_type!r}")
        return op_type in self.npu_ops

    def without(self, *op_types: str) -> "OpCatalog":
        """A catalog with some NPU kernels removed (fallback studies)."""
        return OpCatalog(self.npu_ops - set(op_types))


@dataclass
class PlacementPolicy:
    """Device assignment rules.

    ``pinned`` forces specific op *names* to a device regardless of
    kernel availability — the mechanism behind the CPU-resident lm_head.
    """

    catalog: OpCatalog = field(default_factory=OpCatalog)
    pinned: Dict[str, str] = field(default_factory=dict)

    def device_for(self, op: OpInstance) -> str:
        pinned = self.pinned.get(op.name)
        if pinned is not None:
            if pinned not in ("cpu", "npu"):
                raise EngineError(f"unknown device {pinned!r} for {op.name}")
            if pinned == "npu" and not self.catalog.has_npu_kernel(op.op_type):
                raise EngineError(
                    f"{op.name} pinned to the NPU but {op.op_type!r} has no "
                    "NPU kernel")
            return pinned
        return "npu" if self.catalog.has_npu_kernel(op.op_type) else "cpu"


@dataclass
class PlacedOp:
    op: OpInstance
    device: str
    crossing_before: bool  # activations move between devices first


@dataclass
class PlacementPlan:
    """A fully placed operator sequence with transfer accounting."""

    ops: List[PlacedOp]

    def boundaries(self) -> List[PlacedOp]:
        """The ops whose *device sequence* changes relative to the
        previous op (activations start CPU-side).

        This is the authoritative boundary walk: it derives crossings
        from the device assignments alone, so a run of consecutive
        same-device ops contributes at most one clean/invalidate pair at
        its head — even if stale per-op ``crossing_before`` flags on a
        hand-assembled plan claim otherwise (the double-count bug: one
        NPU op followed by two CPU ops each flagged as crossing).
        """
        out: List[PlacedOp] = []
        previous_device = "cpu"  # tokens/embeddings start on the CPU side
        for placed in self.ops:
            if placed.device != previous_device:
                out.append(placed)
            previous_device = placed.device
        return out

    @property
    def n_crossings(self) -> int:
        return len(self.boundaries())

    def device_of(self, name: str) -> str:
        for placed in self.ops:
            if placed.op.name == name:
                return placed.device
        raise EngineError(f"no op named {name!r} in the plan")

    def crossing_seconds(self, device: Device) -> float:
        """Time spent moving activations across the CPU/NPU boundary."""
        return sum(crossing_for_bytes(device, p.op.activation_bytes)
                   for p in self.boundaries())

    def cpu_op_seconds(self, device: Device) -> float:
        """Compute time of the CPU-resident ops (flops-bound estimate)."""
        rate = device.cpu.gflops_per_core * device.cpu.max_cores * 1e9
        return sum(p.op.flops / rate for p in self.ops if p.device == "cpu")

    @classmethod
    def build(cls, ops: List[OpInstance],
              policy: PlacementPolicy) -> "PlacementPlan":
        placed: List[PlacedOp] = []
        previous_device = "cpu"  # tokens/embeddings start on the CPU side
        for op in ops:
            device = policy.device_for(op)
            placed.append(PlacedOp(op=op, device=device,
                                   crossing_before=device != previous_device))
            previous_device = device
        return cls(ops=placed)


def build_decode_ops(config: ModelConfig, batch: int) -> List[OpInstance]:
    """The per-step decode operator sequence of one model.

    One entry per operator per layer plus embedding and lm_head, with
    FLOP and activation-size estimates used for fallback costing.
    """
    if batch <= 0:
        raise EngineError(f"batch must be positive, got {batch}")
    act = 2 * batch * config.hidden_dim  # FP16 hidden activations
    ops: List[OpInstance] = [
        OpInstance("embedding", "embedding", flops=0.0, activation_bytes=act),
    ]
    shapes = config.projection_shapes()
    for layer in range(config.n_layers):
        prefix = f"layer{layer}"
        ops.append(OpInstance(f"{prefix}.norm_attn", "rms_norm",
                              flops=4.0 * batch * config.hidden_dim,
                              activation_bytes=act))
        for name in ("wq", "wk", "wv"):
            k, n = shapes[name]
            ops.append(OpInstance(f"{prefix}.{name}", "gemm",
                                  flops=2.0 * batch * k * n,
                                  activation_bytes=act))
        ops.append(OpInstance(f"{prefix}.rope", "rope",
                              flops=6.0 * batch * config.q_dim,
                              activation_bytes=2 * batch * config.q_dim))
        ops.append(OpInstance(f"{prefix}.attention", "attention",
                              flops=4.0 * batch * config.q_dim * 1024,
                              activation_bytes=2 * batch * config.q_dim))
        k, n = shapes["wo"]
        ops.append(OpInstance(f"{prefix}.wo", "gemm",
                              flops=2.0 * batch * k * n,
                              activation_bytes=act))
        ops.append(OpInstance(f"{prefix}.residual1", "residual_add",
                              flops=1.0 * batch * config.hidden_dim,
                              activation_bytes=act))
        ops.append(OpInstance(f"{prefix}.norm_ffn", "rms_norm",
                              flops=4.0 * batch * config.hidden_dim,
                              activation_bytes=act))
        for name in ("w_gate", "w_up", "w_down"):
            k, n = shapes[name]
            ops.append(OpInstance(f"{prefix}.{name}", "gemm",
                                  flops=2.0 * batch * k * n,
                                  activation_bytes=act))
        ops.append(OpInstance(f"{prefix}.swiglu", "swiglu",
                              flops=8.0 * batch * config.intermediate_dim,
                              activation_bytes=2 * batch
                              * config.intermediate_dim))
        ops.append(OpInstance(f"{prefix}.residual2", "residual_add",
                              flops=1.0 * batch * config.hidden_dim,
                              activation_bytes=act))
    ops.append(OpInstance("final_norm", "rms_norm",
                          flops=4.0 * batch * config.hidden_dim,
                          activation_bytes=act))
    ops.append(OpInstance("lm_head", "lm_head",
                          flops=2.0 * batch * config.hidden_dim
                          * config.vocab_size,
                          activation_bytes=act))
    return ops
