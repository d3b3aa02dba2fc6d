"""Performance models: latency, power, memory, comparison baselines.

* :mod:`repro.perf.latency` — analytic per-step decode/prefill costs for
  the full-size models (cross-validated against the functional kernels).
* :mod:`repro.perf.power` — utilization-weighted power/energy (Fig. 12).
* :mod:`repro.perf.memory` — dmabuf/CPU footprint and utilization (Fig. 16).
* :mod:`repro.perf.baselines` — Adreno OpenCL and QNN FP16 models (Fig. 13).
"""

from .. import _lazy

__all__, __getattr__, __dir__ = _lazy.attach(globals(), names={
    "baselines": ("AdrenoGPUModel", "CPUBaselineModel", "QNNReferenceModel"),
    "latency": ("PREFILL_EFFICIENCY", "DecodePerformanceModel",
                "attention_cost", "attention_phase_costs"),
    "memory": ("MemoryModel", "ResourceUsage"),
    "power": ("PowerBudget", "PowerModel", "PowerSample"),
    "prefill": ("PrefillConfig", "PrefillPipelineModel"),
})
