"""Reproduction of "Scaling LLM Test-Time Compute with Mobile NPU on
Smartphones" (EUROSYS '26).

Subpackages:

* :mod:`repro.npu` — functional + timing model of the Hexagon NPU
  (HVX vector unit, HMX matrix unit, TCM/DMA, devices, FastRPC).
* :mod:`repro.quant` — Q4_0/Q8_0 group quantization, the paper's
  hardware-aware tile-group scheme, super-group coalescing, codebooks.
* :mod:`repro.kernels` — mixed-precision GEMM, LUT softmax, FP16
  FlashAttention (Algorithm 1), misc transformer ops.
* :mod:`repro.llm` — model configs, GQA transformer, KV cache, engine.
* :mod:`repro.tts` — Best-of-N / Beam Search / Self-Consistency with
  ORM/PRM scorers over a calibrated synthetic task environment.
* :mod:`repro.perf` — latency, power, memory and baseline-system models.
* :mod:`repro.obs` — span tracing, metrics, Perfetto trace export.
* :mod:`repro.resilience` — deterministic fault injection and recovery
  (retry/backoff, KV rebuild, eviction, deadlines, thermal throttling).
* :mod:`repro.harness` — per-table/figure experiment regeneration.
* :mod:`repro.fleet` — fleet-scale serving: device populations, arrival
  traces, admission, health and hedging, capacity planning.
* :mod:`repro.testing` — differential oracles, seeded fuzzing and the
  golden fixtures.
* :mod:`repro.sim` — the discrete-event kernel (simulated clock and
  event loop) the scheduler, the fault injector and the fleet share.

Every package imports a public name on its first use
(:mod:`repro._lazy`), so ``import repro`` loads no subpackage and a run
loads only the modules it executes.

Quickstart::

    from repro.harness import run_experiment
    print(run_experiment("fig15").render())
"""

from . import _lazy

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = _lazy.attach(globals(), submodules=(
    "errors", "harness", "kernels", "llm", "npu", "obs", "perf", "quant",
    "resilience", "tts"))
__all__.append("__version__")
