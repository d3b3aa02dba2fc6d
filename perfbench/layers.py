"""Per-layer host time for the traced run, measured from outside the program.

The recorder wraps public functions of each simulator layer (kernels, npu,
quant, llm, fleet, sim, obs) for the duration of the traced phase and puts
the originals back afterwards; nothing under ``src/`` knows it is being
measured.  Every wrapped call becomes one span (name, start, duration,
parent span) kept in memory and written out once the run ends.  A layer's
``self_s`` is its spans' time minus the time of wrapped callees.

Deterministic counts (tile MACs, bytes, events fired, cache hits, ...)
come from the values the wrapped calls return and from public state, not
from timers, so they repeat exactly for a given seed.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Every per-layer metric the traced run prints: (name, unit, better).
#: ``BENCHMARK.json``'s ``per_layer`` list is this table.
PER_LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("kernels.attention.calls", "count", "lower"),
    ("kernels.attention.host_s", "s", "lower"),
    ("kernels.attention.sim_s", "s", "lower"),
    ("kernels.gemm.calls", "count", "lower"),
    ("kernels.gemm.self_s", "s", "lower"),
    ("kernels.gemm.sim_s", "s", "lower"),
    ("kernels.gemm.tile_macs", "count", "lower"),
    ("kernels.gemm.bytes", "B", "lower"),
    ("kernels.dequant.host_s", "s", "lower"),
    ("npu.hmx.gemm_calls", "count", "lower"),
    ("npu.hmx.host_s", "s", "lower"),
    ("npu.pad_to_tiles.calls", "count", "lower"),
    ("npu.pad_to_tiles.host_s", "s", "lower"),
    ("quant.prepare_weight.calls", "count", "lower"),
    ("quant.prepare_weight.host_s", "s", "lower"),
    ("llm.model.forward_calls", "count", "lower"),
    ("llm.model.self_s", "s", "lower"),
    ("llm.engine.decode_steps", "count", "lower"),
    ("llm.engine.decode_step_ms_p50", "ms", "lower"),
    ("llm.engine.decode_step_ms_p90", "ms", "lower"),
    ("llm.engine.prefill_chunks", "count", "lower"),
    ("llm.engine.prefill_chunk_ms_p50", "ms", "lower"),
    ("llm.scheduler.self_s", "s", "lower"),
    ("llm.scheduler.mean_live_batch", "count", "higher"),
    ("llm.kv.host_s", "s", "lower"),
    ("llm.kv.peak_bytes", "B", "lower"),
    ("llm.sampler.host_s", "s", "lower"),
    ("fleet.trace.host_s", "s", "lower"),
    ("fleet.population.host_s", "s", "lower"),
    ("fleet.run.self_s", "s", "lower"),
    ("fleet.serve.calls", "count", "lower"),
    ("fleet.serve.host_s", "s", "lower"),
    ("fleet.price_cache.hit_ratio", "ratio", "higher"),
    ("fleet.shed", "count", "lower"),
    ("fleet.hedges", "count", "lower"),
    ("fleet.failovers", "count", "lower"),
    ("sim.events_fired", "count", "lower"),
    ("sim.events_cancelled", "count", "lower"),
    ("sim.loop.self_s", "s", "lower"),
    ("obs.timeline.events", "count", "lower"),
    ("obs.explain.host_s", "s", "lower"),
    ("obs.validate.host_s", "s", "lower"),
    ("obs.blame.host_s", "s", "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
    ("fail_ratio", "ratio", "lower"),
)


class Recorder:
    """Wraps layer entry points, records spans, derives per-layer metrics."""

    def __init__(self) -> None:
        self.span_names: List[str] = []
        self.span_starts: List[float] = []
        self.span_seconds: List[float] = []
        self.span_parents: List[int] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.host_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.returned: Dict[str, List[Any]] = defaultdict(list)
        self._stack: List[List[float]] = []  # [span index, child seconds]
        self._active: Dict[str, int] = defaultdict(int)
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def wrap(self, owner: Any, attr: str, name: str,
             keep: Optional[Callable[[tuple, Any], Any]] = None) -> None:
        """Replace ``owner.attr`` with a timing wrapper recording ``name``.

        ``owner`` is a class (the wrapper becomes a method) or a module
        (covering one import site of a function).  ``keep(args, result)``
        picks what to retain from each call's return value.
        """
        original = vars(owner)[attr]
        stack, active = self._stack, self._active
        names, starts, seconds = (self.span_names, self.span_starts,
                                  self.span_seconds)
        parents = self.span_parents
        calls, host_s, self_s = self.calls, self.host_s, self.self_s
        kept = self.returned[name]

        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(int(stack[-1][0]) if stack else -1)
            frame = [index, 0.0]
            stack.append(frame)
            active[name] += 1
            start = time.perf_counter()
            starts.append(start)
            seconds.append(0.0)
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                active[name] -= 1
                seconds[index] = elapsed
                if stack:
                    stack[-1][1] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - frame[1]
                if not active[name]:  # nested calls of one layer count once
                    host_s[name] += elapsed
            if keep is not None:
                kept.append(keep(args, result))
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics need."""
        import repro.fleet
        from repro import sim
        from repro.fleet import devices, report
        from repro.kernels import dequant, flash_attention, gemm
        from repro.llm import block_pool, engine, kv_cache, model, sampler
        from repro.llm import scheduler
        from repro.npu import hmx
        from repro.obs import blame, critical_path
        from repro.quant import tile_quant

        second = lambda args, result: result[1]  # noqa: E731
        self.wrap(flash_attention.FlashAttention, "__call__",
                  "kernels.attention", keep=second)
        self.wrap(gemm.MixedPrecisionGemm, "__call__", "kernels.gemm",
                  keep=second)
        # functions imported by name are wrapped at each import site
        self.wrap(gemm, "dequantize_stream", "kernels.dequant")
        self.wrap(dequant, "dequantize_stream", "kernels.dequant")
        self.wrap(hmx.HMXUnit, "gemm", "npu.hmx")
        for module in (hmx, flash_attention, tile_quant):
            self.wrap(module, "pad_to_tiles", "npu.pad_to_tiles")
        self.wrap(gemm.MixedPrecisionGemm, "prepare_weight",
                  "quant.prepare_weight")

        self.wrap(model.NPUTransformer, "forward", "llm.model")
        self.wrap(engine.InferenceEngine, "decode_step",
                  "llm.engine.decode_step")
        self.wrap(engine.InferenceEngine, "prefill_chunk",
                  "llm.engine.prefill_chunk")
        self.wrap(engine.InferenceEngine, "prefill", "llm.engine.prefill")
        self.wrap(scheduler.ContinuousBatchingScheduler, "generate",
                  "llm.scheduler",
                  keep=lambda args, result: (result.live_batch_per_step,
                                             result.peak_kv_bytes))
        for cls, attrs in (
                (kv_cache.LayerKVCache, ("append", "view", "fork", "free")),
                (block_pool.PagedLayerKVCache,
                 ("append", "view", "fork", "free")),
                (block_pool.PagedKVCache,
                 ("snapshot_sequence", "restore_sequence", "free_sequence",
                  "release_snapshot"))):
            for attr in attrs:
                self.wrap(cls, attr, "llm.kv")
        self.wrap(sampler.Sampler, "sample", "llm.sampler")
        self.wrap(sampler.Sampler, "sample_batch", "llm.sampler")

        self.wrap(report, "generate_trace", "fleet.trace")
        self.wrap(report, "build_population", "fleet.population")
        self.wrap(repro.fleet, "run_fleet", "fleet.run",
                  keep=lambda args, result: result)
        self.wrap(devices.FleetDevice, "serve", "fleet.serve")
        self.wrap(sim.EventLoop, "run", "sim.loop",
                  keep=lambda args, result: args[0])

        self.wrap(blame, "explain_section", "obs.explain",
                  keep=lambda args, result: result["n_events"])
        self.wrap(blame, "validate_lifecycle", "obs.validate")
        self.wrap(critical_path, "validate_lifecycle", "obs.validate")
        self.wrap(blame, "aggregate_blame", "obs.blame")

    # ------------------------------------------------------------------
    def _durations_ms(self, name: str) -> List[float]:
        return sorted(1e3 * s for n, s in zip(self.span_names,
                                              self.span_seconds)
                      if n == name)

    def metrics(self, timing, price_cache_delta: Tuple[int, int]
                ) -> Dict[str, float]:
        """Per-layer values of the traced phase (no ``bench.*`` entries).

        ``timing`` converts kernel costs to simulated seconds;
        ``price_cache_delta`` is the (hits, misses) the fleet pricing
        caches gained during the phase.
        """
        c, host, own, kept = self.calls, self.host_s, self.self_s, \
            self.returned
        attention = kept["kernels.attention"]
        gemms = kept["kernels.gemm"]
        generations = kept["llm.scheduler"]
        live = [n for steps, _ in generations for n in steps]
        reports = kept["fleet.run"]
        loops = kept["sim.loop"]
        hits, misses = price_cache_delta

        def chaos(key: str) -> int:
            return sum(r.chaos["recovery"][key] for r in reports
                       if r.chaos is not None)

        return {
            "kernels.attention.calls": c["kernels.attention"],
            "kernels.attention.host_s": host["kernels.attention"],
            "kernels.attention.sim_s": sum(
                timing.seconds(b.total()) for b in attention),
            "kernels.gemm.calls": c["kernels.gemm"],
            "kernels.gemm.self_s": own["kernels.gemm"],
            "kernels.gemm.sim_s": sum(timing.seconds(k) for k in gemms),
            "kernels.gemm.tile_macs": sum(k.hmx_tile_macs for k in gemms),
            "kernels.gemm.bytes": sum(k.dma_bytes for k in gemms),
            "kernels.dequant.host_s": host["kernels.dequant"],
            "npu.hmx.gemm_calls": c["npu.hmx"],
            "npu.hmx.host_s": host["npu.hmx"],
            "npu.pad_to_tiles.calls": c["npu.pad_to_tiles"],
            "npu.pad_to_tiles.host_s": host["npu.pad_to_tiles"],
            "quant.prepare_weight.calls": c["quant.prepare_weight"],
            "quant.prepare_weight.host_s": host["quant.prepare_weight"],
            "llm.model.forward_calls": c["llm.model"],
            "llm.model.self_s": own["llm.model"],
            "llm.engine.decode_steps": c["llm.engine.decode_step"],
            "llm.engine.decode_step_ms_p50": _percentile(
                self._durations_ms("llm.engine.decode_step"), 0.50),
            "llm.engine.decode_step_ms_p90": _percentile(
                self._durations_ms("llm.engine.decode_step"), 0.90),
            "llm.engine.prefill_chunks": c["llm.engine.prefill_chunk"],
            "llm.engine.prefill_chunk_ms_p50": _percentile(
                self._durations_ms("llm.engine.prefill_chunk"), 0.50),
            "llm.scheduler.self_s": own["llm.scheduler"],
            "llm.scheduler.mean_live_batch": (sum(live) / len(live)
                                              if live else 0.0),
            "llm.kv.host_s": host["llm.kv"],
            "llm.kv.peak_bytes": max((peak for _, peak in generations),
                                     default=0),
            "llm.sampler.host_s": host["llm.sampler"],
            "fleet.trace.host_s": host["fleet.trace"],
            "fleet.population.host_s": host["fleet.population"],
            "fleet.run.self_s": own["fleet.run"],
            "fleet.serve.calls": c["fleet.serve"],
            "fleet.serve.host_s": host["fleet.serve"],
            "fleet.price_cache.hit_ratio": (hits / (hits + misses)
                                            if hits + misses else 0.0),
            "fleet.shed": sum(r.requests["shed"] for r in reports),
            "fleet.hedges": chaos("hedges"),
            "fleet.failovers": chaos("failovers"),
            "sim.events_fired": sum(loop.n_fired for loop in loops),
            "sim.events_cancelled": sum(loop.n_cancelled for loop in loops),
            "sim.loop.self_s": own["sim.loop"],
            "obs.timeline.events": sum(kept["obs.explain"]),
            "obs.explain.host_s": host["obs.explain"],
            "obs.validate.host_s": host["obs.validate"],
            "obs.blame.host_s": host["obs.blame"],
        }

    def write_spans(self, path: Path, **header: Any) -> None:
        """Write every recorded span as flat columns (one JSON file)."""
        table = sorted(set(self.span_names))
        ids = {name: i for i, name in enumerate(table)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({**header, "names": table,
                       "name": [ids[n] for n in self.span_names],
                       "start_s": self.span_starts,
                       "seconds": self.span_seconds,
                       "parent": self.span_parents}, handle)


def price_cache_counts() -> Tuple[int, int]:
    """(hits, misses) summed over the fleet pricing ``lru_cache``s."""
    hits = misses = 0
    for cached in fleet_price_caches():
        info = cached.cache_info()
        hits += info.hits
        misses += info.misses
    return hits, misses


def fleet_price_caches() -> List[Any]:
    """The memoized service-pricing functions of the fleet device model."""
    from repro.fleet import devices

    return [value for value in vars(devices).values()
            if callable(getattr(value, "cache_info", None))]


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]
