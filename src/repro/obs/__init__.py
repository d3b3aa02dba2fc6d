"""Observability: span tracing, metrics, and Perfetto trace export.

* :mod:`repro.obs.trace` — nested spans with a no-op fast path, the
  instrumentation hooks threaded through engine/model/kernel hot paths.
* :mod:`repro.obs.metrics` — counters, gauges, fixed-bucket histograms
  under the ``repro.<layer>.<name>`` naming convention.
* :mod:`repro.obs.export` — ``chrome://tracing`` JSON (opens in
  Perfetto) with HMX/HVX/DMA/CPU engine lanes plus per-request timeline
  lanes, and a flamegraph-style text report.
* :mod:`repro.obs.timeline` — the structured event log: typed causal
  events (admit/wave_assign/decode_step/fault/retry/evict/...) keyed by
  request id.
* :mod:`repro.obs.stream` — windowed metric streams folding events into
  fixed sim-time windows of counters/gauges/histograms.
* :mod:`repro.obs.anomaly` — deterministic online detectors (EWMA,
  median/MAD z-score, rate-of-change) over stream series.
* :mod:`repro.obs.energy` — simulated-joule attribution per step,
  phase and request, from the :mod:`repro.perf.power` budget.
* :mod:`repro.obs.monitor` — the ``repro monitor`` replay + report
  (imported lazily by the CLI; not re-exported here).
* :mod:`repro.obs.critical_path` — per-request critical-path
  reconstruction and bitwise latency/energy blame attribution from a
  recorded timeline, plus the lifecycle completeness validator.
* :mod:`repro.obs.blame` — fleet-wide blame aggregation (percentile
  cohorts, per-device/per-tenant splits, exemplar waterfalls) and the
  ``repro explain`` report (schema ``repro.explain/v1``).

Tracing is disabled by default; enable it for a run with::

    from repro import obs
    tracer = obs.Tracer()
    obs.set_tracer(tracer)
    ...                                  # run the instrumented workload
    obs.write_chrome_trace("trace.json", tracer, timing=TimingModel(V75))

or use the ``python -m repro profile`` CLI, which wires this up around a
generation or TTS sweep.
"""

from .bench import (
    BenchError,
    BenchRecord,
    BenchScenario,
    BenchSnapshot,
    ComparisonReport,
    SCENARIOS,
    Threshold,
    bench_scenario,
    compare_snapshots,
    run_scenario,
    run_suite,
)
from .export import (
    ENGINE_LANES,
    chrome_trace,
    engine_utilization,
    report_data,
    text_report,
    write_chrome_trace,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    get_metrics,
    histogram,
    set_metrics,
)
from .anomaly import (
    AnomalyEvent,
    EwmaDetector,
    MadDetector,
    RateOfChangeDetector,
    default_detectors,
    detect_series,
)
from .blame import (
    EXPLAIN_SCHEMA,
    ExplainReport,
    aggregate_blame,
    explain_section,
    render_waterfall,
    run_explain,
)
from .critical_path import (
    FLEET_PHASES,
    PhaseSlice,
    RequestExplanation,
    SCHEDULER_PHASES,
    assert_lifecycle,
    explain_fleet_log,
    explain_log,
    explain_scheduler_log,
    quantize_ns,
    validate_lifecycle,
)
from .energy import (
    EnergyAccountant,
    EnergyBreakdown,
    EnergyModel,
    ZERO_ENERGY,
    quantize_nj,
    tokens_per_joule,
)
from .slo import SLOTracker, hdr_buckets, percentile_cutoff, slo_summary
from .stream import (
    DEFAULT_WINDOW_SECONDS,
    MetricStream,
    MetricWindow,
    stream_from_log,
)
from .timeline import (
    EVENT_KINDS,
    EventLog,
    TimelineEvent,
    emit,
    get_event_log,
    set_event_log,
    timeline_enabled,
)
from .trace import NULL_SPAN, Span, Tracer, enabled, get_tracer, set_tracer, span

__all__ = [
    "BenchError",
    "BenchRecord",
    "BenchScenario",
    "BenchSnapshot",
    "ComparisonReport",
    "SCENARIOS",
    "Threshold",
    "bench_scenario",
    "compare_snapshots",
    "run_scenario",
    "run_suite",
    "ENGINE_LANES",
    "chrome_trace",
    "engine_utilization",
    "report_data",
    "text_report",
    "write_chrome_trace",
    "SLOTracker",
    "hdr_buckets",
    "percentile_cutoff",
    "slo_summary",
    "EXPLAIN_SCHEMA",
    "ExplainReport",
    "aggregate_blame",
    "explain_section",
    "render_waterfall",
    "run_explain",
    "FLEET_PHASES",
    "PhaseSlice",
    "RequestExplanation",
    "SCHEDULER_PHASES",
    "assert_lifecycle",
    "explain_fleet_log",
    "explain_log",
    "explain_scheduler_log",
    "quantize_ns",
    "quantize_nj",
    "validate_lifecycle",
    "AnomalyEvent",
    "EwmaDetector",
    "MadDetector",
    "RateOfChangeDetector",
    "default_detectors",
    "detect_series",
    "EnergyAccountant",
    "EnergyBreakdown",
    "EnergyModel",
    "ZERO_ENERGY",
    "tokens_per_joule",
    "DEFAULT_WINDOW_SECONDS",
    "MetricStream",
    "MetricWindow",
    "stream_from_log",
    "EVENT_KINDS",
    "EventLog",
    "TimelineEvent",
    "emit",
    "get_event_log",
    "set_event_log",
    "timeline_enabled",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "counter",
    "gauge",
    "get_metrics",
    "histogram",
    "set_metrics",
    "NULL_SPAN",
    "Span",
    "Tracer",
    "enabled",
    "get_tracer",
    "set_tracer",
    "span",
]
