"""Observability: span tracing, metrics, and Perfetto trace export.

* :mod:`repro.obs.trace` — nested spans with a no-op fast path, the
  instrumentation hooks threaded through engine/model/kernel hot paths.
* :mod:`repro.obs.metrics` — counters, gauges, fixed-bucket histograms
  under the ``repro.<layer>.<name>`` naming convention.
* :mod:`repro.obs.export` — ``chrome://tracing`` JSON (opens in
  Perfetto) with host spans, HMX/HVX/DMA/CPU engine lanes drawn from a
  recorded log's charges and per-request timeline lanes, and a
  flamegraph-style text report.
* :mod:`repro.obs.timeline` — the structured event log: typed causal
  events (admit/wave_assign/decode_step/fault/retry/evict/...) keyed by
  request id.
* :mod:`repro.obs.stream` — windowed metric streams folding events into
  fixed sim-time windows of counters/gauges/histograms.
* :mod:`repro.obs.anomaly` — deterministic online detectors (EWMA,
  median/MAD z-score, rate-of-change) over stream series.
* :mod:`repro.obs.energy` — the one ledger: simulated joules per step,
  phase and request, from the :mod:`repro.perf.power` budget, and each
  engine lane's busy seconds, from which ``util_*`` and the engine lanes
  are folded.
* :mod:`repro.obs.monitor` — the ``repro monitor`` replay + report
  (imported lazily by the CLI; not re-exported here).
* :mod:`repro.obs.critical_path` — per-request critical-path
  reconstruction and bitwise latency/energy blame attribution from a
  recorded timeline, plus the lifecycle completeness validator.
* :mod:`repro.obs.blame` — fleet-wide blame aggregation (percentile
  cohorts, per-device/per-tenant splits, exemplar waterfalls) and the
  ``repro explain`` report (schema ``repro.explain/v1``).
* :mod:`repro.obs.context` — the one observability context: every
  layer reads its tracer, registry and log through :func:`current`, and
  only :func:`scope` changes them.

Tracing and the event log are off outside every scope; record a run
with::

    from repro import obs
    tracer, log = obs.Tracer(), obs.EventLog()
    with obs.scope(tracer=tracer, log=log):
        ...                              # run the instrumented workload
    obs.write_chrome_trace("trace.json", tracer, events=log)

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
    chrome_trace,
    report_data,
    text_report,
    write_chrome_trace,
)
from .context import Obs, current, scope
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
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
from .timeline import EVENT_KINDS, EventLog, TimelineEvent
from .trace import NULL_SPAN, Span, Tracer

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
    "chrome_trace",
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
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "Span",
    "Tracer",
    "Obs",
    "current",
    "scope",
]
