"""Guard: disabled tracing must stay nearly free on the hot path.

The observability instrumentation (spans in the engine, model, kernels
and memory subsystem) is always compiled in; when the global tracer is
disabled every site pays one method call that returns the shared no-op
span.  This benchmark measures that residual cost directly: it counts
the instrumentation sites a small ``generate()`` run actually hits
(by tracing it once), times the same number of disabled no-op span
calls, and asserts the total is under 5% of the untraced run's wall
clock.
"""

from __future__ import annotations

import time

from repro.llm import InferenceEngine, NPUTransformer, TransformerWeights
from repro.llm.config import tiny_config
from repro.llm.sampler import Sampler
from repro.obs.trace import Tracer, set_tracer

MAX_OVERHEAD_FRACTION = 0.05
PROMPT = [1, 2, 3, 4]
NEW_TOKENS = 3
BATCH = 2
EXPLAIN_REQUESTS = 4000
MAX_EXPLAIN_OVER_RECORD = 6.0


def _build_engine() -> InferenceEngine:
    weights = TransformerWeights.generate(tiny_config(), seed=0)
    return InferenceEngine(NPUTransformer(weights), batch=BATCH,
                           max_context=32)


def _run(engine: InferenceEngine) -> None:
    engine.generate(PROMPT, max_new_tokens=NEW_TOKENS,
                    sampler=Sampler(temperature=1.0, seed=0))


def test_disabled_tracing_overhead_under_5_percent():
    engine = _build_engine()

    # count the instrumentation sites the workload actually hits
    enabled_tracer = Tracer(enabled=True)
    previous = set_tracer(enabled_tracer)
    try:
        _run(engine)
        n_sites = len(enabled_tracer.finished_spans())
    finally:
        set_tracer(previous)

    assert n_sites > 100  # the workload is genuinely instrumented

    # wall clock of the run with tracing disabled (the shipped default)
    disabled_tracer = Tracer(enabled=False)
    previous = set_tracer(disabled_tracer)
    try:
        _run(engine)  # warm-up
        run_seconds = min(
            _timed(_run, engine) for _ in range(3))
    finally:
        set_tracer(previous)

    # cost of the same number of disabled no-op span calls, with the
    # kwargs dicts the call sites build
    def noop_calls() -> None:
        span = disabled_tracer.span
        for i in range(n_sites):
            with span("kernel.gemm", category="kernel", m=i, k=64, n=64,
                      strategy="ours", bits=4):
                pass

    noop_calls()  # warm-up
    noop_seconds = min(_timed(noop_calls) for _ in range(5))

    overhead = noop_seconds / run_seconds
    assert overhead < MAX_OVERHEAD_FRACTION, (
        f"{n_sites} disabled span calls cost {noop_seconds * 1e3:.3f} ms, "
        f"{100 * overhead:.2f}% of the {run_seconds * 1e3:.1f} ms run "
        f"(limit {100 * MAX_OVERHEAD_FRACTION:.0f}%)")


def _timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def test_disabled_span_fast_path_is_allocation_free():
    """The disabled path returns the shared singleton and retains nothing."""
    import tracemalloc

    from repro.obs.trace import NULL_SPAN

    tracer = Tracer(enabled=False)
    assert tracer.span("kernel.gemm", category="kernel") is NULL_SPAN
    assert tracer.span("engine.decode_step", m=8, k=64) is NULL_SPAN

    def burst() -> None:
        span = tracer.span
        for i in range(10_000):
            with span("kernel.gemm", category="kernel", m=i):
                pass

    burst()  # warm caches before measuring
    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    burst()
    after, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # transient kwargs dicts are freed per call; nothing may accumulate
    assert after - before < 4096, (
        f"disabled span loop retained {after - before} bytes")
    assert tracer.spans == []


def test_slo_recording_overhead_in_scheduler_step_loop():
    """Metrics + SLO histogram recording must stay a rounding error of a
    scheduler run: the hot loop pays one observe_step per decode step and
    one observe_candidate per retirement."""
    from repro.llm import ContinuousBatchingScheduler
    from repro.obs.metrics import MetricsRegistry, set_metrics
    from repro.obs.slo import SLOTracker

    weights = TransformerWeights.generate(tiny_config(), seed=0)
    engine = InferenceEngine(NPUTransformer(weights), batch=BATCH,
                             max_context=32, kv_backend="paged")
    scheduler = ContinuousBatchingScheduler(engine)

    def run_scheduler() -> None:
        scheduler.generate(PROMPT, n_candidates=4, max_new_tokens=4,
                           sampler=Sampler(temperature=1.0, seed=0))

    registry = MetricsRegistry()
    previous = set_metrics(registry)
    try:
        run_scheduler()  # warm-up; also populates the SLO histograms
        run_seconds = min(_timed(run_scheduler) for _ in range(3))
        snapshot = registry.snapshot()
    finally:
        set_metrics(previous)

    n_steps = snapshot["repro.slo.step_latency_seconds"]["count"]
    n_candidates = snapshot["repro.slo.candidate_latency_seconds"]["count"]
    assert n_steps > 0 and n_candidates > 0

    # replay the same number of recordings against fresh histograms
    tracker = SLOTracker(MetricsRegistry(), engine_batch=BATCH)
    live = list(range(BATCH))

    def replay() -> None:
        for step in range(n_steps):
            tracker.observe_step(1e-4, live)
        for candidate in range(n_candidates):
            tracker.observe_candidate(candidate, 1e-3)

    replay()  # warm-up
    record_seconds = min(_timed(replay) for _ in range(5))

    overhead = record_seconds / run_seconds
    assert overhead < MAX_OVERHEAD_FRACTION, (
        f"{n_steps} step + {n_candidates} candidate SLO recordings cost "
        f"{record_seconds * 1e3:.3f} ms, {100 * overhead:.2f}% of the "
        f"{run_seconds * 1e3:.1f} ms scheduler run "
        f"(limit {100 * MAX_OVERHEAD_FRACTION:.0f}%)")


def test_disabled_event_log_fast_path_is_allocation_free():
    """With the log disabled (the shipped default) every emit site pays
    one guarded method call that retains nothing."""
    import tracemalloc

    from repro.obs.timeline import EventLog

    log = EventLog(enabled=False)
    assert log.emit("decode_step", 0.0, step=1, seconds=1e-4) is None

    def burst() -> None:
        emit = log.emit
        for i in range(10_000):
            emit("decode_step", 1e-4 * i, step=i, seconds=1e-4,
                 live_batch=4, joules=1e-6)

    burst()  # warm caches before measuring
    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    burst()
    after, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert after - before < 4096, (
        f"disabled emit loop retained {after - before} bytes")
    assert len(log) == 0


def test_anomaly_detection_overhead_under_5_percent_of_scheduler_run():
    """Folding the event log into windows and running the full detector
    bank over the monitor's watched series must stay a rounding error of
    the scheduler run that produced the events."""
    import tracemalloc

    from repro.llm import ContinuousBatchingScheduler
    from repro.obs.anomaly import default_detectors, detect_series
    from repro.obs.monitor import WATCHED_SERIES
    from repro.obs.stream import stream_from_log
    from repro.obs.timeline import EventLog, set_event_log

    weights = TransformerWeights.generate(tiny_config(), seed=0)
    engine = InferenceEngine(NPUTransformer(weights), batch=BATCH,
                             max_context=32, kv_backend="paged")
    scheduler = ContinuousBatchingScheduler(engine)

    def run_scheduler() -> EventLog:
        log = EventLog(enabled=True)
        previous = set_event_log(log)
        try:
            scheduler.generate(PROMPT, n_candidates=4, max_new_tokens=4,
                               sampler=Sampler(temperature=1.0, seed=0))
        finally:
            set_event_log(previous)
        return log

    log = run_scheduler()  # warm-up; keeps a representative log
    assert len(log) > 0
    run_seconds = min(_timed(run_scheduler) for _ in range(3))

    start, end = log.span()
    window_seconds = max((end - start) / 8, 1e-9)

    def analyze() -> None:
        stream = stream_from_log(log, window_seconds=window_seconds)
        windows = stream.windows()
        for metric, stat, detector_names, require_samples in WATCHED_SERIES:
            points = [(w.index, w.start, w.value(metric, stat))
                      for w in windows
                      if not require_samples
                      or w.value(metric, "count") > 0.0]
            detectors = [d for d in default_detectors()
                         if d.name in detector_names]
            detect_series(metric, points, detectors)

    analyze()  # warm-up
    analyze_seconds = min(_timed(analyze) for _ in range(5))

    overhead = analyze_seconds / run_seconds
    assert overhead < MAX_OVERHEAD_FRACTION, (
        f"stream fold + detector bank over {len(log)} events cost "
        f"{analyze_seconds * 1e3:.3f} ms, {100 * overhead:.2f}% of the "
        f"{run_seconds * 1e3:.1f} ms scheduler run "
        f"(limit {100 * MAX_OVERHEAD_FRACTION:.0f}%)")


def test_online_detectors_hold_constant_memory():
    """Streaming detectors keep O(1)/O(window) state: feeding 10k points
    must not accumulate memory proportional to the series length."""
    import tracemalloc

    from repro.obs.anomaly import default_detectors

    detectors = default_detectors()
    for detector in detectors:  # warm internal state past any warmup
        for i in range(1_000):
            detector.observe(1.0 + (i % 7) * 1e-3)

    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    for detector in detectors:
        for i in range(10_000):
            detector.observe(1.0 + (i % 7) * 1e-3)
    after, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert after - before < 16_384, (
        f"detector bank retained {after - before} bytes over 10k points")


def test_explain_cost_is_linear_in_the_log():
    """Explaining a recorded fleet log (lifecycle validation, critical
    paths, blame) must cost a small constant times recording it: each
    request's chain comes from the log's index, so the whole pass is
    linear in the log rather than one full-log scan per request."""
    from repro.obs.blame import explain_section
    from repro.obs.timeline import EventLog

    def record() -> EventLog:
        log = EventLog(enabled=True)
        emit = log.emit
        for rid in range(EXPLAIN_REQUESTS):
            t, device = rid * 1e-2, rid % 64
            emit("queue", t, request_id=rid, tenant="interactive")
            emit("dispatch", t + 2e-3, request_id=rid, device=device,
                 generation=0, wait_seconds=2e-3, service_seconds=3e-3,
                 joules=0.5)
            emit("complete", t + 5e-3, request_id=rid, reason="served",
                 tokens=32, latency_seconds=5e-3, joules=0.5,
                 device=device, tenant="interactive")
        return log

    log = record()  # warm-up; keeps the log to explain
    record_seconds = min(_timed(record) for _ in range(3))
    section = explain_section(log)  # warm-up; also checks the log is whole
    assert section["aggregate"]["n_requests"] == EXPLAIN_REQUESTS
    explain_seconds = min(_timed(explain_section, log) for _ in range(3))

    ratio = explain_seconds / record_seconds
    assert ratio < MAX_EXPLAIN_OVER_RECORD, (
        f"explaining {EXPLAIN_REQUESTS} requests ({len(log)} events) cost "
        f"{explain_seconds * 1e3:.1f} ms, {ratio:.1f}x the "
        f"{record_seconds * 1e3:.1f} ms it took to record them "
        f"(limit {MAX_EXPLAIN_OVER_RECORD:.0f}x)")
