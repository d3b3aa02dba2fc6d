"""Tests for the Chrome-trace exporter and text report (repro.obs.export)."""

from __future__ import annotations

import json

import pytest

from repro.npu.timing import KernelCost, TimingModel, V75
from repro.obs.energy import LANES, EnergyAccountant
from repro.obs.export import (
    chrome_trace,
    report_data,
    text_report,
    write_chrome_trace,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeline import EventLog
from repro.obs.trace import Tracer


@pytest.fixture
def timing():
    return TimingModel(V75)


def make_traced_run() -> Tracer:
    """A small span tree whose kernel spans carry costs."""
    tracer = Tracer()
    with tracer.span("engine.decode_step", category="engine"):
        with tracer.span("model.forward", category="model"):
            with tracer.span("kernel.gemm", category="kernel", m=8) as gemm:
                gemm.add_cost(KernelCost(hmx_tile_macs=64, hvx_packets=1000,
                                         dma_bytes=4096))
            with tracer.span("kernel.softmax", category="kernel") as sm:
                sm.add_cost(KernelCost(hvx_packets=500, vgather_instrs=8))
    return tracer


def make_charged_log() -> EventLog:
    """A decode step, a retry backoff and an off-NPU decode step."""
    log = EventLog()
    log.emit("decode_step", 3e-5, step=0, seconds=3e-5, joules=1e-4,
             hmx_s=5e-6, hvx_s=2e-5, dma_s=1e-5, cpu_s=8e-6)
    log.emit("retry", 4e-5, step=1, backoff_seconds=1e-5, joules=2e-5,
             hmx_s=0.0, hvx_s=0.0, dma_s=0.0, cpu_s=0.0)
    log.emit("decode_step", 6e-5, step=1, seconds=2e-5, joules=5e-5,
             hmx_s=0.0, hvx_s=0.0, dma_s=0.0, cpu_s=2e-5)
    return log


def engine_bars(trace):
    return [e for e in trace["traceEvents"] if e.get("cat") == "sim.engine"]


class TestChromeTrace:
    def test_round_trips_through_json(self):
        trace = chrome_trace(make_traced_run(), events=make_charged_log())
        reloaded = json.loads(json.dumps(trace))
        assert isinstance(reloaded["traceEvents"], list)
        assert reloaded["traceEvents"]
        assert reloaded["displayTimeUnit"] == "ms"

    def test_event_schema(self):
        trace = chrome_trace(make_traced_run(), events=make_charged_log())
        for event in trace["traceEvents"]:
            assert event["ph"] in ("X", "M", "i")
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            if event["ph"] == "X":
                assert event["ts"] >= 0.0
                assert event["dur"] >= 0.0

    def test_engine_lanes_have_distinct_named_threads(self):
        trace = chrome_trace(make_traced_run())
        names = {e["args"]["name"]: e["tid"] for e in trace["traceEvents"]
                 if e.get("name") == "thread_name"}
        lanes = [lane.upper() for lane in LANES]
        assert set(lanes) <= set(names)
        assert len({names[lane] for lane in lanes}) == len(lanes)

    def test_host_spans_present_with_attrs(self):
        trace = chrome_trace(make_traced_run())
        gemm = [e for e in trace["traceEvents"]
                if e.get("name") == "kernel.gemm" and e.get("cat") == "kernel"]
        assert gemm and gemm[0]["args"]["m"] == 8

    def test_private_attrs_filtered(self, timing):
        tracer = Tracer()
        with tracer.span("a", _secret=1, public=2):
            pass
        trace = chrome_trace(tracer)
        (event,) = [e for e in trace["traceEvents"] if e.get("name") == "a"]
        assert "public" in event["args"]
        assert all(not k.startswith("_") for k in event["args"])

    def test_non_json_attr_values_stringified(self):
        tracer = Tracer()
        with tracer.span("a", obj=KernelCost()):
            pass
        trace = chrome_trace(tracer)
        json.dumps(trace)  # must not raise

    def test_engine_bars_are_the_charges_busy_lanes(self):
        """One bar per busy lane of each charge, none for the backoff:
        the NPU lanes open at the step's start, the CPU lane closes at
        its end."""
        bars = engine_bars(chrome_trace(Tracer(), events=make_charged_log()))
        got = sorted((b["args"]["engine"], b["args"]["step"], b["ts"],
                      b["dur"]) for b in bars)
        expected = sorted([
            ("HMX", 0, 0.0, 5.0), ("HVX", 0, 0.0, 20.0),
            ("DMA", 0, 0.0, 10.0), ("CPU", 0, 22.0, 8.0),
            ("CPU", 1, 40.0, 20.0)])
        assert [g[:2] for g in got] == [e[:2] for e in expected]
        for g, e in zip(got, expected):
            assert g[2:] == pytest.approx(e[2:])
        assert {b["name"] for b in bars} == {"decode_step"}

    def test_without_events_no_engine_bars(self):
        assert not engine_bars(chrome_trace(make_traced_run()))

    def test_write_chrome_trace_creates_loadable_file(self, tmp_path):
        path = tmp_path / "trace.json"
        returned = write_chrome_trace(str(path), make_traced_run(),
                                      events=make_charged_log())
        with open(path) as handle:
            loaded = json.load(handle)
        assert loaded["traceEvents"]
        assert len(loaded["traceEvents"]) == len(returned["traceEvents"])


class TestEngineLanesFromTheLedger:
    """Perfetto's engine lanes and ``util_*`` fold the same charges."""

    @staticmethod
    def recorded_run(tiny_model, fault_plan=None):
        from repro.llm import ContinuousBatchingScheduler, InferenceEngine
        from repro.llm.sampler import Sampler
        from repro.obs import scope

        engine = InferenceEngine(tiny_model, batch=2, max_context=32,
                                 kv_backend="paged")
        log = EventLog()
        with scope(log=log):
            result = ContinuousBatchingScheduler(engine).generate(
                [1, 2, 3], n_candidates=4, max_new_tokens=4,
                sampler=Sampler(temperature=0.8, seed=0),
                fault_plan=fault_plan)
        return result, log

    @pytest.mark.parametrize("faults", [None, "abort@1,dma@2"])
    def test_lane_bars_sum_to_the_ledgers_busy_seconds(self, tiny_model,
                                                       faults):
        from repro.resilience import FaultPlan

        plan = FaultPlan.parse(faults) if faults else None
        result, log = self.recorded_run(tiny_model, plan)
        ledger = EnergyAccountant()
        for event in log.events():
            ledger.charge(event.kind, event.attrs, event.request_id)
        bars = engine_bars(chrome_trace(Tracer(), events=log))
        for lane in LANES:
            lane_us = sum(b["dur"] for b in bars
                          if b["args"]["engine"] == lane.upper())
            assert lane_us == pytest.approx(ledger.busy_s[lane] * 1e6)
            assert ledger.busy_s[lane] == pytest.approx(
                result.utilization[lane] * result.sim_seconds)
        assert ledger.busy_s["hmx"] > 0.0
        for bar in bars:  # every bar lies inside the run
            assert bar["ts"] >= -1e-6
            assert bar["ts"] + bar["dur"] <= result.sim_seconds * 1e6 + 1e-6


class TestTextReport:
    def test_contains_tree_and_attribution(self, timing):
        report = text_report(make_traced_run(), timing=timing)
        assert "span tree" in report
        assert "per-kernel simulated time attribution" in report
        assert "engine.decode_step" in report
        assert "kernel.gemm" in report
        # only cost-bearing spans are attribution rows
        attribution = report.split("attribution")[1]
        assert "model.forward" not in attribution

    def test_empty_tracer_message(self):
        assert "empty" in text_report(Tracer())

    def test_without_timing_skips_attribution(self):
        report = text_report(make_traced_run())
        assert "span tree" in report
        assert "attribution" not in report

    def test_metrics_add_slo_section(self, timing):
        reg = MetricsRegistry()
        for v in (1e-4, 2e-4, 3e-4):
            reg.histogram("repro.slo.token_latency_seconds").observe(v)
        report = text_report(make_traced_run(), timing=timing, metrics=reg)
        assert "SLO token-latency percentiles (simulated)" in report
        assert "repro.slo.token_latency_seconds" in report
        # a snapshot dict works too (what the JSON pipeline carries)
        from_snap = text_report(make_traced_run(), metrics=reg.snapshot())
        assert "repro.slo.token_latency_seconds" in from_snap

    def test_without_metrics_no_slo_section(self, timing):
        assert "SLO" not in text_report(make_traced_run(), timing=timing)


class TestExportEdgeCases:
    """Degenerate traces must export, not crash (satellite: obs.export)."""

    def test_empty_tracer_chrome_trace(self):
        trace = chrome_trace(Tracer(), events=EventLog())
        json.dumps(trace)  # serializable
        assert all(e["ph"] == "M" for e in trace["traceEvents"])

    def test_empty_tracer_report_data(self):
        data = report_data(Tracer())
        assert data["n_spans"] == 0
        assert data["span_tree"] == []
        assert data["scheduler"] is None
        assert data["resilience"] is None

    def test_zero_duration_spans(self, timing):
        tracer = Tracer(clock=lambda: 0.0)  # every span starts and ends at 0
        with tracer.span("outer"):
            with tracer.span("inner", category="kernel") as k:
                k.add_cost(KernelCost(hvx_packets=10))
        trace = chrome_trace(tracer)
        host = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert all(e["dur"] == 0.0 for e in host)
        report = text_report(tracer, timing=timing)  # no ZeroDivisionError
        assert "span tree" in report
        assert report_data(tracer, timing=timing)["n_spans"] == 2

    def test_open_span_at_export_does_not_crash(self, timing):
        tracer = Tracer()
        active = tracer.span("outer", category="engine")
        active.__enter__()
        with tracer.span("inner", category="kernel") as k:
            k.add_cost(KernelCost(hmx_tile_macs=8))
        # export while "outer" is still open: only the finished child is
        # visible, with its unfinished parent degraded to a root
        trace = chrome_trace(tracer)
        json.dumps(trace)
        names = [e["name"] for e in trace["traceEvents"] if e["ph"] == "X"]
        assert "inner" in names and "outer" not in names
        report = text_report(tracer, timing=timing)
        assert "inner" in report
        assert report_data(tracer, timing=timing)["n_spans"] == 1
        active.__exit__(None, None, None)
        assert len(tracer.finished_spans()) == 2

    def test_negative_duration_clamped(self):
        from repro.obs.trace import Span

        spans = [Span(name="weird", category="x", start=10.0, end=9.0,
                      index=0)]
        trace = chrome_trace(spans)
        (event,) = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert event["dur"] == 0.0
        text_report(spans)  # must not crash


class TestReportData:
    def test_schema_and_sections(self, timing):
        reg = MetricsRegistry()
        reg.histogram("repro.slo.step_latency_seconds").observe(1e-3)
        reg.counter("repro.scheduler.admitted").inc(4)
        data = report_data(make_traced_run(), timing=timing, metrics=reg)
        assert data["schema"] == "repro.profile/v1"
        assert data["n_spans"] == 4
        json.dumps(data)  # fully serializable
        roots = [e for e in data["span_tree"] if len(e["path"]) == 1]
        assert roots[0]["path"] == ["engine.decode_step"]
        kernels = {k["kernel"] for k in data["kernels"]}
        assert kernels == {"kernel.gemm", "kernel.softmax"}
        for entry in data["kernels"]:
            assert entry["sim_seconds"] > 0.0
        assert "repro.slo.step_latency_seconds" in data["slo"]
        assert data["metrics"]["repro.scheduler.admitted"]["value"] == 4.0

    def test_without_timing_kernels_empty(self):
        data = report_data(make_traced_run())
        assert data["kernels"] == []
        assert data["slo"] == {}
        assert data["metrics"] == {}
        assert data["blame"] is None


class TestBlameSections:
    AGGREGATE = {
        "n_requests": 2,
        "total_latency_ns": 1_000_000,
        "blame_ns": {"queue_wait": 750_000, "decode": 250_000},
        "cohorts": {"p99": {"cutoff_ns": 900_000, "n_requests": 1,
                            "blame_ns": {"queue_wait": 900_000},
                            "dominant_phase": "queue_wait"}},
    }

    def test_text_report_blame_section(self):
        report = text_report(make_traced_run(), blame=self.AGGREGATE)
        assert "latency blame (critical path)" in report
        assert "queue_wait" in report
        assert "p99 dominant" in report

    def test_report_data_blame_key(self):
        data = report_data(make_traced_run(), blame=self.AGGREGATE)
        assert data["blame"]["n_requests"] == 2
        json.dumps(data)

    def test_blame_accepts_explain_report_shape(self):
        # duck-typed: anything carrying .aggregate (an ExplainReport)
        class Shim:
            aggregate = self.AGGREGATE

        data = report_data(make_traced_run(), blame=Shim())
        assert data["blame"]["total_latency_ns"] == 1_000_000

    def test_chrome_trace_critical_path_bars(self):
        from repro.obs.critical_path import PhaseSlice

        paths = {3: [PhaseSlice("queue_wait", 0, 500_000),
                     PhaseSlice("decode", 500_000, 1_000_000)],
                 5: [["service", 0, 250_000]]}  # JSON triple shape too
        trace = chrome_trace(make_traced_run(), critical_paths=paths)
        bars = [e for e in trace["traceEvents"]
                if e.get("cat") == "sim.blame"]
        assert len(bars) == 3
        assert {b["tid"] for b in bars} == {203, 205}
        first = [b for b in bars if b["args"]["request_id"] == 3][0]
        assert first["name"] == "queue_wait"
        assert first["dur"] == pytest.approx(500.0)  # ns -> us
        json.dumps(trace)
