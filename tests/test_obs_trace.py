"""Tests for the span tracer (repro.obs.trace)."""

from __future__ import annotations

import threading

import pytest

from repro.npu.timing import KernelCost
from repro.obs.trace import NULL_SPAN, Tracer


class FakeClock:
    """Deterministic monotonic clock for duration assertions."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class TestSpanBasics:
    def test_span_records_name_category_and_attrs(self):
        tracer = Tracer()
        with tracer.span("kernel.gemm", category="kernel", m=4, n=8):
            pass
        (span,) = tracer.finished_spans()
        assert span.name == "kernel.gemm"
        assert span.category == "kernel"
        assert span.attrs["m"] == 4 and span.attrs["n"] == 8

    def test_duration_uses_tracer_clock(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("a"):
            pass
        (span,) = tracer.finished_spans()
        assert span.duration == pytest.approx(1.0)

    def test_set_updates_attrs_mid_span(self):
        tracer = Tracer()
        with tracer.span("a") as sp:
            sp.set(cpu_seconds=0.5, note="x")
        (span,) = tracer.finished_spans()
        assert span.attrs["cpu_seconds"] == 0.5
        assert span.attrs["note"] == "x"

    def test_add_cost_accumulates(self):
        tracer = Tracer()
        with tracer.span("a") as sp:
            sp.add_cost(KernelCost(hmx_tile_macs=3))
            sp.add_cost(KernelCost(hmx_tile_macs=4, dma_bytes=10))
        (span,) = tracer.finished_spans()
        total = span.total_cost()
        assert total.hmx_tile_macs == 7
        assert total.dma_bytes == 10

    def test_total_cost_none_without_costs(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        assert tracer.finished_spans()[0].total_cost() is None

    def test_total_cost_does_not_mutate_attached_records(self):
        tracer = Tracer()
        first = KernelCost(hvx_packets=5)
        with tracer.span("a") as sp:
            sp.add_cost(first)
            sp.add_cost(KernelCost(hvx_packets=2))
        span = tracer.finished_spans()[0]
        span.total_cost()
        span.total_cost()
        assert first.hvx_packets == 5  # summing twice must not double-count


class TestNesting:
    def test_parent_indices_resolve(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("middle"):
                with tracer.span("inner"):
                    pass
        spans = {s.name: s for s in tracer.finished_spans()}
        assert spans["outer"].parent is None
        assert spans["middle"].parent == spans["outer"].index
        assert spans["inner"].parent == spans["middle"].index

    def test_depths(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("sibling"):
                pass
        spans = {s.name: s for s in tracer.finished_spans()}
        assert spans["outer"].depth == 0
        assert spans["inner"].depth == 1
        assert spans["sibling"].depth == 1

    def test_children_finish_before_parents(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        names = [s.name for s in tracer.finished_spans()]
        assert names == ["inner", "outer"]

    def test_finished_spans_idempotent(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        first = tracer.finished_spans()
        second = tracer.finished_spans()
        assert [s.parent for s in first] == [s.parent for s in second]


class TestDisabled:
    def test_disabled_returns_shared_null_span(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("a") is NULL_SPAN
        assert tracer.span("b", category="kernel", m=1) is NULL_SPAN

    def test_null_span_is_inert(self):
        with NULL_SPAN as sp:
            assert sp.set(x=1) is NULL_SPAN
            assert sp.add_cost(KernelCost()) is NULL_SPAN

    def test_disabled_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("a"):
            pass
        assert tracer.finished_spans() == []


class TestExceptionSafety:
    def test_span_closes_and_flags_error(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("bad")
        (span,) = tracer.finished_spans()
        assert span.attrs["error"] == "ValueError"
        assert span.end >= span.start

    def test_stack_recovers_after_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError
        with tracer.span("after"):
            pass
        spans = {s.name: s for s in tracer.finished_spans()}
        assert spans["after"].parent is None  # not parented under "outer"


class TestThreading:
    def test_threads_trace_independently(self):
        tracer = Tracer()
        errors = []

        def work(tid: int) -> None:
            try:
                with tracer.span(f"root{tid}"):
                    with tracer.span(f"child{tid}"):
                        pass
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        spans = {s.name: s for s in tracer.finished_spans()}
        assert len(spans) == 16
        for i in range(8):
            assert spans[f"child{i}"].parent == spans[f"root{i}"].index
            assert spans[f"root{i}"].parent is None


class TestReset:
    def test_reset_clears_spans(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        tracer.reset()
        assert tracer.finished_spans() == []
