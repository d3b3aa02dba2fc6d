"""Tests for the one observability context (repro.obs.context)."""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs import EventLog, MetricsRegistry, Obs, Tracer, current, scope
from repro.obs.trace import NULL_SPAN


def _record(sinks: Obs) -> None:
    """Write one span, one counter and one event through ``sinks``."""
    with sinks.tracer.span("x"):
        pass
    sinks.metrics.counter("repro.test.c").inc()
    sinks.log.emit("queue", 0.0, request_id=1)


def _outer() -> Obs:
    return Obs(Tracer(), MetricsRegistry(), EventLog())


def _empty(sinks: Obs) -> bool:
    return (not sinks.tracer.finished_spans()
            and not sinks.metrics.snapshot() and not len(sinks.log))


class TestDefault:
    def test_tracing_and_log_are_off_outside_every_scope(self):
        sinks = current()
        assert not sinks.tracer.enabled and not sinks.log.enabled
        assert sinks.tracer.span("x") is NULL_SPAN
        assert sinks.log.emit("queue", 0.0) is None

    def test_package_exports_the_context_and_no_accessor(self):
        assert {"Obs", "current", "scope"} <= set(obs.__all__)
        assert not [name for name in obs.__all__
                    if name.startswith(("get_", "set_"))]

    def test_obs_is_immutable(self):
        with pytest.raises(AttributeError):
            current().tracer = Tracer()  # type: ignore[misc]


class TestScope:
    def test_installs_its_sinks_and_restores_the_outer_ones(self):
        before = current()
        sinks = _outer()
        with scope(*sinks) as installed:
            assert installed == sinks and current() is installed
            _record(current())
        assert current() is before
        assert len(sinks.tracer.finished_spans()) == 1
        assert sinks.metrics.snapshot()["repro.test.c"]["value"] == 1.0
        assert sinks.log.request_ids() == [1]

    def test_restores_the_outer_sinks_when_the_body_raises(self):
        before = current()
        with pytest.raises(RuntimeError):
            with scope(tracer=Tracer()):
                raise RuntimeError("boom")
        assert current() is before

    def test_a_sink_not_given_is_off(self):
        outer = _outer()
        with scope(*outer):
            with scope(metrics=MetricsRegistry()) as inner:
                assert not inner.tracer.enabled and not inner.log.enabled
                _record(current())
            with scope() as bare:
                assert bare.metrics is not outer.metrics
                _record(current())
        assert _empty(outer)

    def test_nested_scopes_unwind_in_order(self):
        outer, inner = _outer(), _outer()
        with scope(*outer):
            with scope(*inner):
                _record(current())
            assert current() == outer
            _record(current())
        assert len(outer.log) == len(inner.log) == 1
