"""Tests for the structured event log (repro.obs.timeline)."""

from __future__ import annotations

import pytest

from repro.errors import ObservabilityError
from repro.obs.timeline import (
    EVENT_KINDS,
    EventLog,
    emit,
    get_event_log,
    set_event_log,
    timeline_enabled,
)


class TestEventLog:
    def test_emit_records_in_order_with_seq(self):
        log = EventLog()
        a = log.emit("queue", 0.0, request_id=0)
        b = log.emit("admit", 0.001, request_id=0, slot=2)
        assert (a.seq, b.seq) == (0, 1)
        assert len(log) == 2
        assert [e.kind for e in log.events()] == ["queue", "admit"]
        assert b.attrs == {"slot": 2}

    def test_disabled_log_is_a_no_op(self):
        log = EventLog(enabled=False)
        assert log.emit("queue", 0.0) is None
        assert len(log) == 0
        log.enable()
        assert log.emit("queue", 0.0) is not None

    def test_rejects_unknown_kind(self):
        log = EventLog()
        with pytest.raises(ObservabilityError):
            log.emit("reticulate", 0.0)
        with pytest.raises(ObservabilityError):
            log.by_kind("reticulate")

    def test_rejects_negative_and_nan_time(self):
        log = EventLog()
        with pytest.raises(ObservabilityError):
            log.emit("queue", -1e-9)
        with pytest.raises(ObservabilityError):
            log.emit("queue", float("nan"))

    def test_timeline_filters_one_request_in_emission_order(self):
        log = EventLog()
        log.emit("queue", 0.0, request_id=0)
        log.emit("queue", 0.0, request_id=1)
        log.emit("admit", 0.001, request_id=0)
        log.emit("decode_step", 0.002, step=0)  # run-level
        log.emit("complete", 0.003, request_id=0, reason="length")
        chain = log.timeline(0)
        assert [e.kind for e in chain] == ["queue", "admit", "complete"]
        assert log.request_ids() == [0, 1]
        assert log.timeline(None) == []  # run-level events join no chain
        chain.clear()  # a caller's edit must not reach the log
        assert log.timeline(0) == [e for e in log.events()
                                   if e.request_id == 0]

    def test_by_kind_and_span(self):
        log = EventLog()
        assert log.span() == (0.0, 0.0)
        log.emit("decode_step", 0.002, step=0)
        log.emit("decode_step", 0.005, step=1)
        log.emit("fault", 0.003, fault_kind="dma")
        assert len(log.by_kind("decode_step")) == 2
        assert log.span() == (0.002, 0.005)

    def test_reset_clears_events(self):
        log = EventLog()
        log.emit("queue", 0.0, request_id=3)
        log.reset()
        assert len(log) == 0
        assert log.span() == (0.0, 0.0)
        assert log.request_ids() == []
        assert log.timeline(3) == []
        again = log.emit("queue", 0.5, request_id=3)
        assert again.seq == 0
        assert log.timeline(3) == [again]

    def test_to_json_sorts_attrs_and_omits_missing_ids(self):
        log = EventLog()
        run_level = log.emit("throttle", 0.1, governor="efficiency",
                             restored=False)
        scoped = log.emit("complete", 0.2, request_id=3, reason="length")
        assert "request_id" not in run_level.to_json()
        assert list(run_level.to_json()["attrs"]) == ["governor", "restored"]
        assert scoped.to_json()["request_id"] == 3

    def test_event_kinds_cover_the_serving_lifecycle(self):
        for kind in ("queue", "admit", "wave_assign", "prefill",
                     "decode_step", "fault", "retry", "rebuild", "evict",
                     "throttle", "deadline", "complete"):
            assert kind in EVENT_KINDS


class TestGlobalLog:
    def test_default_global_log_is_disabled(self):
        assert timeline_enabled() is False
        assert emit("queue", 0.0) is None

    def test_set_event_log_installs_and_restores(self):
        log = EventLog()
        previous = set_event_log(log)
        try:
            assert get_event_log() is log
            assert timeline_enabled() is True
            assert emit("queue", 0.0, request_id=7) is not None
            assert log.request_ids() == [7]
        finally:
            set_event_log(previous)
        assert get_event_log() is previous
        assert timeline_enabled() is False
