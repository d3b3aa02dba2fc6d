"""Tests for the structured event log (repro.obs.timeline)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import ObservabilityError
from repro.obs.blame import explain_section
from repro.obs.timeline import EVENT_KINDS, EventLog, TimelineEvent


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
        for t in (float("inf"), float("-inf")):
            with pytest.raises(ObservabilityError,
                               match=f"complete .* got {t}"):
                log.emit("complete", t, request_id=0)
        assert len(log) == 0

    def test_infinite_completion_is_refused_before_explain(self):
        # explain_section quantizes every time to integer nanoseconds,
        # which an infinite time cannot be: emit must refuse it first
        log = EventLog()
        log.emit("queue", 0.0, request_id=0)
        log.emit("dispatch", 1.0, request_id=0, device=0, joules=0.1)
        with pytest.raises(ObservabilityError, match="complete .* got inf"):
            log.emit("complete", float("inf"), request_id=0, device=0)
        log.emit("complete", 2.0, request_id=0, device=0)
        assert explain_section(log)["aggregate"]["n_requests"] == 1

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

    def test_chains_are_the_index_in_id_order(self):
        log = EventLog()
        log.emit("queue", 0.0, request_id=5)
        log.emit("queue", 0.0, request_id=2)
        log.emit("decode_step", 0.001, step=0)  # run-level: no chain
        log.emit("complete", 0.002, request_id=5, reason="served")
        chains = log.chains()
        assert [rid for rid, _ in chains] == log.request_ids() == [2, 5]
        for rid, chain in chains:
            assert chain == log.timeline(rid)
            assert all(a is b for a, b in zip(chain, log.timeline(rid)))

    def test_event_kinds_cover_the_serving_lifecycle(self):
        for kind in ("queue", "admit", "wave_assign", "prefill",
                     "decode_step", "fault", "retry", "rebuild", "evict",
                     "throttle", "deadline", "complete"):
            assert kind in EVENT_KINDS


class TestEventRecord:
    def test_refuses_field_assignment(self):
        event = EventLog().emit("admit", 0.5, request_id=1, slot=2)
        for field in TimelineEvent._fields:
            with pytest.raises(AttributeError):
                setattr(event, field, None)
        assert not dataclasses.is_dataclass(event)

    def test_compares_by_value(self):
        a = EventLog().emit("admit", 0.5, request_id=1, slot=2)
        b = EventLog().emit("admit", 0.5, request_id=1, slot=2)
        assert a is not b and a == b
        assert a == TimelineEvent(0, "admit", 0.5, 1, None, {"slot": 2})
        assert a != EventLog().emit("admit", 0.5, request_id=1, slot=3)

    def test_to_json_is_unchanged(self):
        log = EventLog()
        log.emit("queue", 0.0, request_id=9)
        event = log.emit("decode_step", 0.25, step=3, b=1, a=2.5)
        assert event.to_json() == {"seq": 1, "kind": "decode_step",
                                   "sim_time": 0.25, "step": 3,
                                   "attrs": {"a": 2.5, "b": 1}}
        assert list(event.to_json()["attrs"]) == ["a", "b"]
        assert log.events()[0].to_json() == {
            "seq": 0, "kind": "queue", "sim_time": 0.0, "request_id": 9}

    def test_no_attrs_is_an_immutable_empty_mapping(self):
        log = EventLog()
        bare = log.emit("queue", 0.0, request_id=0)
        other = log.emit("queue", 0.0, request_id=1)
        default = TimelineEvent(0, "queue", 0.0)
        for event in (bare, other, default):
            assert event.attrs == {} and not event.attrs
            with pytest.raises(TypeError):
                event.attrs["leak"] = True  # type: ignore[index]
        assert "leak" not in other.attrs and "leak" not in default.attrs
