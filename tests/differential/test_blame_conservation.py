"""Differential invariants of the critical-path blame attribution.

The explain layer's contract is *bitwise* conservation: for every
request of a recorded run, per-phase blame nanoseconds sum exactly to
the request's end-to-end latency, per-phase nanojoules sum exactly to
its attributed energy, and folding the log through a fresh energy
ledger reproduces the run's own reported joules bit-for-bit.
These tests pin that under the nastiest runs the repo can produce — a
chaos-faulted scheduler wave and a chaos-faulted, hedged 50-device
fleet — plus the ledger totality (``offered == explained``), replay
byte-equality, and the lifecycle validator's rejection of broken logs.
"""

import json

import pytest

from repro.errors import ObservabilityError
from repro.fleet import run_fleet
from repro.obs.blame import aggregate_blame, explain_section, run_explain
from repro.obs.critical_path import (PhaseSlice, assert_lifecycle,
                                     explain_fleet_log, explain_log,
                                     quantize_ns, validate_lifecycle)
from repro.obs.energy import EnergyAccountant
from repro.obs.slo import percentile_cutoff
from repro.obs import scope
from repro.obs.timeline import EventLog

FLEET_FAULTS = ("dev#0:crash@3:6,dev#1:straggle@2:3:10,dev#2:drop@5,"
                "dev#3:battery@8,dev#4:crash@12")


# ----------------------------------------------------------------------
# scheduler-side conservation (chaos Best-of-N waves)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def chaos_explain():
    return run_explain("chaos.waves", seed=0)


def test_scheduler_blame_sums_to_latency(chaos_explain):
    assert chaos_explain.explanations, "chaos.waves explained no requests"
    for expl in chaos_explain.explanations:
        assert sum(expl.blame_ns.values()) == expl.latency_ns
        expl.check_conservation()  # must not raise


def test_scheduler_energy_partitions_exactly(chaos_explain):
    for expl in chaos_explain.explanations:
        assert sum(expl.energy_nj.values()) == expl.total_nj


def test_log_fold_reproduces_completed_joules_bitwise(chaos_explain):
    ledger = EnergyAccountant()
    completed = 0
    for event in chaos_explain.log.events():
        ledger.charge(event.kind, event.attrs, event.request_id)
        if event.kind == "complete":
            completed += 1
            folded = ledger.request_joules(event.request_id)
            assert folded == event.attrs["joules"], (
                f"request {event.request_id}: fold {folded!r} != run's "
                f"own {event.attrs['joules']!r}")
    assert completed


def test_scheduler_slices_telescope(chaos_explain):
    for expl in chaos_explain.explanations:
        covered = sum(s.duration_ns for s in expl.slices)
        assert covered == expl.latency_ns
        for a, b in zip(expl.slices, expl.slices[1:]):
            assert a.end_ns == b.start_ns, "waterfall has a gap"


def test_scheduler_lifecycle_is_clean(chaos_explain):
    assert chaos_explain.lifecycle_problems == []
    assert_lifecycle(chaos_explain.log)  # must not raise


def test_scheduler_wave_events_pair(chaos_explain):
    starts = chaos_explain.log.by_kind("wave_start")
    ends = chaos_explain.log.by_kind("wave_end")
    assert starts, "scheduler run emitted no wave_start"
    started = {e.attrs["wave"] for e in starts}
    for end in ends:
        assert end.attrs["wave"] in started


def test_explain_double_run_is_byte_identical():
    first = run_explain("chaos.waves", seed=0)
    second = run_explain("chaos.waves", seed=0)
    assert first.to_json_text() == second.to_json_text()


# ----------------------------------------------------------------------
# fleet-side conservation (50 devices, chaos faults, hedging)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fleet_run():
    log = EventLog(enabled=True)
    with scope(log=log):
        report = run_fleet(50, 30.0, horizon_seconds=10.0, seed=7,
                           with_capacity_plan=False,
                           fault_spec=FLEET_FAULTS, hedge=True)
    kind, explanations = explain_log(log)
    assert kind == "fleet"
    return report, log, explanations


def test_fleet_ledger_is_total(fleet_run):
    report, _log, explanations = fleet_run
    assert report.requests["offered"] == len(explanations)


def test_fleet_blame_sums_to_latency(fleet_run):
    _report, _log, explanations = fleet_run
    assert explanations
    for expl in explanations:
        assert sum(expl.blame_ns.values()) == expl.latency_ns
        assert sum(expl.energy_nj.values()) == expl.total_nj


def test_fleet_outcomes_match_report_ledger(fleet_run):
    report, _log, explanations = fleet_run
    by_outcome = {}
    for expl in explanations:
        by_outcome[expl.outcome] = by_outcome.get(expl.outcome, 0) + 1
    assert by_outcome.get("completed", 0) == report.requests["completed"]
    assert by_outcome.get("shed", 0) == report.requests["shed"]


def test_fleet_dispatch_attrs_in_emit_order(fleet_run):
    # trace exports write attrs in this order; only hedge legs say so
    _report, log, _explanations = fleet_run
    dispatches = log.by_kind("dispatch")
    plain = ["device", "generation", "wait_seconds", "service_seconds",
             "joules"]
    assert any(e.attrs.get("hedged") for e in dispatches)
    for event in dispatches:
        expected = plain + (["hedged"] if "hedged" in event.attrs else [])
        assert list(event.attrs) == expected
        assert event.attrs.get("hedged", True) is True


def test_fleet_lifecycle_is_clean(fleet_run):
    _report, log, _explanations = fleet_run
    assert validate_lifecycle(log) == []


def test_chain_index_matches_a_full_log_scan(fleet_run, chaos_explain):
    # the per-request index must hand back exactly what scanning the
    # whole log would: the same event objects, in emission order
    for log in (fleet_run[1], chaos_explain.log):
        events = log.events()
        ids = {e.request_id for e in events} - {None}
        assert ids
        assert log.request_ids() == sorted(ids)
        for rid in ids:
            scanned = [e for e in events if e.request_id == rid]
            chain = log.timeline(rid)
            assert len(chain) == len(scanned)
            assert all(a is b for a, b in zip(chain, scanned))


def test_fleet_latencies_match_quantized_measurement(fleet_run):
    # the blame ledger's end-to-end latency is the quantized span of
    # the request's own chain — no resynthesis, no estimation
    _report, log, explanations = fleet_run
    for expl in explanations:
        chain = log.timeline(expl.request_id)
        assert expl.start_ns == quantize_ns(chain[0].sim_time)


def test_fleet_explain_report_double_run_is_byte_identical():
    def one():
        return run_fleet(50, 30.0, horizon_seconds=10.0, seed=7,
                         with_capacity_plan=False, fault_spec=FLEET_FAULTS,
                         hedge=True, explain=True)

    first, second = one(), one()
    assert first.to_json_text() == second.to_json_text()
    explain = first.explain
    assert explain is not None
    agg = explain["aggregate"]
    assert agg["n_requests"] == first.requests["offered"]
    assert sum(agg["blame_ns"].values()) == agg["total_latency_ns"]
    assert sum(agg["energy_nj"].values()) == agg["total_nj"]
    assert agg["dominant_phase"] in agg["blame_ns"]
    for cohort in agg["cohorts"].values():
        assert cohort["dominant_phase"] in cohort["blame_ns"]


def test_fleet_explain_does_not_perturb_the_run():
    kwargs = dict(horizon_seconds=10.0, seed=7, with_capacity_plan=False,
                  fault_spec=FLEET_FAULTS, hedge=True)
    plain = run_fleet(50, 30.0, **kwargs).to_json()
    explained = run_fleet(50, 30.0, explain=True, **kwargs).to_json()
    explained.pop("explain")
    assert json.dumps(plain, sort_keys=True) == \
        json.dumps(explained, sort_keys=True)


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def test_aggregate_rejects_broken_conservation(chaos_explain):
    expl = chaos_explain.explanations[0]
    broken = type(expl)(request_id=0, kind="scheduler", outcome="length",
                        start_ns=0, end_ns=100,
                        blame_ns={"decode": 50})  # 50 != 100
    with pytest.raises(ObservabilityError, match="blame sums"):
        aggregate_blame([broken])


def test_percentile_cutoff_nearest_rank():
    values = list(range(1, 101))
    assert percentile_cutoff(values, 50.0) == 50
    assert percentile_cutoff(values, 99.0) == 99
    assert percentile_cutoff(values, 100.0) == 100
    assert percentile_cutoff([7], 99.0) == 7
    with pytest.raises(ObservabilityError):
        percentile_cutoff([], 50.0)
    with pytest.raises(ObservabilityError):
        percentile_cutoff([1], 0.0)


def test_fleet_slices_match_the_per_event_fold(fleet_run):
    # the walk extends the open slice while the phase holds; folding one
    # slice per event and merging same-phase neighbours must give the
    # same waterfall and blame
    _report, log, explanations = fleet_run
    for expl in explanations:
        chain = log.timeline(expl.request_id)
        slices, blame = [], {}
        for prev, event in zip(chain, chain[1:]):
            start, end = quantize_ns(prev.sim_time), quantize_ns(
                event.sim_time)
            if end <= start:
                continue
            phase = _span_phase(event)
            blame[phase] = blame.get(phase, 0) + end - start
            if slices and slices[-1][0] == phase and slices[-1][2] == start:
                slices[-1] = (phase, slices[-1][1], end)
            else:
                slices.append((phase, start, end))
        assert [tuple(s) for s in expl.slices] == slices
        assert expl.blame_ns == blame


def _span_phase(event) -> str:
    """The phase of the span a fleet event ends (the walk's taxonomy)."""
    attrs = event.attrs
    if event.kind == "dispatch":
        return "service" if attrs.get("hedged") else "queue_wait"
    if event.kind == "failover":
        return "service_lost"
    if event.kind == "queue":
        return "failover_backoff" if attrs.get("reoffer") else "queue_wait"
    if event.kind == "shed":
        return "queue_wait"
    return "service"  # a completion, a hedge launch or a hedge cancel


def test_phase_slice_is_an_immutable_value():
    piece = PhaseSlice("service", 10, 35)
    assert piece == PhaseSlice("service", 10, 35)
    assert piece != PhaseSlice("service", 10, 36)
    assert piece.duration_ns == 25
    assert piece.to_json() == ["service", 10, 35]
    for field in PhaseSlice._fields:
        with pytest.raises(AttributeError):
            setattr(piece, field, 0)


# ----------------------------------------------------------------------
# lifecycle validator catches synthetic violations
# ----------------------------------------------------------------------
def _assert_explain_refuses(log: EventLog) -> None:
    """explain_section must refuse the log with exactly the problems
    validate_lifecycle lists, in order."""
    problems = validate_lifecycle(log)
    assert problems
    with pytest.raises(ObservabilityError) as refused:
        explain_section(log)
    assert str(refused.value) == (
        "cannot explain an incomplete timeline:\n  "
        + "\n  ".join(problems))


def test_validator_flags_complete_without_admit():
    log = EventLog(enabled=True)
    log.emit("queue", 0.0, request_id=0)
    log.emit("complete", 1.0, request_id=0, reason="length")
    problems = validate_lifecycle(log)
    assert any("complete without an admit" in p for p in problems)
    _assert_explain_refuses(log)


def test_validator_flags_time_regression():
    log = EventLog(enabled=True)
    log.emit("queue", 1.0, request_id=0)
    log.emit("admit", 0.5, request_id=0)
    problems = validate_lifecycle(log)
    assert any("time regresses" in p for p in problems)
    _assert_explain_refuses(log)


def test_validator_flags_overlapping_dispatch_legs():
    log = EventLog(enabled=True)
    log.emit("queue", 0.0, request_id=0)
    log.emit("dispatch", 0.1, request_id=0, device=1)
    log.emit("dispatch", 0.2, request_id=0, device=2)  # not hedged
    log.emit("complete", 0.3, request_id=0, device=1)
    problems = validate_lifecycle(log)
    assert any("overlapping non-hedged dispatch" in p for p in problems)
    _assert_explain_refuses(log)


def test_validator_flags_unclosed_leg():
    log = EventLog(enabled=True)
    log.emit("queue", 0.0, request_id=0)
    log.emit("dispatch", 0.1, request_id=0, device=1)
    problems = validate_lifecycle(log)
    assert any("never closed" in p for p in problems)
    _assert_explain_refuses(log)


def test_validator_flags_events_after_terminal():
    log = EventLog(enabled=True)
    log.emit("queue", 0.0, request_id=0)
    log.emit("dispatch", 0.1, request_id=0, device=1)
    log.emit("complete", 0.2, request_id=0, device=1)
    log.emit("dispatch", 0.3, request_id=0, device=2)
    problems = validate_lifecycle(log)
    assert any("after terminal" in p for p in problems)
    _assert_explain_refuses(log)


def test_assert_lifecycle_raises_with_every_problem():
    log = EventLog(enabled=True)
    log.emit("queue", 1.0, request_id=0)
    log.emit("dispatch", 0.5, request_id=0, device=1)
    with pytest.raises(ObservabilityError, match="lifecycle"):
        assert_lifecycle(log)


# ----------------------------------------------------------------------
# one leg-closing rule: validate and explain agree on every leg
# ----------------------------------------------------------------------
def _leg_chain(*events) -> EventLog:
    log = EventLog(enabled=True)
    log.emit("queue", 0.0, request_id=0, tenant="interactive")
    for t, kind, attrs in events:
        log.emit(kind, t, request_id=0, **attrs)
    return log


def _open_legs(problems) -> str:
    """The devices validate_lifecycle calls never closed ('' if none)."""
    found = [p for p in problems if "never closed" in p]
    assert len(found) <= 1
    return found[0].split("(devices ")[1].rstrip(")") if found else ""


@pytest.mark.parametrize("events, unclosed, other_nj, energy", [
    # a complete naming a device with no open leg closes nothing
    ([(0.1, "dispatch", {"device": 1, "joules": 1.0}),
      (0.3, "complete", {"device": 2, "tokens": 4})],
     "[1]", 1_000_000_000, {}),
    # a dispatch without a device attr is closed only by an event that
    # names no device ...
    ([(0.1, "dispatch", {"joules": 2.0}),
      (0.3, "complete", {"device": 1, "tokens": 4})],
     "[None]", 2_000_000_000, {}),
    ([(0.1, "dispatch", {"joules": 2.0}),
      (0.3, "complete", {"tokens": 4})],
     "", 0, {"service": 2_000_000_000}),
    # ... and such an event closes the oldest open leg, whatever its
    # device
    ([(0.1, "dispatch", {"device": 1, "joules": 1.0}),
      (0.2, "dispatch", {"device": 2, "joules": 2.0, "hedged": True}),
      (0.3, "complete", {"tokens": 4})],
     "[2]", 2_000_000_000, {"service": 1_000_000_000}),
    # a hedged pair: the named winner closes its own leg, the cancel
    # closes the loser's
    ([(0.1, "dispatch", {"device": 1, "joules": 1.0}),
      (0.2, "dispatch", {"device": 2, "joules": 2.0, "hedged": True}),
      (0.3, "complete", {"device": 2, "tokens": 4}),
      (0.3, "hedge", {"loser": 1, "winner": 2, "cancelled": True})],
     "", 0, {"service": 2_000_000_000, "hedge_wasted": 1_000_000_000}),
])
def test_explain_and_validate_close_the_same_legs(events, unclosed,
                                                  other_nj, energy):
    log = _leg_chain(*events)
    assert _open_legs(validate_lifecycle(log)) == unclosed
    (expl,) = explain_fleet_log(log)
    assert expl.energy_nj.get("other", 0) == other_nj
    assert {k: v for k, v in expl.energy_nj.items() if k != "other"} \
        == energy
    assert expl.total_nj == sum(expl.energy_nj.values())
    if unclosed:
        _assert_explain_refuses(log)
    else:
        assert explain_section(log)["aggregate"]["n_requests"] == 1
