"""Tests for the bench registry, snapshots and the regression comparator."""

from __future__ import annotations

import copy
import json

import pytest

from repro.obs import bench
from repro.obs.bench import (
    BenchError,
    BenchRecord,
    BenchSnapshot,
    SCENARIOS,
    SNAPSHOT_SCHEMA,
    Threshold,
    bench_scenario,
    classify_metric,
    compare_snapshots,
    next_snapshot_path,
    run_scenario,
    validate_snapshot,
)


def _snapshot(records, seed=0):
    return BenchSnapshot(
        fingerprint={"git_sha": "deadbeef", "seed": seed},
        records={name: BenchRecord(name, metrics=dict(metrics))
                 for name, metrics in records.items()})


class TestRegistry:
    def test_canonical_scenarios_registered(self):
        expected = {"decode.greedy", "prefill", "waves.n4", "waves.n16",
                    "chaos.waves", "speculative.greedy", "kernel.gemm",
                    "kernel.attention"}
        assert expected <= set(SCENARIOS)
        assert len(SCENARIOS) >= 6

    def test_duplicate_registration_raises(self):
        with pytest.raises(BenchError):
            @bench_scenario("decode.greedy", "dupe")
            def _dupe(ctx):
                raise AssertionError("never run")

    def test_unknown_scenario_raises(self):
        with pytest.raises(BenchError, match="unknown bench scenario"):
            run_scenario("no.such.scenario")
        with pytest.raises(BenchError, match="unknown device"):
            run_scenario("kernel.gemm", device_key="no_such_device")

    def test_run_scenario_restores_the_context(self):
        from repro.obs import current

        before = current()
        record = run_scenario("kernel.gemm")
        assert current() is before
        assert record.metrics["sim_seconds"] > 0.0
        assert "wall_seconds" in record.metrics
        assert record.info["device"] == "oneplus_12"

    @pytest.mark.parametrize("name", ["waves.n4", "kernel.gemm"])
    def test_record_is_the_same_whether_the_caller_traces(self, name):
        """``util_*`` comes from the energy ledger, and the scenario runs
        untraced in its own scope, so a caller's tracer changes nothing
        in the record and records nothing."""
        from repro.obs import Tracer, scope

        plain = run_scenario(name)
        tracer = Tracer(enabled=True)
        with scope(tracer=tracer):
            traced = run_scenario(name)
        for record in (plain, traced):
            del record.metrics["wall_seconds"]
        assert traced == plain
        assert tracer.finished_spans() == []
        assert {f"util_{lane}" for lane in ("hmx", "hvx", "dma", "cpu")} \
            <= set(plain.metrics)
        assert 0.0 < plain.metrics["util_hmx"] < 1.0

    def test_scenario_is_deterministic_in_sim_metrics(self):
        first = run_scenario("kernel.attention")
        second = run_scenario("kernel.attention")
        for key in ("sim_seconds", "hvx_seconds"):
            assert first.metrics[key] == second.metrics[key]


class TestSnapshotSerialization:
    def test_record_round_trip(self):
        record = BenchRecord("x", metrics={"sim_seconds": 1.5},
                             info={"batch": 4})
        assert BenchRecord.from_json(record.to_json()) == record

    def test_record_missing_fields_raises(self):
        with pytest.raises(BenchError):
            BenchRecord.from_json({"name": "x"})

    def test_snapshot_round_trip_via_disk(self, tmp_path):
        snap = _snapshot({"a": {"sim_seconds": 1.0}})
        path = snap.write(str(tmp_path / "BENCH_0.json"))
        loaded = BenchSnapshot.load(path)
        assert loaded.schema == SNAPSHOT_SCHEMA
        assert loaded.fingerprint == snap.fingerprint
        assert loaded.records == snap.records

    def test_load_errors_wrapped(self, tmp_path):
        with pytest.raises(BenchError, match="cannot read"):
            BenchSnapshot.load(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(BenchError, match="not JSON"):
            BenchSnapshot.load(str(bad))

    def test_validate_snapshot_errors(self):
        good = _snapshot({"a": {"sim_seconds": 1.0}}).to_json()
        validate_snapshot(good)  # sanity
        with pytest.raises(BenchError, match="must be an object"):
            validate_snapshot([])
        for key in ("schema", "fingerprint", "records"):
            broken = copy.deepcopy(good)
            del broken[key]
            with pytest.raises(BenchError, match="missing keys"):
                validate_snapshot(broken)
        broken = copy.deepcopy(good)
        broken["schema"] = "repro.bench/v999"
        with pytest.raises(BenchError, match="unsupported"):
            validate_snapshot(broken)
        broken = copy.deepcopy(good)
        broken["records"] = {}
        with pytest.raises(BenchError, match="no records"):
            validate_snapshot(broken)
        broken = copy.deepcopy(good)
        del broken["fingerprint"]["git_sha"]
        with pytest.raises(BenchError, match="git_sha"):
            validate_snapshot(broken)
        broken = copy.deepcopy(good)
        del broken["records"]["a"]["metrics"]
        with pytest.raises(BenchError, match="no metrics"):
            validate_snapshot(broken)

    def test_next_snapshot_path_numbering(self, tmp_path):
        directory = str(tmp_path / "history")
        assert next_snapshot_path(directory).endswith("BENCH_0.json")
        (tmp_path / "history" / "BENCH_0.json").write_text("{}")
        (tmp_path / "history" / "BENCH_7.json").write_text("{}")
        (tmp_path / "history" / "BENCH_x.json").write_text("{}")
        assert next_snapshot_path(directory).endswith("BENCH_8.json")


class TestClassifyMetric:
    def test_directions(self):
        assert classify_metric("tokens_per_second") == "higher"
        assert classify_metric("effective_gflops") == "higher"
        assert classify_metric("util_hmx") == "higher"
        assert classify_metric("sim_seconds") == "lower"
        assert classify_metric("peak_kv_bytes") == "lower"
        assert classify_metric("token_latency_p99_seconds") == "lower"
        assert classify_metric("wall_seconds") == "info"
        assert classify_metric("decode_steps") == "info"
        assert classify_metric("faults") == "info"


class TestComparator:
    def test_identical_snapshots_are_ok(self):
        snap = _snapshot({"a": {"sim_seconds": 1.0, "tokens_per_second": 9.0}})
        report = compare_snapshots(snap, _snapshot(
            {"a": {"sim_seconds": 1.0, "tokens_per_second": 9.0}}))
        assert report.ok
        assert not report.regressions
        assert "verdict: OK" in report.render()

    def test_sim_time_regression_detected(self):
        base = _snapshot({"a": {"sim_seconds": 1.0}})
        cand = _snapshot({"a": {"sim_seconds": 1.2}})  # +20% is bad
        report = compare_snapshots(base, cand)
        assert not report.ok
        (delta,) = report.regressions
        assert delta.metric == "sim_seconds"
        assert delta.rel_change == pytest.approx(0.2)
        assert "REGRESSION (1 metric(s))" in report.render()
        assert "REGRESSION" in report.render(markdown=True)

    def test_direction_awareness(self):
        base = _snapshot({"a": {"sim_seconds": 1.0, "tokens_per_second": 10.0,
                                "wall_seconds": 1.0}})
        cand = _snapshot({"a": {"sim_seconds": 0.5, "tokens_per_second": 20.0,
                                "wall_seconds": 99.0}})
        report = compare_snapshots(base, cand)
        assert report.ok
        assert {d.metric for d in report.improvements} == {
            "sim_seconds", "tokens_per_second"}
        # wall clock moved 99x but is informational, never gated
        wall = [d for d in report.deltas if d.metric == "wall_seconds"][0]
        assert wall.status == "ok"

    def test_noise_inside_threshold_is_ok(self):
        base = _snapshot({"a": {"sim_seconds": 1.0}})
        cand = _snapshot({"a": {"sim_seconds": 1.04}})  # under the 5% default
        assert compare_snapshots(base, cand).ok

    def test_threshold_overrides(self):
        base = _snapshot({"a": {"sim_seconds": 1.0}, "b": {"sim_seconds": 1.0}})
        cand = _snapshot({"a": {"sim_seconds": 1.1}, "b": {"sim_seconds": 1.1}})
        report = compare_snapshots(
            base, cand, thresholds={"a.sim_seconds": Threshold(rel=0.5)})
        assert [d.scenario for d in report.regressions] == ["b"]
        relaxed = compare_snapshots(
            base, cand, thresholds={"sim_seconds": Threshold(rel=0.5)})
        assert relaxed.ok

    def test_missing_and_new_scenarios_listed_not_gated(self):
        base = _snapshot({"a": {"sim_seconds": 1.0}, "old": {"sim_seconds": 1.0}})
        cand = _snapshot({"a": {"sim_seconds": 1.0}, "new": {"sim_seconds": 9.0}})
        report = compare_snapshots(base, cand)
        assert report.ok
        assert report.missing_scenarios == ["old"]
        assert report.new_scenarios == ["new"]
        text = report.render()
        assert "in baseline only" in text
        assert "new (no baseline)" in text

    def test_missing_and_new_metrics_within_scenario(self):
        base = _snapshot({"a": {"sim_seconds": 1.0, "dropped": 1.0}})
        cand = _snapshot({"a": {"sim_seconds": 1.0, "added": 2.0}})
        report = compare_snapshots(base, cand)
        assert report.ok
        statuses = {d.metric: d.status for d in report.deltas}
        assert statuses["dropped"] == "skipped"
        assert statuses["added"] == "new"

    def test_zero_baseline_regression_is_inf_relative(self):
        base = _snapshot({"a": {"peak_kv_bytes": 0.0}})
        cand = _snapshot({"a": {"peak_kv_bytes": 4096.0}})
        report = compare_snapshots(base, cand)
        assert not report.ok
        assert report.regressions[0].rel_change == float("inf")


class TestFingerprint:
    def test_fingerprint_fields(self):
        fp = bench.environment_fingerprint(seed=7)
        assert fp["seed"] == 7
        assert fp["git_sha"]
        assert fp["python"].count(".") >= 1
        assert fp["numpy"]

    def test_suite_snapshot_is_json_schema_valid(self, tmp_path):
        snap = bench.run_suite(only=["kernel.gemm", "kernel.attention"])
        path = snap.write(str(tmp_path / "BENCH_0.json"))
        data = json.loads(open(path).read())
        validate_snapshot(data)
        assert set(data["records"]) == {"kernel.gemm", "kernel.attention"}

    def test_run_suite_unknown_scenario_raises(self):
        with pytest.raises(BenchError, match="unknown bench scenario"):
            bench.run_suite(only=["nope"])
