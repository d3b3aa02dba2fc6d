"""Fuzz loop, repro strings, and the shrinker."""

import io

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.errors import TestingError
from repro.testing import (
    ORACLES,
    FuzzReport,
    Oracle,
    OracleResult,
    TrialOutcome,
    format_repro,
    fuzz,
    parse_repro,
    run_repro,
    shrink_failure,
)

pytestmark = pytest.mark.fuzz


# ----------------------------------------------------------------------
# repro strings
# ----------------------------------------------------------------------
def test_format_parse_round_trip():
    config = {"batch": 4, "dtype": "q8", "block_size": 3, "seed": 12345}
    repro = format_repro("paged_kv", config)
    name, parsed = parse_repro(repro)
    assert name == "paged_kv"
    assert parsed == config


def test_format_is_canonical_sorted():
    assert format_repro("gemm", {"b": 2, "a": 1}) == "gemm::a=1,b=2"


def test_parse_rejects_unknown_oracle():
    with pytest.raises(TestingError, match="unknown oracle"):
        parse_repro("bogus::a=1")


def test_parse_rejects_malformed_strings():
    with pytest.raises(TestingError, match="malformed"):
        parse_repro("no separator here")
    with pytest.raises(TestingError, match="malformed"):
        parse_repro("gemm::keyvalue")


def test_format_rejects_non_scalar_values():
    with pytest.raises(TestingError, match="not int or str"):
        format_repro("gemm", {"shape": (1, 2)})
    with pytest.raises(TestingError, match="reserved"):
        format_repro("gemm", {"s": "a,b"})


def test_run_repro_replays_exact_trial():
    """The acceptance property: a repro string IS the trial."""
    report = fuzz(6, seed=123, shrink=False)
    for trial in report.trials:
        replayed = run_repro(trial.repro)
        assert replayed.ok == trial.ok
        assert replayed.config == trial.result.config
        assert replayed.notes == trial.result.notes


# ----------------------------------------------------------------------
# the fuzz loop
# ----------------------------------------------------------------------
def test_fuzz_is_deterministic_per_seed():
    a = fuzz(8, seed=7, shrink=False)
    b = fuzz(8, seed=7, shrink=False)
    assert [t.repro for t in a.trials] == [t.repro for t in b.trials]
    assert [t.ok for t in a.trials] == [t.ok for t in b.trials]


def test_fuzz_seeds_differ():
    a = fuzz(8, seed=1, shrink=False)
    b = fuzz(8, seed=2, shrink=False)
    assert [t.repro for t in a.trials] != [t.repro for t in b.trials]


def test_fuzz_covers_every_oracle():
    n = len(ORACLES)
    report = fuzz(2 * n, seed=0, shrink=False)
    assert set(report.per_oracle_counts()) == set(ORACLES)
    assert all(count == 2 for count in report.per_oracle_counts().values())


def test_fuzz_oracle_filter():
    report = fuzz(5, seed=0, oracles=["gemm"], shrink=False)
    assert set(report.per_oracle_counts()) == {"gemm"}
    with pytest.raises(TestingError, match="unknown oracle"):
        fuzz(2, seed=0, oracles=["gemm", "bogus"])


def test_fuzz_rejects_nonpositive_trials():
    with pytest.raises(TestingError, match="positive"):
        fuzz(0, seed=0)


def test_fuzz_progress_callback_sees_every_trial():
    seen = []
    fuzz(4, seed=0, shrink=False, progress=seen.append)
    assert [t.index for t in seen] == [0, 1, 2, 3]


# ----------------------------------------------------------------------
# the shrinker, against a synthetic buggy oracle
# ----------------------------------------------------------------------
class _BuggyOracle(Oracle):
    """Fails whenever size >= 8 and mode == 'fancy' — so the minimal
    failing config is exactly {size: 8, mode: 'fancy'}."""

    name = "_buggy"
    SHRINK_MINS = {"size": 1, "extra": 0}
    SHRINK_RESETS = {"mode": "plain"}

    def __init__(self):
        self.runs = 0

    def sample_config(self, rng):
        return {"size": int(rng.integers(1, 64)),
                "extra": int(rng.integers(0, 100)),
                "mode": ("plain", "fancy")[int(rng.integers(2))]}

    def run(self, config):
        self.runs += 1
        if int(config["size"]) >= 8 and config["mode"] == "fancy":
            return self.failed(config, "tokens", "synthetic divergence")
        return self.passed(config)


@pytest.fixture
def buggy_oracle():
    oracle = _BuggyOracle()
    ORACLES[oracle.name] = oracle
    try:
        yield oracle
    finally:
        del ORACLES[oracle.name]


def test_shrinker_minimizes_to_the_boundary(buggy_oracle):
    config = {"size": 57, "extra": 93, "mode": "fancy"}
    shrunk, result = shrink_failure(buggy_oracle, config)
    assert not result.ok
    assert shrunk["size"] == 8, "shrinker should reach the failure boundary"
    assert shrunk["extra"] == 0, "irrelevant key should shrink to minimum"
    assert shrunk["mode"] == "fancy", "failure-carrying categorical kept"


def test_shrinker_respects_budget(buggy_oracle):
    config = {"size": 57, "extra": 93, "mode": "fancy"}
    shrink_failure(buggy_oracle, config, budget=5)
    # 1 initial confirmation run + at most 5 shrink runs
    assert buggy_oracle.runs <= 6


def test_shrinker_rejects_passing_configs(buggy_oracle):
    with pytest.raises(TestingError, match="passing config"):
        shrink_failure(buggy_oracle, {"size": 1, "extra": 0, "mode": "plain"})


def test_every_oracle_run_records_into_its_own_scope(buggy_oracle,
                                                     monkeypatch):
    """Trials, shrink steps and replays each run in a scope of their
    own, so an oracle that records reaches none of its caller's sinks."""
    from repro.obs import EventLog, MetricsRegistry, Obs, Tracer, current
    from repro.obs import scope

    seen = []
    run = buggy_oracle.run

    def recording_run(config):
        sinks = current()
        seen.append(sinks)
        with sinks.tracer.span("oracle"):
            sinks.metrics.counter("repro.test.runs").inc()
            sinks.log.emit("queue", 0.0, request_id=0)
        return run(config)

    monkeypatch.setattr(buggy_oracle, "run", recording_run)
    outer = Obs(Tracer(), MetricsRegistry(), EventLog())
    with scope(*outer):
        report = fuzz(12, seed=5, oracles=["_buggy"])
        run_repro(report.failures[0].shrunk_repro)
    assert len(seen) > 12 and outer not in seen
    assert outer.tracer.finished_spans() == []
    assert outer.metrics.snapshot() == {} and len(outer.log) == 0


def test_report_counts_line_up_for_every_oracle_name():
    """Each per-oracle line puts its trial count in one column, also for
    names longer than 12 characters."""
    trials = [TrialOutcome(index=i, oracle=name, repro=f"{name}::seed={i}",
                           ok=True, result=OracleResult(name, {}, ok=True))
              for i, name in enumerate(["prefill.chunked", "hmx", "hmx"])]
    lines = FuzzReport(seed=0, trials=trials).render().splitlines()[1:]
    assert [line.split()[:2] for line in lines] == [["hmx", "2"],
                                                   ["prefill.chunked", "1"]]
    assert len({line.index(" trials") for line in lines}) == 1


def test_listed_oracle_descriptions_line_up():
    out = io.StringIO()
    assert cli_main(["fuzz", "--list-oracles"], out=out) == 0
    lines = out.getvalue().splitlines()
    assert sorted(line.split()[0] for line in lines) == sorted(ORACLES)
    assert len({line.index(ORACLES[line.split()[0]].description)
                for line in lines}) == 1


def test_fuzz_reports_shrunk_repro_for_failures(buggy_oracle):
    report = fuzz(12, seed=5, oracles=["_buggy"])
    failures = report.failures
    assert failures, "the synthetic oracle should fail some trials"
    for trial in failures:
        assert trial.shrunk_repro is not None
        name, config = parse_repro(trial.shrunk_repro)
        assert name == "_buggy"
        assert config["size"] == 8 and config["mode"] == "fancy"
    rendered = report.render()
    assert "FAIL" in rendered and "shrunk:" in rendered
    assert not report.ok
