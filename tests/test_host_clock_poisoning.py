"""Simulated outputs never read the host clock.

Every simulated number — ``sim_seconds``, joules, timeline timestamps,
bench metrics, goldens, oracle verdicts — must be a pure function of
(config, seed, fault plan).  These tests replace ``time.perf_counter``,
``time.monotonic`` and ``time.time`` with a seeded, strictly increasing
random walk and run each workload under two different walks: anything
that leaks host time into a simulated output serializes differently.
The second walk runs inside an outer observability scope with an
enabled tracer, a registry and an enabled event log, as a caller that
records would leave them: the output must not change, and a workload
that makes its own record must write nothing into those sinks.
The fleet, monitor and explain CLI replays run in subprocesses under
two ``PYTHONHASHSEED`` values, so hash-ordered iteration cannot leak
into their reports either.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import repro
from repro.fleet import run_fleet
from repro.harness.experiments import run_experiment
from repro.llm import ContinuousBatchingScheduler, InferenceEngine, Sampler
from repro.obs import EventLog, MetricsRegistry, Obs, Tracer, scope
from repro.obs.bench import SCENARIOS, run_scenario
from repro.resilience import FaultPlan
from repro.testing.fuzz import fuzz
from repro.testing.goldens import check_goldens
from repro.testing.oracles import ORACLES

WALK_SEEDS = (1, 2)

FLEET_EXPLAIN_ARGS = [
    "fleet", "--devices", "50", "--qps", "30", "--requests", "500",
    "--horizon-seconds", "120", "--seed", "0", "--no-capacity-plan",
    "--faults", "dev#0:crash@5:10,dev#7:straggle@3:3:20,dev#13:drop@8,"
                "dev#21:battery@12,dev#34:crash@15",
    "--hedge", "--explain"]

FLEET_DIURNAL_ARGS = [
    "fleet", "--devices", "50", "--qps", "25", "--requests", "500",
    "--horizon-seconds", "120", "--seed", "0", "--pattern", "diurnal"]


def _poison_clock(monkeypatch, seed: int) -> None:
    """Make every host clock read one seeded, strictly increasing walk."""
    rng = np.random.default_rng(seed)
    now = [float(rng.uniform(1e3, 1e6))]

    def walk() -> float:
        now[0] += float(rng.uniform(1e-7, 1e-1))
        return now[0]

    for name in ("perf_counter", "monotonic", "time"):
        monkeypatch.setattr(time, name, walk)


def _walk(monkeypatch, seed: int, run) -> str:
    """Serialize ``run()`` under the walk of ``seed``."""
    with monkeypatch.context() as patch:
        _poison_clock(patch, seed)
        return json.dumps(run(), sort_keys=True)


def _under_walks(monkeypatch, run, outer_events=()):
    """Serialize ``run()`` once under each walk; returns both strings.

    The second walk runs inside an outer scope of enabled sinks, which
    must end with no span, no instrument, and no event but
    ``outer_events`` (as ``to_json`` dicts).
    """
    first = _walk(monkeypatch, WALK_SEEDS[0], run)
    outer = Obs(Tracer(), MetricsRegistry(), EventLog())
    with scope(*outer):
        second = _walk(monkeypatch, WALK_SEEDS[1], run)
    assert outer.tracer.finished_spans() == []
    assert outer.metrics.snapshot() == {}
    assert [event.to_json() for event in outer.log.events()] \
        == list(outer_events)
    return first, second


def _with_timeline(generate):
    """Run ``generate()`` on a fresh event log; time, joules and events.

    ``generate`` builds its engine too: building one sets the rpcmem
    gauge in the registry of the scope it is built in.
    """
    log = EventLog()
    with scope(log=log):
        result = generate()
    return {"sim_seconds": result.sim_seconds, "joules": result.joules,
            "timeline": [event.to_json() for event in log.events()]}


def test_walks_poison_every_clock(monkeypatch):
    readings = []
    for seed in WALK_SEEDS:
        with monkeypatch.context() as patch:
            _poison_clock(patch, seed)
            ticks = [time.perf_counter(), time.monotonic(), time.time()]
        assert ticks == sorted(set(ticks))
        readings.append(ticks)
    assert readings[0] != readings[1]


def test_default_engine_generate(monkeypatch, tiny_model):
    def generate():
        engine = InferenceEngine(tiny_model, batch=2, max_context=32)
        return engine.generate([1, 2, 3], max_new_tokens=6,
                               sampler=Sampler(temperature=0.8, seed=3))

    first, second = _under_walks(monkeypatch,
                                 lambda: _with_timeline(generate))
    assert first == second
    assert json.loads(first)["sim_seconds"] > 0.0


def test_paged_scheduler_under_faults(monkeypatch, tiny_model):
    def generate():
        engine = InferenceEngine(tiny_model, batch=2, max_context=32,
                                 kv_backend="paged")
        plan = FaultPlan.parse("abort@2,throttle@1:efficiency:2")
        return ContinuousBatchingScheduler(engine).generate(
            [1, 2, 3], n_candidates=4, max_new_tokens=6,
            sampler=Sampler(temperature=0.8, seed=3), fault_plan=plan)

    first, second = _under_walks(monkeypatch,
                                 lambda: _with_timeline(generate))
    assert first == second
    kinds = {event["kind"] for event in json.loads(first)["timeline"]}
    assert {"retry", "rebuild", "throttle"} <= kinds


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_bench_scenario(monkeypatch, name):
    def run():
        record = run_scenario(name).to_json()
        del record["metrics"]["wall_seconds"]
        return record

    first, second = _under_walks(monkeypatch, run)
    assert first == second


def test_goldens(monkeypatch):
    def run():
        return [(m.case, m.message) for m in check_goldens()]

    first, second = _under_walks(monkeypatch, run)
    assert first == second == "[]"


def test_experiment(monkeypatch):
    first, second = _under_walks(
        monkeypatch, lambda: run_experiment("fig5").render())
    assert first == second
    assert "repro.tts.budgets_evaluated" in json.loads(first)


def _fleet_json(**options) -> str:
    return run_fleet(50, 20.0, horizon_seconds=10.0, seed=0,
                     **options).to_json_text()


@pytest.mark.parametrize("explain", [False, True])
def test_fleet_with_capacity_plan(monkeypatch, explain):
    """Capacity probes, and an explained run, record into no caller's
    sinks; a plain run's main simulation records into the caller's log
    what it records without the plan."""
    outer_events = []
    if not explain:
        log = EventLog()
        with scope(log=log):
            _fleet_json(with_capacity_plan=False)
        outer_events = [event.to_json() for event in log.events()]
        assert outer_events
    first, second = _under_walks(
        monkeypatch, lambda: _fleet_json(explain=explain), outer_events)
    assert first == second
    report = json.loads(json.loads(first))
    assert report["capacity"]["points"]
    assert ("explain" in report) == explain


def test_one_fuzz_trial_per_oracle(monkeypatch):
    def run():
        report = fuzz(len(ORACLES), seed=0, shrink=False)
        return [(t.oracle, t.repro, t.ok, t.result.notes)
                for t in report.trials]

    first, second = _under_walks(monkeypatch, run)
    assert first == second
    trials = json.loads(first)
    assert sorted(oracle for oracle, *_ in trials) == sorted(ORACLES)
    assert all(ok for _, _, ok, _ in trials)


@pytest.mark.parametrize("args", [
    pytest.param(FLEET_EXPLAIN_ARGS, id="fleet-explain"),
    pytest.param(FLEET_DIURNAL_ARGS, id="fleet-diurnal"),
    pytest.param(["monitor", "--scenario", "chaos.waves"], id="monitor"),
    pytest.param(["monitor", "--scenario", "mixed.prefill_decode"],
                 id="monitor-mixed"),
    pytest.param(["explain", "--scenario", "chaos.waves"], id="explain")])
def test_cli_replays_across_hash_seeds(tmp_path, args):
    package_root = os.path.dirname(os.path.dirname(repro.__file__))
    search_path = [package_root, os.environ.get("PYTHONPATH", "")]
    paths, runs = [], []
    for hash_seed in ("1", "2"):
        path = tmp_path / f"{args[0]}_{hash_seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, search_path)))
        paths.append(path)
        # stderr goes to a file, so neither child blocks on a full pipe
        with open(path.with_suffix(".err"), "wb") as stderr:
            runs.append(subprocess.Popen(
                [sys.executable, "-m", "repro", *args, "--json", str(path)],
                env=env, stdout=subprocess.DEVNULL, stderr=stderr,
                cwd=tmp_path))
    try:
        for run in runs:
            run.wait(timeout=120)
    finally:
        for run in runs:
            run.kill()
            run.wait()
    for path, run in zip(paths, runs):
        assert run.returncode == 0, path.with_suffix(".err").read_text()
    outputs = [path.read_bytes() for path in paths]
    assert outputs[0] == outputs[1]
    report = json.loads(outputs[0])
    if "--explain" in args:
        assert report["explain"]["aggregate"]["n_requests"] > 0
    elif args[0] == "fleet":
        assert "explain" not in report
        assert report["capacity"]["points"]
    else:
        assert report["n_events"] > 0
