"""Checks of the benchmark itself: python3 -m pytest perfbench/test_perfbench.py"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
from layers import PER_LAYER_METRICS
from workloads import DEFAULT_SEED, WORKLOADS


def _spec():
    with open(run.ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def test_benchmark_json_names_what_the_code_prints():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(PER_LAYER_METRICS)


def test_default_seed_passes_and_a_corrupted_digest_fails():
    result, _ = run.run_benchmark("fleet.1k", DEFAULT_SEED, 0.0, False)
    assert result["correct"] and result["attempted"] >= 1
    assert result["failed"] == 0

    corrupted = {"fleet.1k": "0" * 64}
    result, checks = run.run_benchmark("fleet.1k", DEFAULT_SEED, 0.0, False,
                                       digests=corrupted)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert any("digest" in problem for problem in checks.problems)


def test_traced_run_prints_every_per_layer_metric():
    result, _ = run.run_benchmark("fleet.1k", DEFAULT_SEED, 0.0, True)
    assert list(result["metrics"]) == [m for m, _, _ in PER_LAYER_METRICS]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["fail_ratio"] == 0.0
    assert metrics["sim.events_fired"] > 0
    assert metrics["fleet.run.self_s"] > 0.0
    assert metrics["kernels.attention.calls"] == 0
    # every operation starts with cold pricing caches, so it misses some
    assert 0.0 < metrics["fleet.price_cache.hit_ratio"] < 1.0


def test_without_simulator_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet.1k",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
