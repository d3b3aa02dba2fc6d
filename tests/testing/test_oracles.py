"""Unit tests for the differential-oracle harness."""

import itertools

import numpy as np
import pytest

from repro.errors import TestingError
from repro.npu.hmx import HMXUnit
from repro.testing import (
    ORACLES,
    diff_arrays,
    get_oracle,
    run_repro,
    ulp_distance_fp16,
)

EXPECTED_ORACLES = {"gemm", "hmx", "attention", "paged_kv", "fault_noop",
                    "speculative", "checkpoint", "fleet", "tile_quant"}


def test_registry_contains_the_paper_pairings():
    assert EXPECTED_ORACLES <= set(ORACLES)


def test_get_oracle_rejects_unknown_names():
    with pytest.raises(TestingError, match="unknown oracle"):
        get_oracle("nonexistent")


# ----------------------------------------------------------------------
# diff primitives
# ----------------------------------------------------------------------
def test_ulp_distance_zero_iff_bitwise_equal():
    a = np.array([1.0, -2.5, 0.0, 65504.0], dtype=np.float16)
    assert ulp_distance_fp16(a, a.copy()).max() == 0


def test_ulp_distance_counts_representable_steps():
    a = np.array([1.0], dtype=np.float16)
    b = np.nextafter(a, np.float16(2.0))
    assert ulp_distance_fp16(b, a)[0] == 1
    # crossing zero: -1ulp to +1ulp is two steps
    tiny = np.nextafter(np.float16(0.0), np.float16(1.0))
    assert ulp_distance_fp16(np.array([-tiny]), np.array([tiny]))[0] == 2


def test_diff_arrays_reports_first_mismatch_position():
    a = np.zeros((3, 4), dtype=np.float16)
    b = a.copy()
    b[1, 2] = np.float16(0.5)
    diff = diff_arrays(b, a)
    assert not diff.bitwise_equal
    assert diff.n_diff == 1
    assert diff.first_index == (1, 2)
    assert diff.max_abs == 0.5


def test_diff_arrays_bitwise_equal_case():
    a = np.arange(6, dtype=np.float16).reshape(2, 3)
    diff = diff_arrays(a, a.copy())
    assert diff.bitwise_equal
    assert diff.max_abs == 0.0 and diff.max_ulp == 0


def test_diff_arrays_rejects_shape_mismatch():
    with pytest.raises(TestingError, match="cannot diff"):
        diff_arrays(np.zeros(3), np.zeros(4))


# ----------------------------------------------------------------------
# every oracle passes on sampled and shrunk-canonical configs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(EXPECTED_ORACLES))
def test_oracle_passes_on_sampled_config(name):
    oracle = get_oracle(name)
    config = oracle.sample_config(
        np.random.default_rng([99, sum(name.encode()) % 97]))
    result = oracle.run(config)
    assert result.ok, result.mismatch and result.mismatch.message
    assert result.oracle == name
    assert result.config == config


@pytest.mark.parametrize("name", sorted(EXPECTED_ORACLES))
def test_oracle_run_is_deterministic(name):
    """Two runs of the same config produce identical outcomes/notes."""
    oracle = get_oracle(name)
    config = oracle.sample_config(np.random.default_rng([7, 1]))
    first = oracle.run(config)
    second = oracle.run(config)
    assert first.ok == second.ok
    assert first.notes == second.notes


@pytest.mark.parametrize("name", sorted(EXPECTED_ORACLES))
def test_shrink_steps_produce_valid_distinct_configs(name):
    oracle = get_oracle(name)
    config = oracle.sample_config(np.random.default_rng([13, 5]))
    seen = set()
    for candidate in oracle.shrink_steps(config):
        assert candidate != config
        key = tuple(sorted(candidate.items()))
        assert key not in seen, "shrinker yielded a duplicate candidate"
        seen.add(key)
        # every shrunk config must still be runnable
        assert set(candidate) == set(config)


def test_gemm_shrink_keeps_baseline_tile_aligned():
    oracle = get_oracle("gemm")
    config = {"m": 17, "k": 64, "n": 96, "bits": 8,
              "strategy": "baseline", "seed": 3}
    for candidate in oracle.shrink_steps(config):
        if candidate["strategy"] == "baseline":
            assert candidate["k"] % 32 == 0
            assert candidate["n"] % 32 == 0


def test_attention_normalize_keeps_causal_queries_covered():
    oracle = get_oracle("attention")
    config = oracle.normalize({"n_q": 24, "n_kv": 3, "head_dim": 16,
                               "method": "lut", "causal": 1, "seed": 0})
    assert config["n_kv"] >= config["n_q"]


def test_attention_repro_without_group_replays_as_group_one():
    """A repro string written before groups runs its old trial."""
    old = ("attention::causal=1,head_dim=16,items=4,method=lut,n_kv=70,"
           "n_q=3,seed=5")
    result = run_repro(old)
    assert result.ok, result.mismatch and result.mismatch.message
    assert result.config["group"] == 1
    # the error the trial measured before groups existed
    assert result.notes == {"max_abs": 0.00048828125}
    assert result.notes == run_repro(old + ",group=1").notes


def test_speculative_oracle_same_draft_always_agrees():
    oracle = get_oracle("speculative")
    result = oracle.run({"draft_len": 4, "prompt_len": 6, "new_tokens": 12,
                         "draft_seed": 0, "seed": 5})
    assert result.ok
    assert result.notes["acceptance_rate"] == 1.0


def test_speculative_oracle_disagreeing_draft_still_token_identical():
    oracle = get_oracle("speculative")
    result = oracle.run({"draft_len": 4, "prompt_len": 6, "new_tokens": 12,
                         "draft_seed": 1, "seed": 5})
    assert result.ok
    assert result.notes["acceptance_rate"] < 1.0


def test_missing_config_keys_raise_testing_error():
    with pytest.raises(TestingError, match="missing keys"):
        get_oracle("gemm").run({"m": 4})


# ----------------------------------------------------------------------
# the gemm oracle's error bound
# ----------------------------------------------------------------------
CANCELLING_GEMM = "gemm::bits=4,k=88,m=31,n=96,seed=785388898,strategy=ours"


def test_gemm_oracle_allows_cancellation_within_its_bound():
    """3 ULP on a 7.85e-5 output cancelled from products totalling 6.8."""
    result = run_repro(CANCELLING_GEMM)
    assert result.ok, result.mismatch and result.mismatch.message
    assert result.notes["max_ulp"] == 3


@pytest.mark.parametrize("mutation", ["fp16 between K tiles",
                                      "last K tile dropped"])
def test_gemm_oracle_bound_still_catches(monkeypatch, mutation):
    """The bound is loose only by the FP32 summation term.

    The pinned configuration has three K tiles, so every third K step is
    the last.
    """
    accumulate = HMXUnit._accumulate_k_tile
    steps = itertools.count()

    def mutated(activation_tiles, weight_tiles, accumulator):
        last = next(steps) % 3 == 2
        if mutation == "last K tile dropped" and last:
            return
        accumulate(activation_tiles, weight_tiles, accumulator)
        if mutation == "fp16 between K tiles":
            accumulator[...] = accumulator.astype(np.float16)

    monkeypatch.setattr(HMXUnit, "_accumulate_k_tile", staticmethod(mutated))
    result = run_repro(CANCELLING_GEMM)
    assert not result.ok and result.mismatch.kind == "ulp"


# ----------------------------------------------------------------------
# the fleet oracle fails on a diverged replay or an open ledger
# ----------------------------------------------------------------------
# mutation -> (config fields it needs, the check its failure must name)
FLEET_MUTATIONS = {
    "second replay differs": ({}, "replay diverged"),
    "completed request lost": ({}, "request conservation violated"),
    "chaos ledger disagrees": ({"hedge": 1}, "chaos ledger disagrees"),
    "token p95 above p99": ({}, "percentiles out of order"),
    "explain under-counts": ({"explain": 1}, "explain ledger not total"),
    "blame phase off total": ({"explain": 1}, "blame_ns phases sum"),
    "energy phase off total": ({"explain": 1}, "energy_nj phases sum"),
}


@pytest.mark.parametrize("mutation", list(FLEET_MUTATIONS))
def test_fleet_oracle_catches(monkeypatch, mutation):
    import repro.fleet

    run_fleet = repro.fleet.run_fleet
    calls = itertools.count()

    def mutated(*args, **kwargs):
        report = run_fleet(*args, **kwargs)
        second = next(calls) % 2 == 1
        if mutation == "second replay differs" and second:
            report.throughput["makespan_seconds"] += 1.0
        elif mutation == "completed request lost":
            report.requests["completed"] -= 1
        elif mutation == "chaos ledger disagrees":
            report.chaos["conservation"]["offered"] += 1
        elif mutation == "token p95 above p99":
            token = report.latency["token"]
            token["p95"] = token["p99"] + 1.0
        elif mutation == "explain under-counts":
            report.explain["aggregate"]["n_requests"] -= 1
        elif mutation in ("blame phase off total", "energy phase off total"):
            phases = report.explain["aggregate"][
                "blame_ns" if mutation.startswith("blame") else "energy_nj"]
            phases[next(iter(phases))] += 1
        return report

    monkeypatch.setattr(repro.fleet, "run_fleet", mutated)
    oracle = get_oracle("fleet")
    overrides, check = FLEET_MUTATIONS[mutation]
    # each mutation is deterministic, so one sampled config shows it
    config = oracle.sample_config(np.random.default_rng(21))
    config.update(overrides)
    result = oracle.run(config)
    assert not result.ok and result.mismatch.kind == "state", config
    assert check in result.mismatch.message, result.mismatch.message
