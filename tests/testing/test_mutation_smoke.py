"""Mutation smoke test: the oracle harness must catch an injected bug.

Perturbs a single element of the HMX GEMM's stacked K-tile
accumulation — the kind of off-by-one-ULP bug a layout or pipelining
optimisation could introduce — and asserts the differential harness
flags it.  If this test ever passes with the mutation active, the oracle
tolerances have drifted too loose.
"""

import numpy as np
import pytest

from repro.npu.hmx import HMXUnit
from repro.testing import get_oracle

GEMM_CONFIG = {"m": 16, "k": 64, "n": 32, "bits": 8,
               "strategy": "ours", "seed": 0}


@pytest.fixture
def perturb_one_tile_mac(monkeypatch):
    """Add 0.125 to one accumulator element in the first K step."""
    original = HMXUnit._accumulate_k_tile
    state = {"calls": 0}

    def mutated(activation_tiles, weight_tiles, accumulator):
        original(activation_tiles, weight_tiles, accumulator)
        state["calls"] += 1
        if state["calls"] == 1:
            # element (0, 0) of the first output tile, in place: gemm()
            # reads the accumulator it passed in
            accumulator[(0,) * accumulator.ndim] += np.float32(0.125)

    monkeypatch.setattr(HMXUnit, "_accumulate_k_tile", staticmethod(mutated))
    return state


def test_unmutated_gemm_oracle_passes():
    """Anti-vacuity: the same config is green without the mutation."""
    assert get_oracle("gemm").run(GEMM_CONFIG).ok


def test_gemm_oracle_flags_perturbed_accumulation(perturb_one_tile_mac):
    result = get_oracle("gemm").run(GEMM_CONFIG)
    assert perturb_one_tile_mac["calls"] > 0, "mutation never exercised"
    assert not result.ok, "oracle failed to flag a perturbed tile MAC"
    mismatch = result.mismatch
    assert mismatch.kind == "ulp"
    assert mismatch.diff is not None and mismatch.diff.n_diff >= 1
    # the corrupted element sits in the first output tile
    assert mismatch.diff.first_index[0] < 32
    assert "ULP" in mismatch.message


def test_baseline_strategy_also_flags_perturbation(perturb_one_tile_mac):
    config = dict(GEMM_CONFIG, strategy="baseline")
    result = get_oracle("gemm").run(config)
    assert not result.ok
    assert result.mismatch.kind == "ulp"
