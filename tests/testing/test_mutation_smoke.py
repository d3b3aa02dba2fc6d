"""Mutation smoke test: the oracle harness must catch an injected bug.

Perturbs a single element of the HMX GEMM's K-step accumulation — the
kind of off-by-one-ULP bug a layout or pipelining optimisation could
introduce — and asserts the differential harness flags it, on the row
path (row-major weights) and the tile path (``baseline``'s F-order
weights) alike.  If this test ever passes with the mutation active, the
oracle tolerances have drifted too loose.  Grouped attention gets the
same treatment: query heads wired to the wrong KV head must be caught.
"""

import numpy as np
import pytest

from repro.kernels.flash_attention import FlashAttention
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


@pytest.mark.parametrize("config", [
    GEMM_CONFIG,
    dict(GEMM_CONFIG, m=1),  # decode shapes, on the row path
    dict(GEMM_CONFIG, m=2),
    dict(GEMM_CONFIG, strategy="baseline"),  # F-order weights, tile path
], ids=["m16", "m1", "m2", "baseline"])
def test_gemm_oracle_flags_perturbed_accumulation(perturb_one_tile_mac,
                                                  config):
    result = get_oracle("gemm").run(config)
    assert perturb_one_tile_mac["calls"] > 0, "mutation never exercised"
    assert not result.ok, "oracle failed to flag a perturbed tile MAC"
    mismatch = result.mismatch
    assert mismatch.kind == "ulp"
    assert mismatch.diff is not None and mismatch.diff.n_diff >= 1
    # the corrupted element sits in the first output tile
    assert mismatch.diff.first_index[0] < 32
    assert "ULP" in mismatch.message


ATTENTION_CONFIG = {"items": 3, "group": 2, "n_q": 2, "n_kv": 40,
                    "head_dim": 16, "method": "lut", "causal": 1, "seed": 5}


def test_unmutated_attention_oracle_passes():
    assert get_oracle("attention").run(ATTENTION_CONFIG).ok


def test_attention_oracle_flags_query_items_on_the_wrong_kv_item(
        monkeypatch):
    """Query item i reads KV item i % kv_items, not i // group.

    The mutant feeds the kernel its query items reordered so that stack
    position p, which reads KV item p // group, holds an item i with
    i % kv_items == p // group, and puts the outputs back in order.
    """
    original = FlashAttention.__call__
    calls = {"grouped": 0}

    def mutated(self, q, k, v, scale=None, q_positions=None,
                k_positions=None, kv_lengths=None):
        if np.ndim(q) == 2 or len(q) == len(k):
            return original(self, q, k, v, scale, q_positions, k_positions,
                            kv_lengths)
        calls["grouped"] += 1
        perm = np.argsort(np.arange(len(q)) % len(k), kind="stable")
        if q_positions is not None and np.ndim(q_positions) == 2:
            q_positions = np.asarray(q_positions)[perm]
        out, cost = original(self, np.asarray(q)[perm], k, v, scale,
                             q_positions, k_positions, kv_lengths)
        return out[np.argsort(perm)], cost

    monkeypatch.setattr(FlashAttention, "__call__", mutated)
    result = get_oracle("attention").run(ATTENTION_CONFIG)
    assert calls["grouped"] == 1, "mutation never exercised"
    assert not result.ok, "oracle missed query items on the wrong KV item"
    assert result.mismatch.kind == "bitwise"
    assert "differs from its one-head call" in result.mismatch.message
