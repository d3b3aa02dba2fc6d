"""Golden-fixture bookkeeping: check, update, and mismatch detection."""

import json

import numpy as np
import pytest

from repro.errors import TestingError
from repro.testing import (
    GOLDEN_CASES,
    GOLDEN_DIR,
    check_goldens,
    update_goldens,
)

EXPECTED_CASES = {
    "gemm_q4", "gemm_q8", "attention_lut", "attention_poly32",
    "decode_tiny", "scheduler_chaos", "scheduler_record",
    "speculative_greedy",
    "checkpoint_q4_format",
}


def test_registry_contains_expected_cases():
    assert EXPECTED_CASES <= set(GOLDEN_CASES)


def test_committed_fixtures_exist_and_pass():
    """The acceptance criterion: ``repro goldens --check`` is green."""
    for case in GOLDEN_CASES.values():
        assert (GOLDEN_DIR / case.filename).exists(), case.filename
    assert check_goldens() == []


def test_update_then_check_round_trips(tmp_path):
    written = update_goldens(directory=tmp_path)
    assert len(written) == len(GOLDEN_CASES)
    assert check_goldens(directory=tmp_path) == []


def test_check_flags_missing_fixture(tmp_path):
    update_goldens(directory=tmp_path, only=["gemm_q4"])
    mismatches = check_goldens(directory=tmp_path)
    missing = {m.case for m in mismatches}
    assert missing == set(GOLDEN_CASES) - {"gemm_q4"}
    assert all("missing" in m.message for m in mismatches)


def test_check_flags_perturbed_npz_fixture(tmp_path):
    update_goldens(directory=tmp_path, only=["gemm_q4"])
    path = tmp_path / GOLDEN_CASES["gemm_q4"].filename
    with np.load(path) as archive:
        arrays = {k: archive[k].copy() for k in archive.files}
    key = sorted(arrays)[0]
    flat = arrays[key].reshape(-1)
    flat[0] = flat[0] + np.float16(0.25)
    np.savez(path, **arrays)
    mismatches = check_goldens(directory=tmp_path, only=["gemm_q4"])
    assert len(mismatches) == 1
    assert mismatches[0].case == "gemm_q4"


def test_check_flags_perturbed_json_fixture(tmp_path):
    update_goldens(directory=tmp_path, only=["decode_tiny"])
    path = tmp_path / GOLDEN_CASES["decode_tiny"].filename
    payload = json.loads(path.read_text())
    payload["sequences"][0][0] += 1
    path.write_text(json.dumps(payload))
    mismatches = check_goldens(directory=tmp_path, only=["decode_tiny"])
    assert len(mismatches) == 1
    assert mismatches[0].case == "decode_tiny"


def test_unknown_case_name_raises():
    with pytest.raises(TestingError, match="unknown golden"):
        check_goldens(only=["nope"])
    with pytest.raises(TestingError, match="unknown golden"):
        update_goldens(only=["nope"])
