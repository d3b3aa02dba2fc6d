"""Correctness tooling: differential oracles, fuzzing, golden fixtures.

* :mod:`repro.testing.oracles` — paired-execution harness (HMX-sim vs
  float64 reference, ``HMXUnit.gemm`` vs the tile-by-tile loop over
  operand layouts, paged vs contiguous KV, empty fault plan vs none,
  speculative vs plain decode, checkpoint round-trips) with structured
  bitwise/ULP mismatch records;
* :mod:`repro.testing.fuzz` — seeded random-config fuzzing over the
  oracle registry, a greedy shrinker, and canonical
  ``oracle::k=v,...`` repro strings that replay any trial exactly;
* :mod:`repro.testing.goldens` — committed ``.npz``/JSON fixtures for
  kernel outputs, decode traces and on-disk formats, behind the
  ``repro goldens --check/--update`` CLI.

This layer is what every perf PR is validated against: optimize a
kernel, then show ``repro fuzz`` and ``repro goldens --check`` still
pass (or an explicit ``--update`` diff in review when the change is an
intentional numerical break).
"""

from .oracles import (
    HMX_LAYOUTS,
    ORACLES,
    ArrayDiff,
    MismatchRecord,
    Oracle,
    OracleResult,
    diff_arrays,
    get_oracle,
    laid_out,
    reference_gemm,
    register_oracle,
    ulp_distance_fp16,
)
from .fuzz import (
    FuzzReport,
    TrialOutcome,
    format_repro,
    fuzz,
    parse_repro,
    run_repro,
    shrink_failure,
)
from .goldens import (
    GOLDEN_CASES,
    GOLDEN_DIR,
    GoldenCase,
    GoldenMismatch,
    check_goldens,
    update_goldens,
)

__all__ = [
    "HMX_LAYOUTS",
    "ORACLES",
    "ArrayDiff",
    "MismatchRecord",
    "Oracle",
    "OracleResult",
    "diff_arrays",
    "get_oracle",
    "laid_out",
    "reference_gemm",
    "register_oracle",
    "ulp_distance_fp16",
    "FuzzReport",
    "TrialOutcome",
    "format_repro",
    "fuzz",
    "parse_repro",
    "run_repro",
    "shrink_failure",
    "GOLDEN_CASES",
    "GOLDEN_DIR",
    "GoldenCase",
    "GoldenMismatch",
    "check_goldens",
    "update_goldens",
]
