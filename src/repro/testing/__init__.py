"""Correctness tooling: differential oracles, fuzzing, golden fixtures.

* :mod:`repro.testing.oracles` — paired-execution harness (HMX-sim vs
  float64 reference, ``HMXUnit.gemm`` vs the tile-by-tile loop over
  operand layouts, one-pass tile groups vs their HMX-order definition,
  paged vs contiguous KV, empty fault plan vs none,
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

from .. import _lazy

# Bound now: importing the submodule of the same name later would
# rebind the package attribute to the module.
from .fuzz import fuzz  # noqa: F401

__all__, __getattr__, __dir__ = _lazy.attach(globals(), names={
    "fuzz": ("FuzzReport", "TrialOutcome", "format_repro", "fuzz",
             "parse_repro", "run_repro", "shrink_failure"),
    "goldens": ("GOLDEN_CASES", "GOLDEN_DIR", "GoldenCase", "GoldenMismatch",
                "check_goldens", "update_goldens"),
    "oracles": ("HMX_LAYOUTS", "ORACLES", "ArrayDiff", "MismatchRecord",
                "Oracle", "OracleResult", "diff_arrays", "get_oracle",
                "hmx_order_tile_groups", "laid_out", "recorded_gemm_cost",
                "reference_gemm", "register_oracle", "ulp_distance_fp16"),
})
