"""Experiment harness: one regeneration entry per paper table/figure.

* :mod:`repro.harness.report` — text-table rendering, claim comparison.
* :mod:`repro.harness.smallmodel` — shared accuracy-probe models.
* :mod:`repro.harness.tables` / :mod:`repro.harness.figures` — the
  per-artifact regeneration functions.
* :mod:`repro.harness.experiments` — the registry and batch runner.
"""

from .. import _lazy

__all__, __getattr__, __dir__ = _lazy.attach(globals(), names={
    "experiments": ("EXPERIMENTS", "run_all_experiments", "run_experiment"),
    "report": ("ExperimentResult", "render_table"),
    "smallmodel": ("ACCURACY_MODEL_CONFIG", "QUANT_PROBE_CONFIG",
                   "SmallModelHarness"),
})
