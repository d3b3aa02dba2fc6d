"""Experiment registry: one entry per table and figure of the paper.

``run_experiment(id)`` regenerates any single artifact;
``run_all_experiments()`` produces the full EXPERIMENTS.md content.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..errors import HarnessError
from ..obs.context import scope
from ..obs.metrics import MetricsRegistry
from .figures import (
    run_fig5,
    run_fig8,
    run_fig10,
    run_fig11,
    run_fig12,
    run_fig13,
    run_fig14,
    run_fig15,
    run_fig16,
    run_fig17,
)
from .report import ExperimentResult
from .tables import run_table1, run_table2, run_table3, run_table4, run_table5

__all__ = ["EXPERIMENTS", "run_experiment", "run_all_experiments"]

EXPERIMENTS: Dict[str, Callable[[], ExperimentResult]] = {
    "table1": run_table1,
    "table2": run_table2,
    "table3": run_table3,
    "table4": run_table4,
    "table5": run_table5,
    "fig5": run_fig5,
    "fig8": run_fig8,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "fig12": run_fig12,
    "fig13": run_fig13,
    "fig14": run_fig14,
    "fig15": run_fig15,
    "fig16": run_fig16,
    "fig17": run_fig17,
}


def run_experiment(experiment_id: str) -> ExperimentResult:
    """Regenerate one table/figure by id (e.g. ``"fig15"``).

    Each experiment runs in its own scope, untraced and with the event
    log off, against a fresh metrics registry whose snapshot is attached
    to the result.  Untraced, only the counters recorded without a
    tracer land there: ``repro.tts.budgets_evaluated``, on the budget
    sweeps of fig5 and fig10.
    """
    try:
        runner = EXPERIMENTS[experiment_id]
    except KeyError:
        raise HarnessError(
            f"unknown experiment {experiment_id!r}; known: "
            f"{sorted(EXPERIMENTS)}") from None
    registry = MetricsRegistry()
    with scope(metrics=registry):
        result = runner()
    result.metrics = registry.snapshot()
    return result


def run_all_experiments() -> List[ExperimentResult]:
    """Regenerate every table and figure, in paper order."""
    return [run_experiment(eid) for eid in EXPERIMENTS]
