"""Budget sweeps: accuracy as a function of parallel generation budget.

Drives the Fig. 5 budget-scaling curves and the accuracy axis of the
Fig. 10 Pareto plots.  A sweep fixes (method, model, dataset) and runs
the selection algorithm at each budget with a shared reward model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..errors import ScalingError
from ..obs import context as obs_context
from ..resilience.faults import FaultPlan
from .beam_search import evaluate_beam_search
from .best_of_n import evaluate_best_of_n
from .mcts import evaluate_mcts
from .reward import RewardModel
from .self_consistency import evaluate_self_consistency
from .tasks import ModelProfile, TaskDataset, get_model_profile

__all__ = ["SCALING_METHODS", "ScalingCurve", "budget_sweep"]

SCALING_METHODS = ("best_of_n", "beam_search", "self_consistency",
                   "weighted_sc", "mcts")

DEFAULT_BUDGETS = (1, 2, 4, 8, 16)


@dataclass
class ScalingCurve:
    """Accuracy (and token cost) across generation budgets."""

    method: str
    model: str
    dataset: str
    budgets: List[int]
    accuracies: List[float]
    tokens_per_problem: List[float]

    def as_dict(self) -> Dict[int, float]:
        return dict(zip(self.budgets, self.accuracies))

    @property
    def base_accuracy(self) -> float:
        """Accuracy at budget 1 (conventional sampling)."""
        try:
            return self.accuracies[self.budgets.index(1)]
        except ValueError:
            raise ScalingError("sweep did not include budget 1") from None


def budget_sweep(method: str, dataset: TaskDataset, profile: ModelProfile,
                 budgets: Sequence[int] = DEFAULT_BUDGETS,
                 reward_sigma: float = 0.4, seed: int = 0,
                 engine_batch: Optional[int] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 deadline_steps: Optional[float] = None) -> ScalingCurve:
    """Evaluate one scaling method across budgets.

    The reward model is reseeded per budget so curves are independent
    draws; the task sampling seed also varies per budget to avoid
    correlated noise across the sweep.

    ``engine_batch`` (Best-of-N only) wave-plans budgets that exceed
    the physical decode batch through the continuous-batching
    scheduler discipline; the accuracy RNG stream is untouched, so the
    curve is identical with the routing on or off.

    ``fault_plan`` / ``deadline_steps`` (Best-of-N only) run every
    budget point in chaos mode — see
    :func:`~repro.tts.best_of_n.evaluate_best_of_n`.
    """
    if method not in SCALING_METHODS:
        raise ScalingError(
            f"unknown method {method!r}; expected one of {SCALING_METHODS}")
    if method != "best_of_n" and (
            (fault_plan is not None and len(fault_plan) > 0)
            or deadline_steps is not None):
        raise ScalingError(
            f"chaos mode (fault plan / deadline) only supports best_of_n, "
            f"got method {method!r}")
    budgets = list(budgets)
    if not budgets or any(b <= 0 for b in budgets):
        raise ScalingError(f"budgets must be positive, got {budgets}")

    accuracies: List[float] = []
    tokens: List[float] = []
    obs = obs_context.current()
    with obs.tracer.span("tts.budget_sweep", category="tts", method=method,
                         model=profile.name, dataset=dataset.name,
                         n_budgets=len(budgets)):
        for i, budget in enumerate(budgets):
            with obs.tracer.span("tts.budget", category="tts",
                                 method=method, budget=budget):
                _run_budget(method, dataset, profile, budget, reward_sigma,
                            seed, i, accuracies, tokens,
                            engine_batch=engine_batch,
                            fault_plan=fault_plan,
                            deadline_steps=deadline_steps)
            obs.metrics.counter("repro.tts.budgets_evaluated").inc()
    return ScalingCurve(method=method, model=profile.name, dataset=dataset.name,
                        budgets=budgets, accuracies=accuracies,
                        tokens_per_problem=tokens)


def _run_budget(method: str, dataset: TaskDataset, profile: ModelProfile,
                budget: int, reward_sigma: float, seed: int, i: int,
                accuracies: List[float], tokens: List[float],
                engine_batch: Optional[int] = None,
                fault_plan: Optional[FaultPlan] = None,
                deadline_steps: Optional[float] = None) -> None:
    """Evaluate one budget point of a sweep, appending to the curves."""
    run_seed = seed + 1000 * i
    reward = RewardModel(sigma=reward_sigma, seed=run_seed + 1)
    if method == "best_of_n":
        result = evaluate_best_of_n(dataset, profile, budget, reward,
                                    seed=run_seed, engine_batch=engine_batch,
                                    fault_plan=fault_plan,
                                    deadline_steps=deadline_steps)
        accuracies.append(result.accuracy)
        tokens.append(result.mean_tokens_per_problem)
    elif method == "beam_search":
        result = evaluate_beam_search(dataset, profile, budget,
                                      reward=reward, seed=run_seed)
        accuracies.append(result.accuracy)
        tokens.append(result.mean_tokens_per_problem)
    elif method == "mcts":
        result = evaluate_mcts(dataset, profile, budget, reward=reward,
                               seed=run_seed)
        accuracies.append(result.accuracy)
        tokens.append(result.mean_rollouts_per_problem
                      * dataset.profile.tokens_per_step
                      * dataset.profile.max_steps)
    elif method == "weighted_sc":
        result = evaluate_self_consistency(dataset, profile, budget,
                                           seed=run_seed, reward=reward)
        accuracies.append(result.accuracy)
        tokens.append(result.mean_tokens_per_problem)
    else:
        result = evaluate_self_consistency(dataset, profile, budget,
                                           seed=run_seed)
        accuracies.append(result.accuracy)
        tokens.append(result.mean_tokens_per_problem)
