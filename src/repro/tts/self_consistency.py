"""Self-Consistency / majority voting (§2.1).

The verifier-free baseline: sample N solutions and answer with the most
frequent final answer.  Works when correct generations agree and wrong
ones scatter; our wrong-answer mode distribution (mistakes cluster on
common slips) reproduces its characteristic saturation below Best-of-N.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ScalingError
from .tasks import ModelProfile, SampledSolution, TaskDataset, sample_solutions

__all__ = ["SelfConsistencyResult", "majority_vote", "evaluate_self_consistency"]


@dataclass
class SelfConsistencyResult:
    dataset: str
    model: str
    budget: int
    accuracy: float
    mean_tokens_per_problem: float


def majority_vote(solutions: Sequence[SampledSolution]) -> int:
    """Most frequent final answer; ties break toward the first seen."""
    if not solutions:
        raise ScalingError("majority vote needs at least one solution")
    counts = Counter(s.answer for s in solutions)
    return counts.most_common(1)[0][0]


def weighted_majority_vote(solutions: Sequence[SampledSolution],
                           scores: Sequence[float]) -> int:
    """Reward-weighted voting (the Best-of-N / Self-Consistency hybrid).

    Each vote is weighted by the softmax of its outcome-reward score, so
    a confident verifier concentrates mass on its favourites while a
    useless one degrades gracefully to plain majority voting.
    """
    if not solutions:
        raise ScalingError("weighted vote needs at least one solution")
    if len(solutions) != len(scores):
        raise ScalingError(
            f"{len(solutions)} solutions but {len(scores)} scores")
    import numpy as np
    weights = np.exp(np.asarray(scores, dtype=np.float64)
                     - max(float(s) for s in scores))
    totals: dict = {}
    for solution, weight in zip(solutions, weights):
        totals[solution.answer] = totals.get(solution.answer, 0.0) + weight
    return max(totals, key=totals.get)


def evaluate_self_consistency(dataset: TaskDataset, profile: ModelProfile,
                              budget: int, seed: int = 0,
                              reward=None) -> SelfConsistencyResult:
    """Majority voting over ``budget`` parallel samples per problem.

    Passing a reward model switches to reward-weighted voting (the
    hybrid variant).
    """
    if budget <= 0:
        raise ScalingError(f"budget must be positive, got {budget}")
    rng = np.random.default_rng(seed)
    probabilities = profile.solve_probabilities(dataset)
    tokens_per_step = dataset.profile.tokens_per_step

    n_correct = 0
    total_tokens = 0
    for problem, p in zip(dataset.problems, probabilities):
        solutions = sample_solutions(problem, float(p), budget, rng,
                                     tokens_per_step=tokens_per_step)
        total_tokens += sum(s.n_tokens for s in solutions)
        if reward is not None:
            scores = reward.outcome_scores(solutions)
            chosen = weighted_majority_vote(solutions, scores.tolist())
        else:
            chosen = majority_vote(solutions)
        if chosen == problem.answer:
            n_correct += 1
    n = len(dataset.problems)
    return SelfConsistencyResult(dataset=dataset.name, model=profile.name,
                                 budget=budget, accuracy=n_correct / n,
                                 mean_tokens_per_problem=total_tokens / n)
