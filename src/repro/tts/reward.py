"""Outcome and process reward model simulators (Skywork-1.5B-PRM stand-in).

The paper scores Best-of-N with an outcome reward and step-level Beam
Search with a process reward, both provided by Skywork-1.5B-PRM (§7.1).
We model a reward model as a noisy observer of ground truth:

* the **outcome** scorer sees a completed chain and emits a score drawn
  from ``N(1, sigma)`` when the final answer is correct and ``N(0,
  sigma)`` otherwise — ``sigma`` sets the scorer's AUC
  (``Phi(1 / (sigma * sqrt(2)))``);
* the **process** scorer sees a chain prefix and emits a per-step score
  around 1 while the prefix is error-free and around 0 after the first
  error, with the same noise scale.  Prefix scores are averaged into a
  path score, as step-level beam search implementations do.

``sigma = 0.4`` (AUC ≈ 0.96) matches a strong small PRM; tests sweep
sigma to show the algorithms degrade gracefully to random selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import erf, sqrt
from typing import Sequence

import numpy as np

from ..errors import ScalingError
from .tasks import SampledSolution

__all__ = ["RewardModel", "reward_auc"]


def reward_auc(sigma: float) -> float:
    """Theoretical AUC of a reward model with noise scale ``sigma``."""
    if sigma <= 0:
        return 1.0
    return 0.5 * (1.0 + erf(1.0 / (sigma * sqrt(2.0) * sqrt(2.0))))


@dataclass
class RewardModel:
    """Noisy outcome/process scorer with a private RNG."""

    sigma: float = 0.4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ScalingError(f"reward noise must be >= 0, got {self.sigma}")
        self._rng = np.random.default_rng(self.seed)

    def reseed(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    # outcome reward (Best-of-N)
    # ------------------------------------------------------------------
    def outcome_score(self, solution: SampledSolution) -> float:
        mu = 1.0 if solution.correct else 0.0
        return float(self._rng.normal(mu, self.sigma))

    def outcome_scores(self, solutions: Sequence[SampledSolution]) -> np.ndarray:
        return np.array([self.outcome_score(s) for s in solutions])

    # ------------------------------------------------------------------
    # process reward (step-level Beam Search)
    # ------------------------------------------------------------------
    def step_score(self, solution: SampledSolution, step: int) -> float:
        """Score of reasoning step ``step`` (1-based) of a chain."""
        if not 1 <= step <= solution.n_steps:
            raise ScalingError(
                f"step {step} outside chain of {solution.n_steps} steps")
        mu = 1.0 if solution.prefix_correct(step) else 0.0
        return float(self._rng.normal(mu, self.sigma))

    def prefix_score(self, solution: SampledSolution, step: int) -> float:
        """Score of a chain prefix of ``step`` steps.

        The mean of the true per-step indicators plus a *single* noise
        draw.  Real PRM errors are systematic per chain (a bad chain
        fools the PRM consistently), so averaging per-step draws would
        overstate the scorer: the noise must not shrink with prefix
        length.
        """
        if not 1 <= step <= solution.n_steps:
            raise ScalingError(
                f"step {step} outside chain of {solution.n_steps} steps")
        n_good = min(step, solution.first_error_step)
        mu = n_good / step
        return float(mu + self._rng.normal(0.0, self.sigma))
