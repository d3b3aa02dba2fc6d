"""Synthetic reasoning-task environment (substitution S3 in DESIGN.md).

The paper evaluates parallel test-time scaling on MATH500 and GSM8K with
real model generations scored by Skywork-1.5B-PRM.  Without trained
checkpoints, we model the *statistical structure* those algorithms
operate on:

* a dataset is a set of problems with heterogeneous difficulty drawn
  from a dataset-specific Beta distribution (MATH500 skews hard, GSM8K
  easy);
* a model has a scalar capability per dataset; its probability of
  solving problem ``i`` in one independent sample is a logistic function
  of (capability - difficulty), calibrated so that the *mean* single-
  sample accuracy matches the published base accuracy of that model;
* a sampled solution is a chain of reasoning steps: a correct solution
  has all steps correct; an incorrect one goes wrong at some step and
  cannot recover (the monotone-error model behind process rewards);
* incorrect solutions produce wrong final answers that cluster on
  "common mistakes", which is what limits majority voting.

Everything downstream — Best-of-N, Beam Search, Self-Consistency —
operates only on these (answer, step-correctness, score) tuples, exactly
as the real algorithms operate on (generation, PRM score) pairs.

The pass@N identity ``E[1 - (1 - p)^N]`` over the per-problem solve
probabilities gives a closed form the property tests verify against the
Monte-Carlo implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from ..errors import ScalingError

__all__ = [
    "ReasoningProblem",
    "TaskDataset",
    "DATASET_PROFILES",
    "ModelProfile",
    "MODEL_PROFILES",
    "get_model_profile",
    "SampledSolution",
    "sample_solutions",
    "analytic_pass_at_n",
]


@dataclass(frozen=True)
class ReasoningProblem:
    """One synthetic reasoning problem."""

    problem_id: int
    difficulty: float       # in [0, 1]; higher is harder
    n_steps: int            # reasoning chain length
    answer: int             # ground-truth answer id
    n_answer_modes: int     # distinct plausible wrong answers


@dataclass(frozen=True)
class _DatasetProfile:
    """Difficulty and chain-length statistics of one benchmark."""

    name: str
    difficulty_alpha: float
    difficulty_beta: float
    min_steps: int
    max_steps: int
    tokens_per_step: int
    n_answer_modes: int


DATASET_PROFILES: Dict[str, _DatasetProfile] = {
    # MATH500 skews hard and has long multi-step solutions.
    "math500": _DatasetProfile("math500", difficulty_alpha=2.4,
                               difficulty_beta=1.6, min_steps=6, max_steps=12,
                               tokens_per_step=60, n_answer_modes=8),
    # GSM8K is grade-school arithmetic: easier, shorter chains.
    "gsm8k": _DatasetProfile("gsm8k", difficulty_alpha=1.6,
                             difficulty_beta=2.4, min_steps=3, max_steps=8,
                             tokens_per_step=45, n_answer_modes=6),
}


@dataclass
class TaskDataset:
    """A reproducible set of synthetic problems."""

    name: str
    problems: List[ReasoningProblem]

    @classmethod
    def generate(cls, name: str, n_problems: int = 500,
                 seed: int = 0) -> "TaskDataset":
        if name not in DATASET_PROFILES:
            raise ScalingError(
                f"unknown dataset {name!r}; known: {sorted(DATASET_PROFILES)}")
        if n_problems <= 0:
            raise ScalingError(f"need a positive problem count, got {n_problems}")
        profile = DATASET_PROFILES[name]
        rng = np.random.default_rng(seed)
        difficulties = rng.beta(profile.difficulty_alpha,
                                profile.difficulty_beta, n_problems)
        steps = rng.integers(profile.min_steps, profile.max_steps + 1, n_problems)
        problems = [
            ReasoningProblem(problem_id=i, difficulty=float(difficulties[i]),
                             n_steps=int(steps[i]), answer=0,
                             n_answer_modes=profile.n_answer_modes)
            for i in range(n_problems)
        ]
        return cls(name=name, problems=problems)

    @property
    def profile(self) -> _DatasetProfile:
        return DATASET_PROFILES[self.name]

    def __len__(self) -> int:
        return len(self.problems)


# ----------------------------------------------------------------------
# model capability profiles
# ----------------------------------------------------------------------
_LOGISTIC_STEEPNESS = 14.0


def _solve_probability(capability: float, difficulty: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-_LOGISTIC_STEEPNESS * (capability - difficulty)))


def _calibrate_capability(target_accuracy: float, difficulties: np.ndarray) -> float:
    """Bisect the capability whose mean solve probability hits the target."""
    lo, hi = -2.0, 3.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if float(_solve_probability(mid, difficulties).mean()) < target_accuracy:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass
class ModelProfile:
    """Per-dataset capability of one evaluated model.

    ``base_accuracy`` entries are single-sample (pass@1, budget 1)
    accuracies consistent with the paper's baselines (Table 1, Fig. 10
    "base" markers); capabilities are calibrated lazily per dataset
    against a reference difficulty sample.
    """

    name: str
    base_accuracy: Dict[str, float]
    _capability_cache: Dict[tuple, float] = field(default_factory=dict)

    def capability(self, dataset: TaskDataset) -> float:
        difficulties = np.array([p.difficulty for p in dataset.problems])
        # fingerprint the concrete problem set: different instances of the
        # same benchmark calibrate independently
        key = (dataset.name, difficulties.size,
               round(float(difficulties.sum()), 9))
        if key not in self._capability_cache:
            target = self.base_accuracy.get(dataset.name)
            if target is None:
                raise ScalingError(
                    f"model {self.name!r} has no base accuracy for "
                    f"{dataset.name!r}")
            self._capability_cache[key] = _calibrate_capability(target,
                                                                difficulties)
        return self._capability_cache[key]

    def solve_probabilities(self, dataset: TaskDataset) -> np.ndarray:
        cap = self.capability(dataset)
        difficulties = np.array([p.difficulty for p in dataset.problems])
        return _solve_probability(cap, difficulties)


# Single-sample accuracies consistent with the paper's reported baselines
# (Table 1 for Llama3.2-1B; Fig. 10 "base" markers for the rest).
MODEL_PROFILES: Dict[str, ModelProfile] = {
    "qwen2.5-1.5b": ModelProfile("qwen2.5-1.5b",
                                 {"math500": 0.24, "gsm8k": 0.58}),
    "qwen2.5-3b": ModelProfile("qwen2.5-3b",
                               {"math500": 0.42, "gsm8k": 0.74}),
    "qwen2.5-7b": ModelProfile("qwen2.5-7b",
                               {"math500": 0.52, "gsm8k": 0.82}),
    "llama3.2-1b": ModelProfile("llama3.2-1b",
                                {"math500": 0.159, "gsm8k": 0.326}),
    "llama3.2-3b": ModelProfile("llama3.2-3b",
                                {"math500": 0.36, "gsm8k": 0.60}),
}


def get_model_profile(name: str) -> ModelProfile:
    key = name.lower()
    if key not in MODEL_PROFILES:
        raise ScalingError(
            f"unknown model profile {name!r}; known: {sorted(MODEL_PROFILES)}")
    return MODEL_PROFILES[key]


# ----------------------------------------------------------------------
# sampling generations
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SampledSolution:
    """One sampled reasoning chain for one problem."""

    answer: int
    correct: bool
    first_error_step: int   # == n_steps when the chain is fully correct
    n_steps: int
    n_tokens: int

    def prefix_correct(self, step: int) -> bool:
        """Is the chain still error-free after ``step`` steps (1-based)?"""
        return step <= self.first_error_step


def _wrong_answer(problem: ReasoningProblem, rng: np.random.Generator) -> int:
    """Sample a wrong answer id; mistakes cluster on common modes.

    Mode ``m`` (1-based) is chosen with probability proportional to
    ``1/m``, reproducing the fact that many wrong generations agree on
    the same slip — the failure mode of majority voting.
    """
    modes = np.arange(1, problem.n_answer_modes + 1, dtype=np.float64)
    weights = 1.0 / modes
    weights /= weights.sum()
    return int(rng.choice(problem.n_answer_modes, p=weights) + 1)


def sample_solutions(problem: ReasoningProblem, solve_probability: float, n: int,
                     rng: np.random.Generator,
                     tokens_per_step: int = 60) -> List[SampledSolution]:
    """Draw ``n`` independent solution chains for one problem.

    A correct chain has all ``n_steps`` steps correct; an incorrect one
    fails at a step drawn uniformly (earlier failures are as likely as
    late ones, matching PRM error-position statistics in ProcessBench).
    """
    if not 0.0 <= solve_probability <= 1.0:
        raise ScalingError(f"solve probability must be in [0,1], got {solve_probability}")
    if n <= 0:
        raise ScalingError(f"sample count must be positive, got {n}")
    out = []
    for _ in range(n):
        correct = bool(rng.random() < solve_probability)
        if correct:
            first_error = problem.n_steps
            answer = problem.answer
        else:
            first_error = int(rng.integers(0, problem.n_steps))
            answer = _wrong_answer(problem, rng)
        n_tokens = int(problem.n_steps * tokens_per_step
                       * (0.8 + 0.4 * rng.random()))
        out.append(SampledSolution(answer=answer, correct=correct,
                                   first_error_step=first_error,
                                   n_steps=problem.n_steps, n_tokens=n_tokens))
    return out


def analytic_pass_at_n(solve_probabilities: Sequence[float], n: int) -> float:
    """Closed-form pass@N: ``mean(1 - (1 - p)^N)`` over problems."""
    p = np.asarray(solve_probabilities, dtype=np.float64)
    if n <= 0:
        raise ScalingError(f"N must be positive, got {n}")
    return float(np.mean(1.0 - (1.0 - p) ** n))
