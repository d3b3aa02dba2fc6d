"""Step-level Beam Search with a process reward model (Fig. 1 right, §2.1).

The lookahead-free beam search the paper runs on device: maintain ``W``
beams; at each reasoning step expand every live beam into ``N / W``
continuations (``N`` is the parallel budget — the decode batch size),
score each prefix with the PRM, and keep the top ``W``.  Wrong prefixes
get pruned early, which is how beam search converts the same batch
budget into higher accuracy than Best-of-N on hard problems.

Chain dynamics: a continuation of an error-free prefix stays correct for
one more step with probability ``p ** (1 / n_steps)`` (so a single
unguided rollout solves the problem with probability exactly ``p``,
matching the Best-of-N sampling model); an erroneous prefix never
recovers — the monotone-error assumption process rewards rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..errors import ScalingError
from .reward import RewardModel
from .tasks import (
    ModelProfile,
    ReasoningProblem,
    SampledSolution,
    TaskDataset,
    _wrong_answer,
)

__all__ = ["BeamSearchResult", "beam_search_single", "evaluate_beam_search"]


@dataclass
class BeamSearchResult:
    dataset: str
    model: str
    budget: int
    beam_width: int
    accuracy: float
    mean_tokens_per_problem: float


@dataclass(frozen=True)
class _Candidate:
    """A partial reasoning chain inside the beam."""

    first_error_step: int   # n_steps if error-free so far
    steps_done: int

    def as_solution(self, problem: ReasoningProblem) -> SampledSolution:
        correct = self.first_error_step >= problem.n_steps
        return SampledSolution(
            answer=problem.answer if correct else -1, correct=correct,
            first_error_step=self.first_error_step, n_steps=problem.n_steps,
            n_tokens=0)


def beam_search_single(problem: ReasoningProblem, solve_probability: float,
                       budget: int, beam_width: int, reward: RewardModel,
                       rng: np.random.Generator) -> "tuple[bool, int]":
    """Run one beam search; returns (answered correctly, tokens generated)."""
    if budget <= 0 or beam_width <= 0 or beam_width > budget:
        raise ScalingError(
            f"invalid beam geometry: budget {budget}, width {beam_width}")
    expansion = max(1, budget // beam_width)
    step_success = float(solve_probability) ** (1.0 / problem.n_steps)

    beams: List[_Candidate] = [_Candidate(first_error_step=problem.n_steps,
                                          steps_done=0)] * beam_width
    tokens = 0
    for step in range(1, problem.n_steps + 1):
        candidates: List[_Candidate] = []
        scores: List[float] = []
        for beam in beams:
            for _ in range(expansion):
                if beam.first_error_step >= step:  # prefix error-free so far
                    ok = bool(rng.random() < step_success)
                    first_error = problem.n_steps if ok else step - 1
                else:
                    first_error = beam.first_error_step
                cand = _Candidate(first_error_step=first_error, steps_done=step)
                candidates.append(cand)
                scores.append(reward.prefix_score(cand.as_solution(problem), step))
        tokens += len(candidates) * 60
        order = np.argsort(scores)[::-1]
        beams = [candidates[int(i)] for i in order[:beam_width]]

    final_scores = [reward.prefix_score(b.as_solution(problem), problem.n_steps)
                    for b in beams]
    best = beams[int(np.argmax(final_scores))]
    correct = best.first_error_step >= problem.n_steps
    if not correct:
        _wrong_answer(problem, rng)  # a wrong final answer is still emitted
    return correct, tokens


def evaluate_beam_search(dataset: TaskDataset, profile: ModelProfile,
                         budget: int, beam_width: Optional[int] = None,
                         reward: Optional[RewardModel] = None,
                         seed: int = 0) -> BeamSearchResult:
    """Step-level beam search over a dataset.

    ``beam_width`` defaults to ``max(1, budget // 4)``, the common
    "keep a quarter, expand by four" configuration.
    """
    if budget <= 0:
        raise ScalingError(f"budget must be positive, got {budget}")
    width = beam_width if beam_width is not None else max(1, budget // 4)
    reward = reward if reward is not None else RewardModel(seed=seed + 1)
    rng = np.random.default_rng(seed)
    probabilities = profile.solve_probabilities(dataset)

    n_correct = 0
    total_tokens = 0
    for problem, p in zip(dataset.problems, probabilities):
        correct, tokens = beam_search_single(problem, float(p), budget, width,
                                             reward, rng)
        n_correct += int(correct)
        total_tokens += tokens
    n = len(dataset.problems)
    return BeamSearchResult(dataset=dataset.name, model=profile.name,
                            budget=budget, beam_width=width,
                            accuracy=n_correct / n,
                            mean_tokens_per_problem=total_tokens / n)
