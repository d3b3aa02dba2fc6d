"""Best-of-N selection (Fig. 1 left, §2.1).

Generate N independent complete solutions per problem, score each with
the outcome reward model, and answer with the highest-scoring sample.
With a perfect verifier this attains pass@N; with a noisy verifier the
gap to pass@N is the selection regret the reward model's AUC controls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..errors import ScalingError
from ..llm.scheduler import plan_waves
from ..obs import context as obs_context
from ..resilience.faults import FaultPlan
from ..resilience.recovery import degraded_schedule
from .reward import RewardModel
from .tasks import ModelProfile, SampledSolution, TaskDataset, sample_solutions

__all__ = ["BestOfNResult", "best_of_n_single", "evaluate_best_of_n"]


@dataclass
class BestOfNResult:
    """Aggregate outcome of a Best-of-N evaluation."""

    dataset: str
    model: str
    budget: int
    accuracy: float
    oracle_accuracy: float     # pass@N with a perfect verifier
    mean_tokens_per_problem: float
    # set when the budget is routed through the continuous-batching
    # scheduler (engine_batch given): decode-step makespans summed over
    # problems, per the two batching disciplines of ``plan_waves``.
    engine_batch: Optional[int] = None
    scheduled_decode_steps: int = 0
    lockstep_decode_steps: int = 0
    # chaos mode (fault_plan and/or deadline_steps given): selection
    # runs over the candidates that survive the faulted schedule
    fault_spec: Optional[str] = None
    deadline_steps: Optional[float] = None
    n_dropped_candidates: int = 0
    deadline_hits: int = 0
    degraded_problems: int = 0
    degraded_decode_steps: float = 0.0
    fault_retry_steps: float = 0.0
    throttled_steps: int = 0

    @property
    def scheduler_speedup(self) -> float:
        """Lock-step / continuous makespan ratio (1.0 when not routed)."""
        if self.scheduled_decode_steps == 0:
            return 1.0
        return self.lockstep_decode_steps / self.scheduled_decode_steps

    @property
    def degraded(self) -> bool:
        """True when any problem's candidate set was reduced by chaos."""
        return bool(self.n_dropped_candidates or self.deadline_hits
                    or self.degraded_problems)


def best_of_n_single(solutions: Sequence[SampledSolution],
                     reward: RewardModel) -> SampledSolution:
    """Select the highest-scoring completed solution."""
    if not solutions:
        raise ScalingError("Best-of-N needs at least one solution")
    scores = reward.outcome_scores(solutions)
    return solutions[int(np.argmax(scores))]


def evaluate_best_of_n(dataset: TaskDataset, profile: ModelProfile,
                       budget: int, reward: Optional[RewardModel] = None,
                       seed: int = 0,
                       engine_batch: Optional[int] = None,
                       fault_plan: Optional[FaultPlan] = None,
                       deadline_steps: Optional[float] = None
                       ) -> BestOfNResult:
    """Run Best-of-N over a dataset and report selection accuracy.

    ``budget`` is the number of parallel samples N — the decode batch
    size on the NPU.  ``budget == 1`` degenerates to conventional
    single-sample decoding (the "base" markers of Fig. 10).

    ``engine_batch`` routes budgets larger than the physical decode
    batch through the continuous-batching discipline: each problem's
    sampled solution lengths are wave-planned (:func:`plan_waves`) and
    the makespans accumulated on the result.  The sampling RNG stream
    is untouched, so accuracy is bit-identical with or without routing.

    ``fault_plan`` / ``deadline_steps`` apply chaos-mode degradation:
    each problem's wave schedule is replayed under the plan
    (:func:`~repro.resilience.recovery.degraded_schedule` — the plan
    applies to *every* problem's decode, modelling a persistently faulty
    NPU), evicted and deadline-dropped candidates are excluded from the
    reward pass, and selection runs over the survivors (at least one per
    problem, so an answer is always returned).  The sampling RNG stream
    is untouched; when no candidate is dropped the reward stream is also
    untouched, so an empty plan with no deadline is bitwise identical to
    the non-chaos path.
    """
    if budget <= 0:
        raise ScalingError(f"budget must be positive, got {budget}")
    if engine_batch is not None and engine_batch <= 0:
        raise ScalingError(
            f"engine_batch must be positive, got {engine_batch}")
    chaos = ((fault_plan is not None and len(fault_plan) > 0)
             or deadline_steps is not None)
    chaos_batch = engine_batch if engine_batch is not None else budget
    reward = reward if reward is not None else RewardModel(seed=seed + 1)
    rng = np.random.default_rng(seed)
    probabilities = profile.solve_probabilities(dataset)
    tokens_per_step = dataset.profile.tokens_per_step
    tracer = obs_context.current().tracer

    n_correct = 0
    n_oracle = 0
    total_tokens = 0
    scheduled_steps = 0
    lockstep_steps = 0
    n_dropped = 0
    deadline_hits = 0
    degraded_problems = 0
    degraded_steps = 0.0
    retry_steps = 0.0
    throttled = 0
    for problem, p in zip(dataset.problems, probabilities):
        with tracer.span("tts.best_of_n.problem", category="tts",
                         problem=problem.problem_id,
                         n_candidates=budget) as sp:
            solutions = sample_solutions(problem, float(p), budget, rng,
                                         tokens_per_step=tokens_per_step)
            problem_tokens = sum(s.n_tokens for s in solutions)
            total_tokens += problem_tokens
            pool = solutions
            if chaos:
                schedule = degraded_schedule(
                    [s.n_tokens for s in solutions], batch=chaos_batch,
                    plan=fault_plan, deadline_steps=deadline_steps)
                pool = [solutions[i] for i in schedule.survivors]
                n_dropped += len(solutions) - len(pool)
                deadline_hits += int(schedule.n_deadline_dropped > 0)
                degraded_problems += int(schedule.degraded)
                degraded_steps += schedule.makespan_steps
                retry_steps += schedule.n_retry_steps
                throttled += schedule.throttled_steps
                if schedule.degraded and tracer.enabled:
                    with tracer.span(
                            "resilience.tts_degrade", category="resilience",
                            problem=problem.problem_id,
                            survivors=len(pool),
                            evicted=schedule.n_evicted,
                            deadline_dropped=schedule.n_deadline_dropped,
                            makespan_steps=schedule.makespan_steps):
                        pass
            if any(s.correct for s in pool):
                n_oracle += 1
            chosen = best_of_n_single(pool, reward)
            if chosen.correct:
                n_correct += 1
            sp.set(tokens=problem_tokens, correct=chosen.correct)
            if engine_batch is not None:
                plan = plan_waves([s.n_tokens for s in solutions],
                                  batch=engine_batch)
                scheduled_steps += plan.continuous_steps
                lockstep_steps += plan.lockstep_steps
                sp.set(scheduled_steps=plan.continuous_steps,
                       lockstep_steps=plan.lockstep_steps)
    n = len(dataset.problems)
    return BestOfNResult(dataset=dataset.name, model=profile.name, budget=budget,
                         accuracy=n_correct / n, oracle_accuracy=n_oracle / n,
                         mean_tokens_per_problem=total_tokens / n,
                         engine_batch=engine_batch,
                         scheduled_decode_steps=scheduled_steps,
                         lockstep_decode_steps=lockstep_steps,
                         fault_spec=(fault_plan.spec() if chaos
                                     and fault_plan is not None else None),
                         deadline_steps=deadline_steps if chaos else None,
                         n_dropped_candidates=n_dropped,
                         deadline_hits=deadline_hits,
                         degraded_problems=degraded_problems,
                         degraded_decode_steps=degraded_steps,
                         fault_retry_steps=retry_steps,
                         throttled_steps=throttled)
