"""Chaos benchmark: Best-of-N under injected NPU faults.

The robustness acceptance scenario: a Best-of-N N=16 run on the
continuous-batching scheduler must complete and return a selected
answer under a fault plan containing at least one FastRPC session
abort, one allocation failure and one thermal throttling event — with
every retry and degradation visible in the text report and the
Perfetto trace, and the whole run reproducible from (seed, plan).
"""

from __future__ import annotations

from repro.harness.report import ExperimentResult
from repro.llm import (
    ContinuousBatchingScheduler,
    InferenceEngine,
    NPUTransformer,
    Sampler,
    TransformerWeights,
)
from repro.llm.config import tiny_config
from repro.npu import DEVICES
from repro.obs import Tracer, chrome_trace, scope, text_report
from repro.resilience import FaultPlan

PROMPT = [3, 1, 4, 1, 5, 9]
BATCH = 4
N_CANDIDATES = 16
MAX_NEW_TOKENS = 12
PLAN_SPEC = "abort@3,dma@7,alloc@5,throttle@2:efficiency:6"


def _run(plan, tracer=None):
    model = NPUTransformer(TransformerWeights.generate(tiny_config(), seed=0))
    engine = InferenceEngine(model, batch=BATCH, max_context=64,
                             device=DEVICES["oneplus_12"],
                             kv_backend="paged")
    scheduler = ContinuousBatchingScheduler(engine)
    with scope(tracer=tracer):
        return scheduler.generate(PROMPT, n_candidates=N_CANDIDATES,
                                  max_new_tokens=MAX_NEW_TOKENS,
                                  sampler=Sampler(temperature=0.8, seed=0),
                                  fault_plan=plan)


def test_chaos_best_of_16_completes_and_selects(record):
    plan = FaultPlan.parse(PLAN_SPEC)
    tracer = Tracer(enabled=True)
    chaos = _run(plan, tracer=tracer)
    clean = _run(None)

    # the run completed: all 16 candidates produced an answer
    assert len(chaos.candidates) == N_CANDIDATES
    assert all(c.tokens for c in chaos.candidates)

    # every required fault kind actually fired
    kinds = {f.kind for f in chaos.faults}
    assert {"session_abort", "alloc_fail", "thermal_throttle"} <= kinds
    assert chaos.n_retries >= 1
    assert chaos.n_evictions >= 1
    assert chaos.rebuilt_tokens > 0

    # a winner is still selected from the degraded candidate set
    winner = max(chaos.candidates,
                 key=lambda c: (len(c.tokens), -c.candidate_id))
    assert winner.tokens

    # recovery costs show up on the simulated clock
    assert chaos.sim_seconds > clean.sim_seconds

    # retries/degradations are visible in the text report and the trace
    report = text_report(tracer)
    assert "resilience (chaos mode)" in report
    assert "session_abort" in report
    trace = chrome_trace(tracer)
    resilience_events = [e for e in trace["traceEvents"]
                         if e.get("cat") == "resilience"]
    assert any(e["name"] == "resilience.fault" for e in resilience_events)
    assert any(e["name"] == "resilience.retry" for e in resilience_events)

    # bitwise reproducible from (seed, plan)
    again = _run(plan)
    assert again.sequences == chaos.sequences
    assert again.sim_seconds == chaos.sim_seconds

    record(ExperimentResult(
        experiment_id="chaos_best_of_n",
        title="Best-of-16 under injected NPU faults",
        headers=["metric", "clean", "chaos"],
        rows=[
            ["decode steps", clean.n_steps, chaos.n_steps],
            ["sim time (ms)", f"{clean.sim_seconds * 1e3:.3f}",
             f"{chaos.sim_seconds * 1e3:.3f}"],
            ["faults injected", 0, len(chaos.faults)],
            ["step retries", 0, chaos.n_retries],
            ["evictions", 0, chaos.n_evictions],
            ["KV tokens rebuilt", 0, chaos.rebuilt_tokens],
            ["candidates returned", len(clean.candidates),
             len(chaos.candidates)],
        ],
        paper_claims={"claim": "the serving stack must degrade gracefully "
                               "through §7.2's deployment hazards"},
        measured_claims={"claim": f"N=16 completed under plan "
                                  f"'{PLAN_SPEC}' with "
                                  f"{chaos.n_retries} retries and "
                                  f"{chaos.n_evictions} evictions"}))
