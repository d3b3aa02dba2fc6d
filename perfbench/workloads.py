"""The four benchmark workloads, built from a seed through public entry points.

Each workload is a closed loop of one operation at a time: the next
operation starts when the previous one returns.  Every timed operation
of a run gets the same seeded input, so its simulated output must be the
same each time; :func:`check` compares it with the digest recorded for
the default seed and with the invariants the program exposes.

Every engine gets a device, so no simulated number reads the host clock.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from hostspeed import ARRAY, INTERPRETER, Probe

#: The seed whose output digests are recorded in ``digests.json``.
DEFAULT_SEED = 0

#: Device every engine runs on (the paper's Snapdragon 8 Gen 3 phone).
DEVICE = "oneplus_12"

# bon.decode: waved Best-of-16 over batch 4; candidate i decodes
# BON_SCHEDULE[i % 8] tokens, so every seed does the same host work
BON_CANDIDATES = 16
BON_SCHEDULE = (16, 64, 24, 48, 32, 56, 20, 40)
BON_PROMPT = 8

# prefill.wide: 128-token prompt chunk-prefilled 64 at a time, Best-of-2
WIDE_PROMPT = 128
WIDE_CHUNK = 64
WIDE_NEW_TOKENS = 8

# fleet workloads: fixed request counts (fleet.explain's timeline scans
# are quadratic in requests, so its count must not float with speed)
FLEET_1K_REQUESTS = 20000
EXPLAIN_REQUESTS = 3000
EXPLAIN_FAULTS = ("dev#0:crash@10:20,dev#1:straggle@5:3:30,"
                  "dev#2:drop@15,dev#3:battery@40")


@dataclass
class Outcome:
    """What one operation produced, reduced to what the benchmark checks."""

    tokens: int           # simulated tokens (prefilled + generated)
    requests: int         # simulated requests offered and accounted for
    digest: str           # sha256 of the simulated output
    problems: List[str]   # invariant violations (empty when correct)


@dataclass(frozen=True)
class Workload:
    """One named workload.

    ``cold`` drops memoized state so each operation starts as cold as a
    one-shot process would (it is called before, and not timed with,
    every operation);
    ``build(seed)`` makes the fixture (engine, prompt, ...);
    ``run(fixture, warmup)`` performs one operation (the smaller warm-up
    one when ``warmup``) and returns an :class:`Outcome`;
    ``trace_ops`` is how many operations each traced-run phase performs;
    ``probe`` is the host-speed probe shaped like the workload's host work.
    """

    name: str
    cold: Callable[[], None]
    build: Callable[[int], Any]
    run: Callable[[Any, bool], Outcome]
    trace_ops: int
    probe: Probe


def import_program() -> None:
    """Import every module the workloads and the traced run touch."""
    import numpy  # noqa: F401

    import repro.fleet  # noqa: F401
    import repro.llm  # noqa: F401
    import repro.npu  # noqa: F401
    import repro.obs.blame  # noqa: F401


def forget_program() -> None:
    """Drop the simulator's modules so the next import runs them again."""
    import sys

    for name in [m for m in sys.modules
                 if m == "repro" or m.startswith("repro.")]:
        del sys.modules[name]


def digest(payload: Any) -> str:
    text = payload if isinstance(payload, str) else json.dumps(
        payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _nothing() -> None:
    return None


# ----------------------------------------------------------------------
# model workloads
# ----------------------------------------------------------------------
@dataclass
class _ModelFixture:
    scheduler: Any
    prompt: List[int]
    seed: int


def _model_fixture(config, seed: int, batch: int, max_context: int,
                   prompt_len: int) -> _ModelFixture:
    import numpy as np

    from repro.llm import (ContinuousBatchingScheduler, InferenceEngine,
                           NPUTransformer, TransformerWeights)
    from repro.npu import DEVICES

    weights = TransformerWeights.generate(config, seed=seed)
    engine = InferenceEngine(NPUTransformer(weights), batch=batch,
                             max_context=max_context,
                             device=DEVICES[DEVICE], kv_backend="paged")
    rng = np.random.default_rng([seed, prompt_len])
    prompt = [int(t) for t in rng.integers(1, config.vocab_size,
                                           prompt_len)]
    return _ModelFixture(ContinuousBatchingScheduler(engine), prompt, seed)


def _generation_outcome(result, prompt: List[int],
                        budgets: List[int],
                        expect_chunks: Optional[int] = None) -> Outcome:
    sequences = [c.tokens for c in result.candidates]
    problems = []
    lengths = [len(tokens) for tokens in sequences]
    if lengths != budgets:
        problems.append(f"generated lengths {lengths} != budgets {budgets}")
    if expect_chunks is not None and result.n_prefill_chunks != expect_chunks:
        problems.append(f"{result.n_prefill_chunks} prefill chunks, "
                        f"expected {expect_chunks}")
    if not result.sim_seconds > 0.0 or not result.joules > 0.0:
        problems.append("non-positive sim_seconds or joules")
    return Outcome(
        tokens=len(prompt) + result.total_generated_tokens, requests=1,
        digest=digest({"sequences": sequences,
                       "sim_seconds": result.sim_seconds,
                       "joules": result.joules}),
        problems=problems)


def _bon_build(seed: int) -> _ModelFixture:
    from repro.llm.config import tiny_config

    return _model_fixture(tiny_config(), seed, batch=4,
                          max_context=BON_PROMPT + max(BON_SCHEDULE) + 8,
                          prompt_len=BON_PROMPT)


def _bon_run(fixture: _ModelFixture, warmup: bool) -> Outcome:
    from repro.llm.sampler import Sampler

    n, schedule = ((4, (4,)) if warmup
                   else (BON_CANDIDATES, BON_SCHEDULE))
    result = fixture.scheduler.generate(
        fixture.prompt, n_candidates=n, max_new_tokens=max(schedule),
        sampler=Sampler(temperature=0.8, seed=fixture.seed),
        length_schedule=list(schedule))
    return _generation_outcome(result, fixture.prompt,
                               [schedule[i % len(schedule)]
                                for i in range(n)])


def _wide_build(seed: int) -> _ModelFixture:
    from repro.llm.config import tiny_config

    config = tiny_config(name="wide", hidden_dim=512, intermediate_dim=1536,
                         n_heads=8, n_kv_heads=2)
    return _model_fixture(config, seed, batch=2,
                          max_context=WIDE_PROMPT + WIDE_NEW_TOKENS + 24,
                          prompt_len=WIDE_PROMPT)


def _wide_run(fixture: _ModelFixture, warmup: bool) -> Outcome:
    from repro.llm.sampler import Sampler

    prompt = fixture.prompt[:WIDE_CHUNK] if warmup else fixture.prompt
    new_tokens = 2 if warmup else WIDE_NEW_TOKENS
    result = fixture.scheduler.generate(
        prompt, n_candidates=2, max_new_tokens=new_tokens,
        sampler=Sampler(temperature=0.8, seed=fixture.seed),
        prefill_chunk=WIDE_CHUNK)
    return _generation_outcome(result, prompt, [new_tokens] * 2,
                               expect_chunks=-(-len(prompt) // WIDE_CHUNK))


# ----------------------------------------------------------------------
# fleet workloads
# ----------------------------------------------------------------------
def _clear_price_caches() -> None:
    from layers import fleet_price_caches

    for cached in fleet_price_caches():
        cached.cache_clear()


def _fleet_outcome(report, requests: int, explain: bool) -> Outcome:
    offered = report.requests["offered"]
    failed = (report.chaos["recovery"]["failed_permanently"]
              if report.chaos is not None else 0)
    terminal = (report.requests["completed"] + report.requests["shed"]
                + failed + report.requests["unserved"])
    problems = []
    if offered != requests:
        problems.append(f"offered {offered} != trace size {requests}")
    if offered != terminal:
        problems.append(f"offered {offered} != completed + shed + failed "
                        f"+ unserved = {terminal}")
    explained = (report.explain["aggregate"]["n_requests"]
                 if report.explain is not None else None)
    if explain and explained != offered:
        problems.append(f"explained {explained} != offered {offered}")
    if not explain and explained is not None:
        problems.append("explain section present on a plain run")
    return Outcome(tokens=int(report.throughput["tokens"]),
                   requests=offered, digest=digest(report.to_json_text()),
                   problems=problems)


def _fleet_1k_run(seed: int, warmup: bool) -> Outcome:
    from repro.fleet import run_fleet

    requests = FLEET_1K_REQUESTS // (10 if warmup else 1)
    report = run_fleet(1000, 50.0, horizon_seconds=None,
                       max_requests=requests, seed=seed, pattern="poisson",
                       with_capacity_plan=False)
    return _fleet_outcome(report, requests, explain=False)


def _fleet_explain_run(seed: int, warmup: bool) -> Outcome:
    from repro.fleet import run_fleet

    requests = EXPLAIN_REQUESTS // (10 if warmup else 1)
    report = run_fleet(120, 50.0, horizon_seconds=None,
                       max_requests=requests, seed=seed, pattern="poisson",
                       with_capacity_plan=False, fault_spec=EXPLAIN_FAULTS,
                       hedge=True, explain=True)
    return _fleet_outcome(report, requests, explain=True)


def _seed_only(seed: int) -> int:
    return seed


WORKLOADS = {w.name: w for w in (
    Workload("bon.decode",
             cold=_nothing, build=_bon_build, run=_bon_run, trace_ops=2,
             probe=ARRAY),
    Workload("prefill.wide",
             cold=_nothing, build=_wide_build, run=_wide_run, trace_ops=3,
             probe=ARRAY),
    Workload("fleet.1k",
             cold=_clear_price_caches, build=_seed_only, run=_fleet_1k_run,
             trace_ops=4, probe=INTERPRETER),
    Workload("fleet.explain",
             cold=_clear_price_caches, build=_seed_only,
             run=_fleet_explain_run, trace_ops=2, probe=INTERPRETER),
)}


def check(outcome: Outcome, seed: int, first_digest: Optional[str],
          recorded: Optional[str]) -> Tuple[bool, List[str]]:
    """Is one timed operation's output correct?

    It must satisfy its invariants, equal the run's first timed output
    (the simulation is a pure function of its input), and, for the
    default seed, equal the recorded digest.
    """
    problems = list(outcome.problems)
    if first_digest is not None and outcome.digest != first_digest:
        problems.append("output differs from the run's first operation")
    if seed == DEFAULT_SEED and outcome.digest != recorded:
        problems.append(f"digest {outcome.digest[:12]} != recorded "
                        f"{str(recorded)[:12]}")
    return not problems, problems
