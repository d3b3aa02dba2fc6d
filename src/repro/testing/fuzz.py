"""Seeded configuration fuzzing with canonical repro strings.

The oracles of :mod:`repro.testing.oracles` check one configuration at
a time; this module drives them across the configuration space where
bit-discipline bugs actually hide — odd shapes, non-dividing block
sizes, every dtype/strategy/backend pairing — under a single master
seed.

Determinism contract:

* trial ``i`` of ``fuzz(trials, seed)`` draws from
  ``np.random.default_rng([seed, i])`` and nothing else, so any trial
  can be regenerated without replaying the trials before it;
* an oracle run is a pure function of its config dict, so the
  canonical **repro string** ``oracle::k=v,k=v,...`` emitted for every
  trial replays the exact run — same configuration, same diff;
* failing configurations are *shrunk*: a greedy pass over the oracle's
  simplification moves keeps the failure alive while shrinking sizes
  and resetting categoricals, and the minimized repro string is
  reported alongside the original;
* every oracle run (trial, replay or shrink step) goes in its own
  observability scope, so it records into no caller's sinks.

``repro fuzz --trials N --seed S`` is the CLI face of this module;
``repro fuzz --replay 'paged_kv::batch=4,...'`` replays one string.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import TestingError
from ..obs.context import scope
from .oracles import Config, ORACLES, Oracle, OracleResult, get_oracle

__all__ = [
    "format_repro",
    "parse_repro",
    "run_repro",
    "shrink_failure",
    "fuzz",
    "TrialOutcome",
    "FuzzReport",
]

_SEPARATOR = "::"


# ----------------------------------------------------------------------
# canonical repro strings
# ----------------------------------------------------------------------
def format_repro(oracle: str, config: Config) -> str:
    """Render ``oracle::k=v,...`` with sorted keys (canonical form)."""
    for key, value in config.items():
        if not isinstance(value, (int, str)) or isinstance(value, bool):
            raise TestingError(
                f"config value {key}={value!r} is not int or str; repro "
                "strings only carry flat scalar configs")
        if isinstance(value, str) and ("," in value or "=" in value):
            raise TestingError(
                f"config value {key}={value!r} contains a reserved "
                "character (',' or '=')")
    body = ",".join(f"{k}={config[k]}" for k in sorted(config))
    return f"{oracle}{_SEPARATOR}{body}"


def parse_repro(repro: str) -> Tuple[str, Config]:
    """Parse a repro string back into ``(oracle_name, config)``."""
    if _SEPARATOR not in repro:
        raise TestingError(
            f"malformed repro string {repro!r}; expected "
            f"'oracle{_SEPARATOR}key=value,...'")
    name, body = repro.split(_SEPARATOR, 1)
    name = name.strip()
    if name not in ORACLES:
        raise TestingError(
            f"unknown oracle {name!r} in repro string; "
            f"registered: {sorted(ORACLES)}")
    config: Config = {}
    for token in body.split(","):
        token = token.strip()
        if not token:
            continue
        if "=" not in token:
            raise TestingError(
                f"malformed repro token {token!r} in {repro!r}")
        key, value = token.split("=", 1)
        try:
            config[key] = int(value)
        except ValueError:
            config[key] = value
    return name, config


def _run(oracle: Oracle, config: Config) -> OracleResult:
    """One oracle run, in its own observability scope."""
    with scope():
        return oracle.run(config)


def run_repro(repro: str) -> OracleResult:
    """Replay one repro string deterministically."""
    name, config = parse_repro(repro)
    return _run(get_oracle(name), config)


# ----------------------------------------------------------------------
# shrinking
# ----------------------------------------------------------------------
def shrink_failure(oracle: Oracle, config: Config,
                   budget: int = 64) -> Tuple[Config, OracleResult]:
    """Greedily minimize a failing config, re-running at most ``budget``
    times.

    Accepts the first simplification move that still fails and
    restarts from it; stops at a fixpoint (no move fails) or when the
    run budget is exhausted.  Returns the minimized config and its
    failing result.
    """
    result = _run(oracle, config)
    if result.ok:
        raise TestingError(
            f"shrink_failure called on a passing config: "
            f"{format_repro(oracle.name, config)}")
    current = dict(config)
    runs = 0
    improved = True
    while improved and runs < budget:
        improved = False
        for candidate in oracle.shrink_steps(current):
            runs += 1
            candidate_result = _run(oracle, candidate)
            if not candidate_result.ok:
                current, result = dict(candidate), candidate_result
                improved = True
                break
            if runs >= budget:
                break
    return current, result


# ----------------------------------------------------------------------
# the fuzz loop
# ----------------------------------------------------------------------
@dataclass
class TrialOutcome:
    """One fuzz trial: which oracle ran what, and how it went."""

    index: int
    oracle: str
    repro: str
    ok: bool
    result: OracleResult
    shrunk_repro: Optional[str] = None
    shrunk_result: Optional[OracleResult] = None


@dataclass
class FuzzReport:
    """Aggregate outcome of one ``fuzz`` sweep."""

    seed: int
    trials: List[TrialOutcome] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def n_trials(self) -> int:
        return len(self.trials)

    @property
    def failures(self) -> List[TrialOutcome]:
        return [t for t in self.trials if not t.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def per_oracle_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for trial in self.trials:
            counts[trial.oracle] = counts.get(trial.oracle, 0) + 1
        return counts

    def render(self) -> str:
        lines = [f"fuzz: {self.n_trials} trials, seed {self.seed}, "
                 f"{len(self.failures)} failure(s), "
                 f"{self.elapsed_seconds:.1f}s"]
        width = max(map(len, ORACLES))
        for name, count in sorted(self.per_oracle_counts().items()):
            failed = sum(1 for t in self.trials
                         if t.oracle == name and not t.ok)
            lines.append(f"  {name:<{width}s} {count:4d} trials"
                         + (f"  ({failed} FAILED)" if failed else ""))
        for trial in self.failures:
            mismatch = trial.result.mismatch
            lines.append(f"FAIL [{trial.index}] {trial.repro}")
            if mismatch is not None:
                lines.append(f"  {mismatch.kind}: {mismatch.message}")
            if trial.shrunk_repro is not None \
                    and trial.shrunk_repro != trial.repro:
                lines.append(f"  shrunk: {trial.shrunk_repro}")
                if trial.shrunk_result is not None \
                        and trial.shrunk_result.mismatch is not None:
                    lines.append(
                        "  shrunk "
                        f"{trial.shrunk_result.mismatch.kind}: "
                        f"{trial.shrunk_result.mismatch.message}")
        return "\n".join(lines)


def fuzz(trials: int, seed: int = 0,
         oracles: Optional[Sequence[str]] = None,
         shrink: bool = True, shrink_budget: int = 64,
         progress=None) -> FuzzReport:
    """Run ``trials`` random oracle configurations under one seed.

    ``oracles`` restricts the sweep to a subset of registered oracle
    names (default: all, cycled deterministically so every oracle gets
    coverage regardless of trial count).  Failing trials are shrunk
    unless ``shrink=False``.  ``progress`` is an optional callable
    receiving each :class:`TrialOutcome` as it completes.
    """
    if trials <= 0:
        raise TestingError(f"trials must be positive, got {trials}")
    names = sorted(ORACLES) if oracles is None else list(oracles)
    for name in names:
        get_oracle(name)  # validate early
    if not names:
        raise TestingError("no oracles selected")

    report = FuzzReport(seed=seed)
    start = time.perf_counter()
    for index in range(trials):
        rng = np.random.default_rng([seed, index])
        # round-robin guarantees coverage; the per-trial RNG still
        # randomizes everything inside the config
        oracle = get_oracle(names[index % len(names)])
        config = oracle.sample_config(rng)
        result = _run(oracle, config)
        outcome = TrialOutcome(index=index, oracle=oracle.name,
                               repro=format_repro(oracle.name, config),
                               ok=result.ok, result=result)
        if not result.ok and shrink:
            shrunk_config, shrunk_result = shrink_failure(
                oracle, config, budget=shrink_budget)
            outcome.shrunk_repro = format_repro(oracle.name, shrunk_config)
            outcome.shrunk_result = shrunk_result
        report.trials.append(outcome)
        if progress is not None:
            progress(outcome)
    report.elapsed_seconds = time.perf_counter() - start
    return report
