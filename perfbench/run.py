"""Host-time benchmark of the simulator: one workload, one process, one thread.

    python3 perfbench/run.py --workload bon.decode --seed 0 --seconds 10 \
        --trace 0

Untraced (``--trace 0``): set up several times, each from a fresh
import of the simulator (median reported as ``setup_s``), then run the
workload's operation in a closed loop for ``--seconds`` and report the
median per-operation rates, rescaled to the nominal host speed
(``hostspeed.py``).  Traced (``--trace 1``): set up and warm up once,
then rebuild the fixture and run a fixed number of operations twice,
plain and with every layer wrapped (see ``layers.py``), and report
per-layer host time and counts plus the tracing overhead.  Every
operation's simulated output is checked.

The last line of stdout is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
is the run's fingerprint.  Spans of a traced run go to
``perfbench/out/``.
"""

from __future__ import annotations

import os
import time

_START = time.perf_counter()

#: Pinned before numpy loads so BLAS and OpenMP run one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(HERE), str(SRC)]

#: End-to-end metrics, printed with ``--trace 0``: (name, unit, better).
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("tokens_per_host_s", "tok/s", "higher"),
    ("requests_per_host_s", "req/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

#: Set-up repetitions per run; ``setup_s`` takes their median.
SETUP_REPEATS = 5


def fingerprint() -> Dict[str, Any]:
    import numpy

    sha = "unknown"
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 \
                and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "threads": {var: os.environ[var] for var in THREAD_VARS},
            "platform": platform.platform()}


class Checks:
    """Counts operations and their failures for one run."""

    def __init__(self, seed: int, recorded: Optional[str]) -> None:
        from workloads import check

        self._check = check
        self.seed = seed
        self.recorded = recorded
        self.first_digest: Optional[str] = None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.op_seconds: List[float] = []
        self.probe_seconds: List[float] = []
        self.setup_seconds: List[float] = []  # imports, then each repeat
        self.setup_probe_seconds: List[float] = []

    def timed(self, workload, fixture) -> Tuple[float, Any]:
        """Run one operation; returns (host seconds, outcome or None)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            outcome = workload.run(fixture, False)
        except Exception as error:  # a failed operation, not a crash
            elapsed = time.perf_counter() - start
            self.op_seconds.append(elapsed)
            self.failed += 1
            self.problems.append(f"{type(error).__name__}: {error}")
            return elapsed, None
        elapsed = time.perf_counter() - start
        self.op_seconds.append(elapsed)
        if self.first_digest is None:
            self.first_digest = outcome.digest
        ok, problems = self._check(outcome, self.seed, self.first_digest,
                                   self.recorded)
        if not ok:
            self.failed += 1
            self.problems.extend(problems)
        return elapsed, outcome


def set_up(workload, seed: int, checks: Checks) -> Tuple[float, Any]:
    """Import the simulator, build and warm up, ``SETUP_REPEATS`` times.

    Returns (``setup_s``, the last fixture).  ``setup_s`` is the time
    from the start of ``run.py`` to the first repetition (interpreter,
    numpy and the benchmark's own modules), rescaled by the median
    set-up probe, plus the median repetition, each rescaled by the
    probes just before and just after it.  A repetition imports the
    simulator's modules afresh, builds the fixture and runs one warm-up
    operation.
    """
    from workloads import forget_program, import_program

    probe = workload.probe
    times = checks.setup_seconds
    probes = checks.setup_probe_seconds
    times.append(time.perf_counter() - _START)
    probes.append(probe.seconds())
    for _ in range(SETUP_REPEATS):
        fixture = None
        forget_program()
        gc.collect()
        start = time.perf_counter()
        import_program()
        workload.cold()
        fixture = workload.build(seed)
        workload.run(fixture, True)
        times.append(time.perf_counter() - start)
        probes.append(probe.seconds())
    base_s = times[0] * probe.nominal_s / statistics.median(probes)
    repeats = [t * 2 * probe.nominal_s / (probes[k] + probes[k + 1])
               for k, t in enumerate(times[1:])]
    return base_s + statistics.median(repeats), fixture


def warm_up(workload, seed: int) -> None:
    """Set up once for a traced run: import, build, one warm-up operation."""
    from workloads import import_program

    import_program()
    workload.cold()
    workload.run(workload.build(seed), True)


def untraced(workload, seconds: float, checks: Checks,
             fixture) -> Dict[str, float]:
    """Closed loop for ``seconds``; median per-operation rates.

    Each operation's host seconds are rescaled to the nominal host speed
    by the workload's probe, timed just before and just after it
    (``hostspeed.py``).
    """
    probe = workload.probe
    tokens, requests = [], []
    gc.collect()
    checks.probe_seconds.append(probe.seconds())
    start = time.perf_counter()
    while True:
        workload.cold()
        elapsed, outcome = checks.timed(workload, fixture)
        checks.probe_seconds.append(probe.seconds())
        if outcome is not None:
            speed = sum(checks.probe_seconds[-2:]) / 2 / probe.nominal_s
            tokens.append(outcome.tokens * speed / elapsed)
            requests.append(outcome.requests * speed / elapsed)
        if time.perf_counter() - start >= seconds:
            break
    return {"tokens_per_host_s": statistics.median(tokens) if tokens else 0.0,
            "requests_per_host_s": (statistics.median(requests)
                                    if requests else 0.0)}


def traced(workload, seed: int, checks: Checks) -> Dict[str, float]:
    import layers
    from repro.npu import DEVICES
    from repro.npu.timing import TimingModel
    from workloads import DEVICE

    def phase() -> Tuple[float, Tuple[int, int]]:
        """One phase: (host seconds rescaled by the probes around it,
        the (hits, misses) its operations added to the pricing caches)."""
        gc.collect()
        hits = misses = 0
        before = workload.probe.seconds()
        start = time.perf_counter()
        fixture = workload.build(seed)
        for _ in range(workload.trace_ops):
            workload.cold()
            counts = layers.price_cache_counts()
            checks.timed(workload, fixture)
            after_op = layers.price_cache_counts()
            hits += after_op[0] - counts[0]
            misses += after_op[1] - counts[1]
        elapsed = time.perf_counter() - start
        after = workload.probe.seconds()
        return (elapsed * 2 * workload.probe.nominal_s / (before + after),
                (hits, misses))

    plain_s, _ = phase()
    recorder = layers.Recorder()
    recorder.install()
    try:
        traced_s, cache_counts = phase()
    finally:
        recorder.uninstall()
    metrics = recorder.metrics(TimingModel(DEVICES[DEVICE].npu), cache_counts)
    metrics["bench.trace_overhead"] = traced_s / plain_s
    metrics["fail_ratio"] = checks.failed / checks.attempted
    recorder.write_spans(HERE / "out" / f"{workload.name}.seed{seed}"
                         ".spans.json", workload=workload.name, seed=seed)
    return metrics


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  digests: Optional[Dict[str, str]] = None
                  ) -> Tuple[Dict[str, Any], Checks]:
    """Run one workload; returns (result object, its operation checks)."""
    from layers import PER_LAYER_METRICS
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    if digests is None:
        with open(HERE / "digests.json") as handle:
            digests = json.load(handle)
    checks = Checks(seed, digests.get(name))
    if trace:
        warm_up(workload, seed)
        values = traced(workload, seed, checks)
        table = PER_LAYER_METRICS
    else:
        setup_s, fixture = set_up(workload, seed, checks)
        values = untraced(workload, seconds, checks, fixture)
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        table = END_TO_END
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {metric: {"value": float(values[metric]), "unit": unit}
                    for metric, unit, _ in table},
    }
    return result, checks


def main(argv: Optional[List[str]] = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    result, checks = run_benchmark(args.workload, args.seed, args.seconds,
                                   bool(args.trace))
    for problem in checks.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "op_seconds": checks.op_seconds,
                      "probe_seconds": checks.probe_seconds,
                      "setup_seconds": checks.setup_seconds,
                      "setup_probe_seconds": checks.setup_probe_seconds,
                      "fingerprint": fingerprint()}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
