"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``experiments`` — list every regenerable table/figure;
* ``run <id> [...]`` — regenerate one or more artifacts and print them;
* ``devices`` — the Table 3 device registry with modelled parameters;
* ``plan <model>`` — deployment feasibility/throughput across devices;
* ``sweep <model> <dataset>`` — test-time-scaling budget sweep;
* ``profile`` — trace a workload, export Perfetto JSON + text report;
* ``bench`` — run the benchmark suite, snapshot it, gate on regressions;
* ``monitor`` — replay a scenario and render timeline/stream/anomaly/
  energy telemetry (schema ``repro.monitor/v1`` with ``--json``);
* ``fleet`` — discrete-event fleet serving simulation with capacity
  planning (schema ``repro.fleet/v1`` with ``--json``);
* ``fuzz`` — seeded differential fuzzing over the oracle registry;
* ``goldens`` — check/update the committed golden fixtures.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Scaling LLM Test-Time Compute with "
                    "Mobile NPU on Smartphones' (EUROSYS '26)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("experiments", help="list regenerable tables/figures")

    run = sub.add_parser("run", help="regenerate artifacts by id")
    run.add_argument("ids", nargs="+", help="experiment ids (e.g. fig15)")

    sub.add_parser("devices", help="show the evaluation device registry")

    plan = sub.add_parser("plan", help="deployment planner for one model")
    plan.add_argument("model", help="model name (e.g. qwen2.5-1.5b)")
    plan.add_argument("--context", type=int, default=4096,
                      help="context budget in tokens")

    sweep = sub.add_parser("sweep", help="test-time-scaling budget sweep")
    sweep.add_argument("model", help="model name (e.g. qwen2.5-1.5b)")
    sweep.add_argument("dataset", choices=["math500", "gsm8k"])
    sweep.add_argument("--method", default="best_of_n",
                       help="scaling method (best_of_n, beam_search, "
                            "self_consistency, weighted_sc, mcts)")
    sweep.add_argument("--budgets", type=int, nargs="+",
                       default=[1, 2, 4, 8, 16])
    sweep.add_argument("--problems", type=int, default=400)

    profile = sub.add_parser(
        "profile",
        help="trace a workload and export a Perfetto JSON + text report")
    profile.add_argument("--workload", choices=["decode", "sweep"],
                         default="decode",
                         help="decode: batched generation on the tiny "
                              "simulator model; sweep: a small TTS budget "
                              "sweep")
    profile.add_argument("--device", default="oneplus_12",
                         help="device key from the Table 3 registry "
                              "(e.g. oneplus_12 for the V75 NPU)")
    profile.add_argument("--batch", type=int, default=8,
                         help="decode batch size / candidate count")
    profile.add_argument("--scheduler", action="store_true",
                         help="decode through the continuous-batching "
                              "scheduler over a paged KV cache (waved "
                              "Best-of-N; --candidates may exceed --batch)")
    profile.add_argument("--candidates", type=int, default=None,
                         help="total candidate count for --scheduler "
                              "(default: 2x batch to show slot backfill)")
    profile.add_argument("--prompt-tokens", type=int, default=8)
    profile.add_argument("--new-tokens", type=int, default=8)
    profile.add_argument("--faults", default=None, metavar="SPEC",
                         help="chaos mode: a deterministic fault plan, e.g. "
                              "'abort@2,alloc@5,throttle@3:efficiency:4' or "
                              "'random:42' (see repro.resilience.FaultPlan); "
                              "requires --scheduler for the decode workload")
    profile.add_argument("--deadline-ms", type=float, default=None,
                         help="per-query wall-clock deadline on the "
                              "simulated timeline; generation degrades to "
                              "best-answer-so-far when exceeded")
    profile.add_argument("--placement", action="store_true",
                         help="print the stage-level backend decision "
                              "table (prefill/decode grids x thermal "
                              "governors) from the Fig. 13 crossover "
                              "models; with --scheduler, also dispatches "
                              "the decode run stage-by-stage")
    profile.add_argument("--trace-out", default="repro_trace.json",
                         help="output path of the chrome://tracing JSON")
    profile.add_argument("--report-out", default=None,
                         help="optional path for the text report "
                              "(printed to stdout regardless)")
    profile.add_argument("--json", default=None, metavar="PATH",
                         dest="json_out",
                         help="emit the report data as structured JSON to "
                              "PATH ('-' for stdout) so profiling runs are "
                              "scriptable")

    bench = sub.add_parser(
        "bench",
        help="run the canonical benchmark scenarios, write a BENCH_<n>.json "
             "snapshot, and/or gate against a baseline")
    bench.add_argument("mode", nargs="?", default="run", choices=["run"],
                       help="run the suite (default)")
    gate = bench.add_mutually_exclusive_group()
    gate.add_argument("--check", action="store_true",
                      help="compare the run against the baseline snapshot "
                           "and exit 2 on regression (writes no history "
                           "snapshot)")
    gate.add_argument("--update-baseline", action="store_true",
                      help="rewrite the baseline snapshot from this run")
    bench.add_argument("--baseline", default=None, metavar="PATH",
                       help="baseline snapshot path (default: "
                            "benchmarks/baseline.json)")
    bench.add_argument("--only", action="append", default=None,
                       metavar="NAME",
                       help="restrict to one scenario (repeatable); "
                            "--check then gates only those scenarios")
    bench.add_argument("--fast", action="store_true",
                       help="run only the scenarios marked fast")
    bench.add_argument("--device", default=None,
                       help="device key from the Table 3 registry "
                            "(default: oneplus_12)")
    bench.add_argument("--seed", type=int, default=0,
                       help="suite seed recorded in the fingerprint")
    bench.add_argument("--out-dir", default=None, metavar="DIR",
                       help="directory for BENCH_<n>.json history "
                            "snapshots (default: benchmarks/history; "
                            "ignored with --check/--update-baseline)")
    bench.add_argument("--json", default=None, metavar="PATH",
                       dest="json_out",
                       help="also write the snapshot JSON to PATH "
                            "('-' for stdout)")
    bench.add_argument("--markdown", action="store_true",
                       help="render the comparison report as markdown")
    bench.add_argument("--list-scenarios", action="store_true",
                       help="list registered scenarios and exit")

    monitor = sub.add_parser(
        "monitor",
        help="replay a bench scenario with the event log armed and render "
             "windowed streams, per-request timelines, anomalies, and "
             "energy attribution")
    monitor.add_argument("--scenario", default="chaos.waves",
                         help="registered bench scenario to replay "
                              "(default: chaos.waves; see "
                              "'repro bench --list-scenarios')")
    monitor.add_argument("--device", default="oneplus_12",
                         help="device key from the Table 3 registry")
    monitor.add_argument("--seed", type=int, default=0,
                         help="scenario seed; the report is a pure function "
                              "of (scenario, device, seed)")
    monitor.add_argument("--windows", type=int, default=8,
                         help="number of equal sim-time windows to fold the "
                              "run into (ignored with --window-ms)")
    monitor.add_argument("--window-ms", type=float, default=None,
                         help="explicit window width in simulated "
                              "milliseconds")
    monitor.add_argument("--json", default=None, metavar="PATH",
                         dest="json_out",
                         help="write the repro.monitor/v1 report JSON to "
                              "PATH ('-' for stdout); byte-identical "
                              "across replays")
    monitor.add_argument("--trace-out", default=None, metavar="PATH",
                         help="also export a chrome://tracing JSON with "
                              "per-request timeline lanes")

    explain = sub.add_parser(
        "explain",
        help="replay a bench scenario with the event log armed and "
             "attribute every simulated nanosecond (and joule) of every "
             "request to a critical-path blame phase")
    explain.add_argument("--scenario", default="chaos.waves",
                         help="registered bench scenario to replay "
                              "(default: chaos.waves; see "
                              "'repro bench --list-scenarios')")
    explain.add_argument("--device", default="oneplus_12",
                         help="device key from the Table 3 registry")
    explain.add_argument("--seed", type=int, default=0,
                         help="scenario seed; the report is a pure "
                              "function of (scenario, device, seed)")
    explain.add_argument("--top", type=int, default=5, dest="top_k",
                         help="exemplar slow-request waterfalls to keep "
                              "in the report (default: 5)")
    explain.add_argument("--json", default=None, metavar="PATH",
                         dest="json_out",
                         help="write the repro.explain/v1 report JSON to "
                              "PATH ('-' for stdout); byte-identical "
                              "across replays")
    explain.add_argument("--trace-out", default=None, metavar="PATH",
                         help="also export a chrome://tracing JSON with "
                              "critical-path blame bars overlaid on the "
                              "per-request lanes")

    fleet = sub.add_parser(
        "fleet",
        help="simulate a phone fleet serving a seeded arrival trace and "
             "report latency percentiles plus devices needed at a p99 "
             "token-latency target")
    fleet.add_argument("--devices", type=int, default=100,
                       help="population size; devices round-robin the "
                            "Table 3 registry across NPU generations")
    fleet.add_argument("--qps", type=float, default=10.0,
                       help="mean arrival rate of the load trace")
    fleet.add_argument("--horizon-seconds", type=float, default=60.0,
                       help="trace length in simulated seconds")
    fleet.add_argument("--requests", type=int, default=None, metavar="N",
                       help="cap the trace at N requests (with "
                            "--horizon-seconds, whichever bound hits "
                            "first)")
    fleet.add_argument("--seed", type=int, default=0,
                       help="trace seed; the report is a pure function of "
                            "the flags")
    fleet.add_argument("--pattern", default="poisson",
                       choices=["poisson", "diurnal"],
                       help="arrival process (diurnal swings the rate "
                            "sinusoidally around --qps)")
    fleet.add_argument("--p99-target-ms", type=float, default=250.0,
                       help="p99 token-latency target the capacity plan "
                            "sizes for")
    fleet.add_argument("--queue-depth", type=int, default=64,
                       help="admission-queue bound; overflow sheds the "
                            "worst-priority request")
    fleet.add_argument("--model", default="qwen2.5-1.5b",
                       help="model key served by every device")
    fleet.add_argument("--no-capacity-plan", action="store_true",
                       help="skip the devices-per-QPS capacity search")
    fleet.add_argument("--faults", default="", metavar="SPEC",
                       help="fleet fault plan, e.g. "
                            "'dev#0:crash@2:5,dev#1:straggle@1:3:10,"
                            "dev#2:drop@4,dev#3:battery@6'; adds a chaos "
                            "section to the report")
    fleet.add_argument("--hedge", action="store_true",
                       help="hedge the p99 queue-wait tail onto a second "
                            "device (first completion wins)")
    fleet.add_argument("--explain", action="store_true",
                       help="record the run's timeline and add the "
                            "critical-path blame section (per-phase "
                            "nanosecond ledger, p50/p99 cohorts) to the "
                            "report; enforces offered == explained")
    fleet.add_argument("--json", default=None, metavar="PATH",
                       dest="json_out",
                       help="write the repro.fleet/v1 report JSON to PATH "
                            "('-' for stdout); byte-identical across "
                            "replays")

    fuzz = sub.add_parser(
        "fuzz",
        help="seeded differential fuzzing over the registered oracles")
    fuzz.add_argument("--trials", type=int, default=100,
                      help="number of random configurations to run")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="master seed; trial i derives its own RNG from "
                           "(seed, i), so sweeps are reproducible")
    fuzz.add_argument("--oracle", action="append", default=None,
                      metavar="NAME",
                      help="restrict to one oracle (repeatable); "
                           "default: all registered oracles")
    fuzz.add_argument("--replay", default=None, metavar="REPRO",
                      help="replay one canonical repro string (e.g. "
                           "'paged_kv::batch=4,block_size=3,...') instead "
                           "of fuzzing")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="report failures without minimizing them")
    fuzz.add_argument("--list-oracles", action="store_true",
                      help="list registered oracles and exit")

    goldens = sub.add_parser(
        "goldens",
        help="check or update the committed golden fixtures")
    mode = goldens.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true", default=True,
                      help="regenerate every case and diff against the "
                           "committed fixture (default)")
    mode.add_argument("--update", action="store_true",
                      help="rewrite the fixtures from the current "
                           "implementation")
    goldens.add_argument("--only", default=None, metavar="CASE",
                         help="restrict to one golden case")
    goldens.add_argument("--dir", default=None, metavar="PATH",
                         help="fixture directory (default: the committed "
                              "src/repro/testing/_goldens)")
    return parser


def _cmd_experiments(out) -> int:
    from .harness import EXPERIMENTS
    for eid, runner in EXPERIMENTS.items():
        doc = (runner.__doc__ or "").strip().splitlines()
        summary = doc[0] if doc else ""
        out.write(f"{eid:<8s} {summary}\n")
    return 0


def _cmd_run(ids: List[str], out) -> int:
    from .errors import HarnessError
    from .harness import run_experiment
    status = 0
    for eid in ids:
        try:
            result = run_experiment(eid)
        except HarnessError as error:
            out.write(f"error: {error}\n")
            status = 2
            continue
        out.write(result.render() + "\n\n")
    return status


def _cmd_devices(out) -> int:
    from .harness.tables import run_table3
    out.write(run_table3().render() + "\n")
    return 0


def _cmd_plan(model: str, context: int, out) -> int:
    from .errors import AddressSpaceError, ModelConfigError
    from .harness.report import render_table
    from .llm import get_model_config
    from .npu import DEVICES
    from .perf import DecodePerformanceModel, MemoryModel, PowerModel

    try:
        config = get_model_config(model)
    except ModelConfigError as error:
        out.write(f"error: {error}\n")
        return 2
    rows = []
    for device in DEVICES.values():
        heap = device.rpcmem_heap()
        try:
            heap.alloc(config.npu_session_bytes(context), name="session")
        except AddressSpaceError:
            rows.append([device.short_name, "-", "-", "-",
                         "no: NPU VA space"])
            continue
        perf = DecodePerformanceModel(config, device)
        power = PowerModel(config, device)
        memory = MemoryModel(config, device, context)
        rows.append([
            device.short_name,
            round(perf.decode_throughput(8, 1024), 1),
            round(power.sample(8).power_w, 2),
            round(memory.dmabuf_bytes() / 2**20),
            "yes",
        ])
    out.write(render_table(
        f"{config.name} deployment (batch 8, context budget {context})",
        ["device", "decode tok/s", "power (W)", "dmabuf (MiB)", "fits"],
        rows) + "\n")
    return 0


def _cmd_sweep(model: str, dataset: str, method: str, budgets: List[int],
               problems: int, out) -> int:
    from .errors import ScalingError
    from .harness.report import render_table
    from .tts import TaskDataset, budget_sweep, get_model_profile

    try:
        profile = get_model_profile(model)
        data = TaskDataset.generate(dataset, problems, seed=0)
        curve = budget_sweep(method, data, profile, budgets=budgets, seed=0)
    except ScalingError as error:
        out.write(f"error: {error}\n")
        return 2
    rows = [[budget, round(100 * acc, 1), round(tokens)]
            for budget, acc, tokens in zip(curve.budgets, curve.accuracies,
                                           curve.tokens_per_problem)]
    out.write(render_table(
        f"{method} on {dataset} — {model} ({problems} problems)",
        ["budget N", "accuracy (%)", "tokens/problem"], rows) + "\n")
    return 0


def _cmd_profile(workload: str, device_key: str, batch: int,
                 prompt_tokens: int, new_tokens: int, trace_out: str,
                 report_out: Optional[str], out, scheduler: bool = False,
                 candidates: Optional[int] = None,
                 faults: Optional[str] = None,
                 deadline_ms: Optional[float] = None,
                 json_out: Optional[str] = None,
                 placement: bool = False) -> int:
    import json

    from .errors import ReproError
    from .harness.report import render_metrics
    from .npu import DEVICES
    from .npu.timing import TimingModel
    from .obs import (
        EventLog,
        MetricsRegistry,
        Tracer,
        report_data,
        scope,
        text_report,
        write_chrome_trace,
    )

    if device_key not in DEVICES:
        out.write(f"error: unknown device {device_key!r}; "
                  f"known: {sorted(DEVICES)}\n")
        return 2
    device = DEVICES[device_key]
    timing = TimingModel(device.npu)

    placement_rows = None
    if placement:
        from .llm.config import get_model_config
        from .llm.dispatch import BackendSelector

        # the crossover table is reported for the paper's 3B model —
        # the tiny simulator config the run itself uses is GPU-won
        # everywhere and would hide the Fig. 13 structure
        table_selector = BackendSelector(device,
                                         get_model_config("qwen2.5-3b"))
        out.write(f"== stage-level placement ({device_key} / "
                  f"qwen2.5-3b) ==\n")
        placement_rows = []
        for governor in ("performance", "balanced", "efficiency"):
            cross = table_selector.crossover_batch(governor=governor)
            out.write(f"governor {governor}: NPU wins decode from "
                      f"batch {cross}\n")
            for row in table_selector.decision_table(governor):
                out.write(f"  {row.stage:<8s} size {row.size:>5d} -> "
                          f"{row.backend:<4s} "
                          f"({row.latency_seconds * 1e3:9.4f} ms)\n")
                placement_rows.append({
                    "governor": governor, "stage": row.stage,
                    "size": row.size, "backend": row.backend,
                    "latency_seconds": row.latency_seconds})
        out.write("\n")

    fault_plan = None
    if faults is not None:
        from .resilience import FaultPlan
        fault_plan = FaultPlan.parse(faults)
    if (fault_plan is not None or deadline_ms is not None) and not (
            workload == "decode" and scheduler):
        if workload == "decode":
            out.write("error: --faults/--deadline-ms on the decode workload "
                      "require --scheduler (recovery lives in the "
                      "continuous-batching scheduler)\n")
            return 2
        if deadline_ms is not None:
            out.write("error: --deadline-ms only applies to the decode "
                      "workload (the sweep path is in decode-step units)\n")
            return 2

    tracer, registry = Tracer(enabled=True), MetricsRegistry()
    log = EventLog(enabled=True)
    # the sweep workload prices no kernels, so it reports no utilization
    util = None
    with scope(tracer=tracer, metrics=registry, log=log):
        try:
            if workload == "decode":
                from .llm import (
                    ContinuousBatchingScheduler,
                    InferenceEngine,
                    NPUTransformer,
                    TransformerWeights,
                )
                from .llm.config import tiny_config

                config = tiny_config()
                weights = TransformerWeights.generate(config, seed=0)
                model = NPUTransformer(weights)
                engine = InferenceEngine(
                    model, batch=batch,
                    max_context=prompt_tokens + new_tokens + 1, device=device,
                    kv_backend="paged" if scheduler else "contiguous")
                if scheduler:
                    n_candidates = candidates if candidates is not None \
                        else 2 * batch
                    sched = ContinuousBatchingScheduler(engine)
                    dispatch = None
                    if placement:
                        from .llm.dispatch import BackendSelector
                        dispatch = BackendSelector(device, config)
                    result = sched.generate(
                        list(range(1, prompt_tokens + 1)),
                        n_candidates=n_candidates,
                        max_new_tokens=new_tokens,
                        fault_plan=fault_plan,
                        dispatch=dispatch,
                        deadline_seconds=(
                            deadline_ms / 1e3 if deadline_ms is not None
                            else None))
                    util = result.utilization
                    out.write(
                        f"scheduled {result.total_generated_tokens} tokens "
                        f"across {n_candidates} candidates on batch {batch} "
                        f"({result.n_steps} steps, mean live batch "
                        f"{result.mean_live_batch:.2f}, "
                        f"{result.n_admissions} admissions, "
                        f"{result.cow_copies} CoW copies, "
                        f"peak KV {result.peak_kv_bytes} B, "
                        f"{result.sim_seconds * 1e3:.3f} ms simulated)\n")
                    if dispatch is not None:
                        backends = sorted({b for _, b in result.backend_steps})
                        out.write(
                            f"placement: decode on {'/'.join(backends)}, "
                            f"{result.n_backend_switches} backend switches, "
                            f"{result.migration_seconds * 1e3:.3f} ms "
                            f"migrating KV\n")
                    if fault_plan is not None or deadline_ms is not None:
                        kind_counts: dict = {}
                        for record in result.faults:
                            kind_counts[record.kind] = (
                                kind_counts.get(record.kind, 0) + 1)
                        kinds = ", ".join(
                            f"{k}={v}" for k, v in sorted(kind_counts.items())
                        ) or "none"
                        out.write(
                            f"chaos: faults [{kinds}], {result.n_retries} "
                            f"retries, {result.n_evictions} evictions, "
                            f"{result.n_rebuilds} KV rebuilds "
                            f"({result.rebuilt_tokens} tokens), "
                            f"{len(result.governor_steps)} governor changes, "
                            f"deadline hit: {result.deadline_hit}, "
                            f"degraded: {result.degraded}\n")
                else:
                    result = engine.generate(
                        list(range(1, prompt_tokens + 1)),
                        max_new_tokens=new_tokens)
                    util = result.utilization
                    out.write(f"generated {result.total_generated_tokens} "
                              f"tokens across {batch} candidates "
                              f"({result.n_decode_steps} decode steps)\n")
            else:
                from .tts import TaskDataset, budget_sweep, get_model_profile

                profile = get_model_profile("qwen2.5-1.5b")
                data = TaskDataset.generate("math500", 50, seed=0)
                budget_sweep("best_of_n", data, profile, budgets=[1, 2, 4],
                             seed=0, engine_batch=batch if scheduler else None,
                             fault_plan=fault_plan)
        except ReproError as error:
            out.write(f"error: {error}\n")
            return 2

    trace = write_chrome_trace(trace_out, tracer, events=log,
                               process_name=f"repro profile ({device_key})")
    report = text_report(tracer, timing=timing, metrics=registry)
    if report_out is not None:
        with open(report_out, "w") as handle:
            handle.write(report)
    out.write(report)
    if json_out is not None:
        data = report_data(tracer, timing=timing, metrics=registry)
        data["workload"] = ("scheduler" if workload == "decode" and scheduler
                            else workload)
        data["device"] = device_key
        if placement_rows is not None:
            data["placement"] = placement_rows
        if json_out == "-":
            out.write(json.dumps(data, indent=2, sort_keys=True) + "\n")
        else:
            with open(json_out, "w") as handle:
                json.dump(data, handle, indent=2, sort_keys=True)
                handle.write("\n")
            out.write(f"profile JSON written to {json_out}\n")
    if util is not None:
        out.write("\n== simulated engine utilization ==\n")
        for lane, fraction in util.items():
            out.write(f"{lane.upper():<4s} busy {100 * fraction:5.1f}%  "
                      f"idle {100 * (1 - fraction):5.1f}%\n")
    snapshot = registry.snapshot()
    if snapshot:
        out.write("\n" + render_metrics(snapshot) + "\n")
    out.write(f"\ntrace written to {trace_out} "
              f"({len(trace['traceEvents'])} events); open in "
              f"https://ui.perfetto.dev\n")
    return 0


def _cmd_bench(check: bool, update_baseline: bool, baseline: Optional[str],
               only, fast: bool, device: Optional[str], seed: int,
               out_dir: Optional[str], json_out: Optional[str],
               markdown: bool, list_scenarios: bool, out) -> int:
    import json
    import os

    from .obs.bench import (
        DEFAULT_BASELINE_PATH,
        DEFAULT_DEVICE,
        SCENARIOS,
        BenchError,
        BenchSnapshot,
        compare_snapshots,
        next_snapshot_path,
        run_suite,
    )

    if list_scenarios:
        for name in sorted(SCENARIOS):
            scenario = SCENARIOS[name]
            tag = "fast" if scenario.fast else "slow"
            out.write(f"{name:<20s} [{tag}] {scenario.description}\n")
        return 0

    baseline_path = baseline if baseline is not None else DEFAULT_BASELINE_PATH
    device_key = device if device is not None else DEFAULT_DEVICE
    snapshot = run_suite(only=only, device_key=device_key, seed=seed,
                         fast_only=fast)
    out.write(f"ran {len(snapshot.records)} scenario(s) on {device_key} "
              f"(seed {seed}, git {snapshot.fingerprint['git_sha'][:12]})\n")
    for name in sorted(snapshot.records):
        metrics = snapshot.records[name].metrics
        sim = metrics.get("sim_seconds")
        tput = metrics.get("tokens_per_second")
        parts = [f"  {name:<20s}"]
        if sim is not None:
            parts.append(f"sim {sim * 1e3:9.3f} ms")
        if tput is not None:
            parts.append(f"{tput:12.1f} tok/s")
        out.write(" ".join(parts) + "\n")

    if json_out is not None:
        if json_out == "-":
            out.write(json.dumps(snapshot.to_json(), indent=2,
                                 sort_keys=True) + "\n")
        else:
            snapshot.write(json_out)
            out.write(f"snapshot written to {json_out}\n")

    if update_baseline:
        os.makedirs(os.path.dirname(baseline_path) or ".", exist_ok=True)
        snapshot.write(baseline_path)
        out.write(f"baseline updated: {baseline_path}\n")
        return 0

    if check:
        try:
            base = BenchSnapshot.load(baseline_path)
        except BenchError as error:
            out.write(f"error: {error}\n")
            out.write("hint: seed a baseline with "
                      "'repro bench --update-baseline'\n")
            return 2
        report = compare_snapshots(base, snapshot)
        out.write("\n" + report.render(markdown=markdown) + "\n")
        return 0 if report.ok else 2

    # plain run: append the snapshot to the bench history
    history_dir = out_dir if out_dir is not None \
        else os.path.join("benchmarks", "history")
    path = snapshot.write(next_snapshot_path(history_dir))
    out.write(f"snapshot written to {path}\n")
    return 0


def _cmd_monitor(scenario: str, device: str, seed: int, windows: int,
                 window_ms: Optional[float], json_out: Optional[str],
                 trace_out: Optional[str], out) -> int:
    from .errors import ReproError
    from .obs.monitor import run_monitor

    try:
        report = run_monitor(
            scenario, device_key=device, seed=seed, n_windows=windows,
            window_seconds=(window_ms / 1e3 if window_ms is not None
                            else None))
    except ReproError as error:
        out.write(f"error: {error}\n")
        return 2

    out.write(report.render())
    if json_out is not None:
        if json_out == "-":
            out.write(report.to_json_text())
        else:
            with open(json_out, "w") as handle:
                handle.write(report.to_json_text())
            out.write(f"monitor JSON written to {json_out}\n")
    if trace_out is not None:
        from .obs import write_chrome_trace
        trace = write_chrome_trace(
            trace_out, report.tracer, events=report.log,
            process_name=f"repro monitor ({scenario} on {device})")
        out.write(f"trace written to {trace_out} "
                  f"({len(trace['traceEvents'])} events); open in "
                  f"https://ui.perfetto.dev\n")
    return 0


def _cmd_explain(scenario: str, device: str, seed: int, top_k: int,
                 json_out: Optional[str], trace_out: Optional[str],
                 out) -> int:
    from .errors import ReproError
    from .obs.blame import run_explain

    try:
        report = run_explain(scenario, device_key=device, seed=seed,
                             top_k=top_k)
    except ReproError as error:
        out.write(f"error: {error}\n")
        return 2

    out.write(report.render(top_k=top_k))
    if json_out is not None:
        if json_out == "-":
            out.write(report.to_json_text())
        else:
            with open(json_out, "w") as handle:
                handle.write(report.to_json_text())
            out.write(f"explain JSON written to {json_out}\n")
    if trace_out is not None:
        from .obs import write_chrome_trace
        trace = write_chrome_trace(
            trace_out, report.tracer, events=report.log,
            critical_paths=report.critical_paths(),
            process_name=f"repro explain ({scenario} on {device})")
        out.write(f"trace written to {trace_out} "
                  f"({len(trace['traceEvents'])} events); open in "
                  f"https://ui.perfetto.dev\n")
    if report.lifecycle_problems:
        out.write(f"error: {len(report.lifecycle_problems)} lifecycle "
                  "problem(s) in the recorded timeline\n")
        return 2
    return 0


def _cmd_fleet(devices: int, qps: float, horizon_seconds: float,
               max_requests: Optional[int], seed: int, pattern: str,
               p99_target_ms: float, queue_depth: int, model: str,
               no_capacity_plan: bool, faults: str, hedge: bool,
               json_out: Optional[str], out, explain: bool = False) -> int:
    from .errors import ReproError
    from .fleet import run_fleet

    try:
        report = run_fleet(
            devices, qps, horizon_seconds=horizon_seconds,
            max_requests=max_requests, seed=seed, pattern=pattern,
            queue_depth=queue_depth, p99_target_ms=p99_target_ms,
            model_name=model, with_capacity_plan=not no_capacity_plan,
            fault_spec=faults, hedge=hedge, explain=explain)
    except ReproError as error:
        out.write(f"error: {error}\n")
        return 2

    out.write(report.render())
    if json_out is not None:
        if json_out == "-":
            out.write(report.to_json_text())
        else:
            with open(json_out, "w") as handle:
                handle.write(report.to_json_text())
            out.write(f"fleet JSON written to {json_out}\n")
    return 0


def _cmd_fuzz(trials: int, seed: int, oracle_names, replay, shrink: bool,
              list_oracles: bool, out) -> int:
    from .testing import ORACLES, fuzz, run_repro

    if list_oracles:
        width = max(map(len, ORACLES))
        for name in sorted(ORACLES):
            out.write(f"{name:<{width}s} {ORACLES[name].description}\n")
        return 0
    if replay is not None:
        result = run_repro(replay)
        out.write(f"replay {result.repro}\n")
        if result.notes:
            notes = ", ".join(f"{k}={v:g}"
                              for k, v in sorted(result.notes.items()))
            out.write(f"notes: {notes}\n")
        if result.ok:
            out.write("PASS\n")
            return 0
        out.write(f"FAIL {result.mismatch.kind}: "
                  f"{result.mismatch.message}\n")
        if result.mismatch.diff is not None:
            out.write(f"diff: {result.mismatch.diff.to_json()}\n")
        return 1
    report = fuzz(trials, seed=seed, oracles=oracle_names, shrink=shrink)
    out.write(report.render() + "\n")
    return 0 if report.ok else 1


def _cmd_goldens(update: bool, only, directory, out) -> int:
    from .testing import check_goldens, update_goldens

    if update:
        for path in update_goldens(directory=directory, only=only):
            out.write(f"wrote {path}\n")
        return 0
    mismatches = check_goldens(directory=directory, only=only)
    if not mismatches:
        from .testing import GOLDEN_CASES
        n = 1 if only is not None else len(GOLDEN_CASES)
        out.write(f"goldens ok ({n} case{'s' if n != 1 else ''})\n")
        return 0
    for mismatch in mismatches:
        out.write(f"MISMATCH {mismatch.case}: {mismatch.message}\n")
        out.write(f"  fixture: {mismatch.path}\n")
    out.write(f"{len(mismatches)} golden mismatch(es); run "
              "'repro goldens --update' if the change is intentional\n")
    return 1


def _dispatch(args, out) -> int:
    if args.command == "experiments":
        return _cmd_experiments(out)
    if args.command == "run":
        return _cmd_run(args.ids, out)
    if args.command == "devices":
        return _cmd_devices(out)
    if args.command == "plan":
        return _cmd_plan(args.model, args.context, out)
    if args.command == "sweep":
        return _cmd_sweep(args.model, args.dataset, args.method,
                          args.budgets, args.problems, out)
    if args.command == "profile":
        return _cmd_profile(args.workload, args.device, args.batch,
                            args.prompt_tokens, args.new_tokens,
                            args.trace_out, args.report_out, out,
                            scheduler=args.scheduler,
                            candidates=args.candidates,
                            faults=args.faults,
                            deadline_ms=args.deadline_ms,
                            json_out=args.json_out,
                            placement=args.placement)
    if args.command == "bench":
        return _cmd_bench(args.check, args.update_baseline, args.baseline,
                          args.only, args.fast, args.device, args.seed,
                          args.out_dir, args.json_out, args.markdown,
                          args.list_scenarios, out)
    if args.command == "monitor":
        return _cmd_monitor(args.scenario, args.device, args.seed,
                            args.windows, args.window_ms, args.json_out,
                            args.trace_out, out)
    if args.command == "explain":
        return _cmd_explain(args.scenario, args.device, args.seed,
                            args.top_k, args.json_out, args.trace_out, out)
    if args.command == "fleet":
        return _cmd_fleet(args.devices, args.qps, args.horizon_seconds,
                          args.requests, args.seed, args.pattern,
                          args.p99_target_ms, args.queue_depth, args.model,
                          args.no_capacity_plan, args.faults, args.hedge,
                          args.json_out, out, explain=args.explain)
    if args.command == "fuzz":
        return _cmd_fuzz(args.trials, args.seed, args.oracle, args.replay,
                         not args.no_shrink, args.list_oracles, out)
    if args.command == "goldens":
        return _cmd_goldens(args.update, args.only, args.dir, out)
    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    from .errors import ReproError
    try:
        return _dispatch(args, out)
    except ReproError as error:
        # commands catch the errors they can explain; anything that
        # escapes (a malformed fault spec, an infeasible plan) still
        # exits with one line instead of a traceback
        out.write(f"error: {error}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
