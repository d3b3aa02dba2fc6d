"""Regeneration of the paper's figures (Figs. 5, 8, 10-17).

Each ``run_figN`` function recomputes the series the corresponding
figure plots and returns an :class:`ExperimentResult` whose rows are the
figure's data points, with the paper's qualitative claims recorded next
to what we measure.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..errors import AddressSpaceError
from ..kernels.softmax import OnChipSoftmax
from ..llm.config import get_model_config
from ..npu.hvx import HVXContext
from ..npu.memory import TCM
from ..npu.soc import DEVICES, get_device
from ..npu.timing import KernelCost, TimingModel, V75, gemm_cost
from ..perf.baselines import AdrenoGPUModel, QNNReferenceModel
from ..perf.latency import DecodePerformanceModel, attention_phase_costs
from ..perf.memory import MemoryModel
from ..perf.power import PowerModel
from ..tts.scaling import budget_sweep
from ..tts.tasks import TaskDataset, get_model_profile
from .report import ExperimentResult

__all__ = [
    "run_fig5", "run_fig8", "run_fig10", "run_fig11", "run_fig12",
    "run_fig13", "run_fig14", "run_fig15", "run_fig16", "run_fig17",
]

_DATASET_CACHE: Dict[str, TaskDataset] = {}


def _dataset(name: str, n_problems: int = 400) -> TaskDataset:
    key = f"{name}-{n_problems}"
    if key not in _DATASET_CACHE:
        _DATASET_CACHE[key] = TaskDataset.generate(name, n_problems, seed=0)
    return _DATASET_CACHE[key]


# ----------------------------------------------------------------------
# Fig. 5 — accuracy vs generation budget (Best-of-N, two models)
# ----------------------------------------------------------------------
def run_fig5(budgets=(1, 2, 4, 8, 16)) -> ExperimentResult:
    """MATH500 accuracy vs generation budget (Best-of-N, two models)."""
    dataset = _dataset("math500")
    rows = []
    curves = {}
    for model in ("llama3.2-1b", "qwen2.5-1.5b"):
        curve = budget_sweep("best_of_n", dataset, get_model_profile(model),
                             budgets=budgets, seed=11)
        curves[model] = curve
        for budget, acc in zip(curve.budgets, curve.accuracies):
            rows.append([model, budget, round(100 * acc, 1)])
    monotone = all(
        curves[m].accuracies[-1] > curves[m].accuracies[0] for m in curves)
    return ExperimentResult(
        experiment_id="fig5",
        title="MATH500 accuracy vs generation budget (Best-of-N)",
        headers=["model", "budget N", "accuracy (%)"],
        rows=rows,
        paper_claims={"trend": "accuracy improves significantly as the "
                               "generation budget increases"},
        measured_claims={"trend": "monotone improvement confirmed"
                         if monotone else "NOT monotone"},
    )


# ----------------------------------------------------------------------
# Fig. 8 — FlashAttention latency breakdown on the NPU
# ----------------------------------------------------------------------
def run_fig8(prompt_len: int = 4096,
             query_lengths=(1, 2, 4, 8, 16, 32)) -> ExperimentResult:
    """Latency composition of FP16 FlashAttention (Qwen2.5-1.5B geometry)."""
    cfg = get_model_config("qwen2.5-1.5b")
    timing = TimingModel(V75)
    rows = []
    softmax_shares = []
    for n_q in query_lengths:
        phases = attention_phase_costs(n_q * cfg.gqa_group, prompt_len,
                                       cfg.head_dim, method="lut")
        seconds = {name: timing.seconds(cost) for name, cost in phases.items()}
        matmul = seconds["qk_matmul"] + seconds["pv_matmul"]
        # Fig. 8 decomposes *on-chip* execution; KV streaming overlaps via
        # DMA and is reported separately
        total = matmul + seconds["softmax"] + seconds["rescale"]
        share = seconds["softmax"] / total
        softmax_shares.append(share)
        rows.append([n_q, round(1e6 * matmul, 1),
                     round(1e6 * seconds["softmax"], 1),
                     round(1e6 * seconds["rescale"], 1),
                     round(100 * share, 1)])
    return ExperimentResult(
        experiment_id="fig8",
        title=f"FlashAttention latency breakdown (prompt {prompt_len}, "
              "per KV head, V75)",
        headers=["query len", "matmul (us)", "softmax (us)", "rescale (us)",
                 "softmax share (%)"],
        rows=rows,
        paper_claims={"bottleneck": "matrix multiplication contributes little; "
                                    "Softmax dominates as query length grows"},
        measured_claims={"bottleneck": f"softmax share grows "
                                       f"{100 * softmax_shares[0]:.0f}% -> "
                                       f"{100 * softmax_shares[-1]:.0f}%"},
    )


# ----------------------------------------------------------------------
# Fig. 10 — accuracy-latency trade-off (Pareto)
# ----------------------------------------------------------------------
def run_fig10(device_key: str = "oneplus_12", dataset_name: str = "math500",
              budgets=(1, 2, 4, 8, 16)) -> ExperimentResult:
    """Accuracy vs per-step decode latency for BoN and Beam Search."""
    device = get_device(device_key)
    dataset = _dataset(dataset_name, n_problems=800)
    rows = []
    summary: Dict[str, Dict[int, "tuple[float, float]"]] = {}
    for model in ("qwen2.5-1.5b", "qwen2.5-3b", "llama3.2-1b", "llama3.2-3b"):
        cfg = get_model_config(model)
        perf = DecodePerformanceModel(cfg, device)
        profile = get_model_profile(model)
        for method in ("best_of_n", "beam_search"):
            curve = budget_sweep(method, dataset, profile, budgets=budgets,
                                 seed=23)
            for budget, acc in zip(curve.budgets, curve.accuracies):
                latency_ms = 1e3 * perf.decode_latency(budget, 1024)
                rows.append([model, method, budget, round(100 * acc, 1),
                             round(latency_ms, 1)])
                summary.setdefault(f"{model}/{method}", {})[budget] = \
                    (acc, latency_ms)

    # Pareto claim: small model + TTS beats the larger model's base point
    q15 = summary["qwen2.5-1.5b/best_of_n"]
    q3 = summary["qwen2.5-3b/best_of_n"]
    q15_beats_3b = any(acc > q3[1][0] and lat < q3[1][1]
                       for acc, lat in q15.values())
    q3_beats_7b = max(acc for acc, _ in q3.values()) > \
        get_model_profile("qwen2.5-7b").base_accuracy[dataset_name]
    return ExperimentResult(
        experiment_id="fig10",
        title=f"Accuracy-latency trade-off ({dataset_name}, "
              f"{device.short_name})",
        headers=["model", "method", "budget", "accuracy (%)",
                 "decode latency/step (ms)"],
        rows=rows,
        paper_claims={
            "pareto": "Best-of-N with Qwen2.5-1.5B/3B outperforms the base "
                      "accuracies of the 3B/7B models; test-time scaling "
                      "yields a superior Pareto frontier",
        },
        measured_claims={
            "pareto": f"1.5B+TTS dominates the 3B base point: {q15_beats_3b}; "
                      f"3B+TTS exceeds the 7B base accuracy: {q3_beats_7b}",
        },
        notes=["8 Gen 2 rows are omitted for >=3B models (NPU VA-space "
               "limitation, §7.2.1)"],
    )


# ----------------------------------------------------------------------
# Fig. 11 — decode throughput vs batch size
# ----------------------------------------------------------------------
def run_fig11(batches=(1, 2, 4, 8, 16), context: int = 1024) -> ExperimentResult:
    """End-to-end decode throughput vs batch size, all devices."""
    rows = []
    scaling: Dict[str, float] = {}
    models = ("qwen2.5-1.5b", "llama3.2-1b", "qwen2.5-3b", "llama3.2-3b")
    for device in DEVICES.values():
        for model in models:
            cfg = get_model_config(model)
            # the 2 GiB VA space of 8 Gen 2 rejects >= 3B models
            try:
                heap = device.rpcmem_heap()
                heap.alloc(cfg.npu_session_bytes(4096), name="session")
            except AddressSpaceError:
                rows.append([device.short_name, model, "-", "does not fit "
                             "(VA space)"])
                continue
            perf = DecodePerformanceModel(cfg, device)
            tps = [perf.decode_throughput(b, context) for b in batches]
            scaling[f"{device.short_name}/{model}"] = tps[-1] / tps[0]
            for batch, value in zip(batches, tps):
                rows.append([device.short_name, model, batch, round(value, 1)])
    mean_scaling = float(np.mean(list(scaling.values())))
    return ExperimentResult(
        experiment_id="fig11",
        title="End-to-end decode throughput vs batch size",
        headers=["device", "model", "batch", "throughput (tok/s)"],
        rows=rows,
        paper_claims={
            "scaling": "throughput increases significantly with batch but "
                       "sub-linearly (CPU-side lm_head grows to ~50% of step "
                       "time at batch 16)",
            "8G2": "only ~1B models run on OnePlus Ace3 (2 GiB VA space)",
        },
        measured_claims={
            "scaling": f"mean batch-16/batch-1 speedup {mean_scaling:.1f}x "
                       "(sub-linear)",
            "8G2": f"{sum(1 for r in rows if r[3] == 'does not fit (VA space)')} "
                   "model/device combinations rejected by the VA-space check",
        },
    )


# ----------------------------------------------------------------------
# Fig. 12 — power and energy during decoding
# ----------------------------------------------------------------------
def run_fig12(batches=(1, 2, 4, 8, 16)) -> ExperimentResult:
    """Power and energy during decoding (OnePlus 12)."""
    device = get_device("oneplus_12")
    rows = []
    samples = {}
    for model in ("qwen2.5-1.5b", "qwen2.5-3b"):
        power = PowerModel(get_model_config(model), device)
        for batch in batches:
            sample = power.sample(batch)
            samples[(model, batch)] = sample
            rows.append([model, batch, round(sample.power_w, 2),
                         round(1e3 * sample.energy_per_token_j, 1)])
    claim_energy = (samples[("qwen2.5-1.5b", 8)].energy_per_token_j
                    < samples[("qwen2.5-3b", 1)].energy_per_token_j)
    max_power = max(s.power_w for s in samples.values())
    return ExperimentResult(
        experiment_id="fig12",
        title="Power and energy during decoding (OnePlus 12)",
        headers=["model", "batch", "power (W)", "energy/token (mJ)"],
        rows=rows,
        paper_claims={
            "power": "1.5B power grows with batch but stays within 5 W; "
                     "3B stabilizes around 4.3 W",
            "energy": "1.5B at batch 8 uses less energy per token than 3B "
                      "at batch 1",
        },
        measured_claims={
            "power": f"max observed {max_power:.2f} W",
            "energy": f"1.5B@8 < 3B@1: {claim_energy}",
        },
    )


# ----------------------------------------------------------------------
# Fig. 13 — throughput comparison vs GPU (OpenCL) and QNN
# ----------------------------------------------------------------------
def run_fig13(batches=(1, 2, 4, 8, 16),
              prompt_len: int = 512) -> ExperimentResult:
    """Throughput comparison: ours vs GPU (OpenCL) vs QNN FP16."""
    device = get_device("oneplus_12")
    rows = []
    crossover_ok = {}
    prefill_win = {}
    for model in ("qwen2.5-1.5b", "qwen2.5-3b"):
        cfg = get_model_config(model)
        ours = DecodePerformanceModel(cfg, device)
        gpu = AdrenoGPUModel(cfg)
        qnn = QNNReferenceModel(cfg, device)
        ours_tps = [ours.decode_throughput(b, 1024) for b in batches]
        gpu_tps = [gpu.decode_throughput(b, 1024) for b in batches]
        for batch, o, g in zip(batches, ours_tps, gpu_tps):
            # QNN's static fixed-shape graphs are reported at batch 1 only
            qnn_cell = round(qnn.decode_throughput(1, 1024), 1) \
                if batch == 1 else "-"
            rows.append([model, "decode", batch, round(o, 1), round(g, 1),
                         qnn_cell])
        crossover_ok[model] = (gpu_tps[0] > ours_tps[0]
                               and ours_tps[-1] > gpu_tps[-1])
        ours_pf = ours.prefill_throughput(prompt_len)
        gpu_pf = gpu.prefill_throughput(prompt_len)
        qnn_pf = qnn.prefill_throughput(prompt_len)
        prefill_win[model] = ours_pf > gpu_pf
        rows.append([model, f"prefill@{prompt_len}", "-", round(ours_pf, 1),
                     round(gpu_pf, 1), round(qnn_pf, 1)])
    return ExperimentResult(
        experiment_id="fig13",
        title="Inference throughput: ours vs GPU (OpenCL) vs QNN FP16",
        headers=["model", "phase", "batch", "ours (tok/s)", "GPU (tok/s)",
                 "QNN (tok/s)"],
        rows=rows,
        paper_claims={
            "decode": "GPU decodes faster at batch 1, but our NPU system has "
                      "higher throughput and better scaling at larger batches",
            "prefill": "ours consistently outperforms the GPU; comparable "
                       "with QNN on some workloads",
        },
        measured_claims={
            "decode": f"batch-1 GPU win + large-batch NPU win: {crossover_ok}",
            "prefill": f"ours > GPU: {prefill_win}",
        },
    )


# ----------------------------------------------------------------------
# Fig. 14 — softmax exp ablation (functional traces)
# ----------------------------------------------------------------------
def run_fig14(query_lengths=(1, 4, 16),
              kv_lengths=(1024, 4096, 16384)) -> ExperimentResult:
    """On-chip softmax latency by exp implementation (functional traces)."""
    timing = TimingModel(V75)
    rng = np.random.default_rng(3)
    rows = []
    ratios_f32 = []
    ratios_f16 = []
    for n_q in query_lengths:
        for n_kv in kv_lengths:
            scores = rng.normal(0, 2, (n_q, n_kv)).astype(np.float16)
            seconds = {}
            for method in ("poly32", "poly16", "lut"):
                tcm = TCM()
                hvx = HVXContext("qfloat")
                softmax = OnChipSoftmax(hvx, method, tcm=tcm)
                softmax(scores)
                cost = KernelCost.from_trace(hvx.trace)
                seconds[method] = timing.seconds(cost)
            speedup32 = seconds["poly32"] / seconds["lut"]
            speedup16 = seconds["poly16"] / seconds["lut"]
            ratios_f32.append(speedup32)
            ratios_f16.append(speedup16)
            rows.append([n_q, n_kv, round(1e6 * seconds["poly32"], 3),
                         round(1e6 * seconds["poly16"], 3),
                         round(1e6 * seconds["lut"], 3),
                         round(speedup32, 2), round(speedup16, 2)])
    return ExperimentResult(
        experiment_id="fig14",
        title="On-chip softmax latency by exp implementation (V75)",
        headers=["Nq", "Nkv", "f32 exp (us)", "f16 exp (us)", "LUT exp (us)",
                 "speedup vs f32", "speedup vs f16"],
        rows=rows,
        paper_claims={
            "speedup vs f32": "1.26x - 2.19x",
            "speedup vs f16": "up to 1.60x",
            "trend": "larger queries at short context slightly reduce the "
                     "ratio; alleviated at longer KV",
        },
        measured_claims={
            "speedup vs f32": f"{min(ratios_f32):.2f}x - {max(ratios_f32):.2f}x",
            "speedup vs f16": f"up to {max(ratios_f16):.2f}x",
            "trend": f"ratio at Nq=16/Nkv=1024 ({rows[6][5]}) below "
                     f"Nq=16/Nkv=16384 ({rows[8][5]})",
        },
    )


# ----------------------------------------------------------------------
# Fig. 15 — GEMM dequantization ablation (functional kernels)
# ----------------------------------------------------------------------
_FIG15_MATRICES = {
    # the paper's operator-level GEMM set: attention Wq/Wo and FFN
    # gate/up/down projections of the evaluated models (§7.1)
    "Q1.5B Wq/Wo": (1536, 1536),
    "Q1.5B Wgate/Wup": (1536, 8960),
    "L1B Wq/Wo": (2048, 2048),
    "L1B Wgate/Wup": (2048, 8192),
    "Q3B Wgate/Wup": (2048, 11008),
    "L3B Wgate/Wup": (3072, 8192),
}


def run_fig15() -> ExperimentResult:
    """GEMV latency across dequantization strategies (analytic costs)."""
    timing = TimingModel(V75)
    rows = []
    speedups = []
    coalesce_gains = []
    upper_bound_gaps = []
    for label, (k, n) in _FIG15_MATRICES.items():
        seconds = {}
        for strategy in ("baseline", "hmx_layout", "ours", "no_dequant"):
            cost = gemm_cost(1, k, n, strategy=strategy, bits=4, qfloat=True)
            seconds[strategy] = timing.seconds(cost)
        speedup = seconds["baseline"] / seconds["ours"]
        gain = seconds["hmx_layout"] / seconds["ours"]
        gap = seconds["ours"] / seconds["no_dequant"] - 1.0
        speedups.append(speedup)
        coalesce_gains.append(gain)
        upper_bound_gaps.append(gap)
        rows.append([label, round(1e3 * seconds["baseline"], 3),
                     round(1e3 * seconds["hmx_layout"], 3),
                     round(1e3 * seconds["ours"], 3),
                     round(1e3 * seconds["no_dequant"], 3),
                     round(speedup, 1), round(gain, 2)])
    return ExperimentResult(
        experiment_id="fig15",
        title="GEMV dequantization ablation (V75, per matrix)",
        headers=["matrix", "baseline (ms)", "HMX layout (ms)", "ours (ms)",
                 "no dequant (ms)", "speedup vs baseline", "coalesce gain"],
        rows=rows,
        paper_claims={
            "speedup vs baseline": "9.65x - 19.04x",
            "coalesce/rearrange gain": "1.82x - 3.45x",
            "gap to no-dequant bound": "only 27% slower on average",
        },
        measured_claims={
            "speedup vs baseline": f"{min(speedups):.2f}x - {max(speedups):.2f}x",
            "coalesce/rearrange gain": f"{min(coalesce_gains):.2f}x - "
                                       f"{max(coalesce_gains):.2f}x",
            "gap to no-dequant bound": f"{100 * float(np.mean(upper_bound_gaps)):.0f}% "
                                       "slower on average",
        },
    )


# ----------------------------------------------------------------------
# Fig. 16 — CPU and memory usage during decoding
# ----------------------------------------------------------------------
def run_fig16(batches=(1, 2, 4, 8, 16)) -> ExperimentResult:
    """CPU and memory usage during decoding (OnePlus 12, ctx 4096)."""
    device = get_device("oneplus_12")
    rows = []
    dmabuf = {}
    for model in ("qwen2.5-1.5b", "qwen2.5-3b"):
        memory = MemoryModel(get_model_config(model), device,
                             context_budget=4096)
        dmabuf[model] = memory.dmabuf_bytes() / 2**20
        for batch in batches:
            snap = memory.snapshot(batch)
            rows.append([model, batch,
                         round(snap.dmabuf_bytes / 2**20),
                         round(snap.cpu_rss_bytes / 2**20),
                         round(snap.total_bytes / 2**30, 2),
                         round(snap.cpu_utilization_pct)])
    return ExperimentResult(
        experiment_id="fig16",
        title="CPU and memory usage during decoding (OnePlus 12, ctx 4096)",
        headers=["model", "batch", "dmabuf (MiB)", "CPU RSS (MiB)",
                 "total (GiB)", "CPU util (%)"],
        rows=rows,
        paper_claims={
            "dmabuf": "constant 1056 MiB (1.5B) and 2090 MiB (3B)",
            "total": "~1.3 GiB (1.5B), ~2.4 GiB (3B)",
            "cpu": "utilization grows with batch, always <= 4 cores",
        },
        measured_claims={
            "dmabuf": f"constant {dmabuf['qwen2.5-1.5b']:.0f} MiB (1.5B) and "
                      f"{dmabuf['qwen2.5-3b']:.0f} MiB (3B)",
            "total": f"{rows[0][4]} GiB (1.5B), {rows[5][4]} GiB (3B)",
            "cpu": f"utilization grows {rows[0][5]}% -> {rows[4][5]}% "
                   "(1.5B), always <= 400% (4 cores)",
        },
    )


# ----------------------------------------------------------------------
# Fig. 17 — impact of prompt length on decode throughput
# ----------------------------------------------------------------------
def run_fig17(prompt_lengths=(512, 1024, 2048, 4096),
              batches=(1, 4, 16)) -> ExperimentResult:
    """Impact of prompt length on decode throughput."""
    device = get_device("oneplus_12")
    rows = []
    max_drop = 0.0
    for model in ("qwen2.5-1.5b", "qwen2.5-3b"):
        perf = DecodePerformanceModel(get_model_config(model), device)
        for batch in batches:
            tps = [perf.decode_throughput(batch, p) for p in prompt_lengths]
            drop = 1.0 - tps[-1] / tps[0]
            max_drop = max(max_drop, drop)
            for prompt, value in zip(prompt_lengths, tps):
                rows.append([model, batch, prompt, round(value, 1)])
    return ExperimentResult(
        experiment_id="fig17",
        title="Decode throughput vs prompt length (OnePlus 12)",
        headers=["model", "batch", "prompt length", "throughput (tok/s)"],
        rows=rows,
        paper_claims={"trend": "mild decreasing trend from 512 to 4096 "
                               "tokens; decline remains subtle"},
        measured_claims={"trend": f"worst-case throughput drop "
                                  f"{100 * max_drop:.1f}% across the range"},
    )
