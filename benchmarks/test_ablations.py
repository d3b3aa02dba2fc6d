"""Ablation benchmarks beyond the paper's own (DESIGN.md §4, §8).

* tile-group patch geometry (1x32 / 2x16 / 4x8 / 32x1) vs quantization
  error — the statistical claim behind §5.1.1;
* exp-LUT size vs softmax accuracy — the 64 KiB design point of §5.2.1;
* super-group coalesce factor (1/2/4/8) vs GEMV latency — the Fig. 7
  design point;
* lm_head placement (CPU vs hypothetical NPU) vs batch scaling — §7.2.2;
* T-MAC-style LUT GEMV vs the dequantization path — §8a;
* energy-based Pareto check — §7.2.3's "replacing the cost metric with
  energy gives similar trade-off characteristics".
"""

import numpy as np
import pytest

from repro.harness.report import ExperimentResult
from repro.kernels.gemm import MixedPrecisionGemm
from repro.kernels.lut import build_reduced_exp_lut, reduced_exp_lookup
from repro.kernels.tmac import TMacGemv
from repro.llm.config import get_model_config
from repro.npu.soc import get_device
from repro.npu.timing import TimingModel, V75, gemm_cost
from repro.perf.latency import DecodePerformanceModel
from repro.perf.power import PowerModel
from repro.quant.patch_quant import patch_geometry_mse


@pytest.fixture(scope="module")
def timing():
    return TimingModel(V75)


def test_ablation_patch_geometry(record, benchmark):
    """All equal-area quantization patch geometries are equivalent on
    Gaussian weights (the §5.1.1 argument), so choosing the HMX-friendly
    2x16 shape is free."""
    rng = np.random.default_rng(0)
    w = rng.normal(0, 0.05, (512, 512)).astype(np.float32)
    benchmark(patch_geometry_mse, w, (2, 16))

    rows = []
    errors = {}
    for patch in ((1, 32), (2, 16), (4, 8), (8, 4), (32, 1)):
        mse = patch_geometry_mse(w, patch)
        errors[patch] = mse
        rows.append([f"{patch[0]}x{patch[1]}", f"{mse:.3e}"])
    spread = max(errors.values()) / min(errors.values())
    record(ExperimentResult(
        experiment_id="ablation_patch", title="Quantization patch geometry",
        headers=["patch", "MSE"], rows=rows,
        paper_claims={"claim": "2x16 tile groups do not significantly alter "
                               "within-group statistics vs 1x32 (§5.1.1)"},
        measured_claims={"claim": f"max/min MSE spread {spread:.3f}x across "
                                  "five geometries"}))
    assert spread < 1.05


def test_ablation_lut_size(record, benchmark):
    """The 64 KiB table is the sweet spot: smaller tables lose accuracy,
    and nothing above 15 index bits is addressable by vgather."""
    rng = np.random.default_rng(1)
    x = -np.abs(rng.normal(0, 3, 4096)).astype(np.float16)
    exact = np.exp(x.astype(np.float64))
    table15 = build_reduced_exp_lut(15)
    benchmark(reduced_exp_lookup, table15, x)

    rows = []
    errors = []
    for bits in (15, 13, 11, 9):
        table = build_reduced_exp_lut(bits)
        out = reduced_exp_lookup(table, x)
        rel = float(np.mean(np.abs(out.astype(np.float64) - exact)
                            / np.maximum(exact, 1e-12)))
        errors.append(rel)
        rows.append([bits, round(table.nbytes / 1024, 1), f"{rel:.2e}"])
    record(ExperimentResult(
        experiment_id="ablation_lut_size", title="Exp LUT size vs accuracy",
        headers=["index bits", "table KiB", "mean rel err"], rows=rows,
        paper_claims={"design point": "64 KiB (15-bit) table, ~0.8% of TCM, "
                                      "more accurate than FP16 polynomial"},
        measured_claims={"design point": f"full table err {errors[0]:.1e}; "
                                         f"9-bit table {errors[-1]:.1e}"}))
    assert all(a < b for a, b in zip(errors, errors[1:]))
    assert errors[0] < 5e-4  # full table sits at FP16 rounding accuracy


def test_ablation_coalesce_factor(record, benchmark, timing):
    """GEMV latency improves with the coalesce factor and saturates at 8
    (one full HVX register of codes) — the Fig. 7 design point."""
    benchmark(gemm_cost, 1, 1536, 1536, "ours", 4, True, 8)
    rows = []
    seconds = []
    for factor in (1, 2, 4, 8, 16):
        cost = gemm_cost(1, 1536, 8960, strategy="ours", coalesce=factor)
        s = timing.seconds(cost)
        seconds.append(s)
        rows.append([factor, round(1e3 * s, 4)])
    record(ExperimentResult(
        experiment_id="ablation_coalesce",
        title="Super-group coalesce factor vs GEMV latency (1536x8960)",
        headers=["coalesce factor", "latency (ms)"], rows=rows,
        paper_claims={"design point": "8 groups = 256 INT4 values fill one "
                                      "128-byte register (Fig. 7)"},
        measured_claims={"design point": f"factor 8 is "
                                         f"{seconds[0] / seconds[3]:.2f}x "
                                         "faster than factor 1; factor 16 "
                                         "adds "
                                         f"{100 * (1 - seconds[4] / seconds[3]):.1f}%"}))
    assert seconds[0] > seconds[1] > seconds[2] > seconds[3]
    # beyond a full register the gain collapses
    assert seconds[3] - seconds[4] < 0.2 * (seconds[0] - seconds[3])


def test_ablation_lm_head_placement(record, benchmark):
    """§7.2.2: moving the vocabulary projection onto the NPU restores
    near-linear batch scaling."""
    cfg = get_model_config("qwen2.5-1.5b")
    device = get_device("oneplus_12")
    cpu_head = DecodePerformanceModel(cfg, device)
    npu_head = DecodePerformanceModel(cfg, device, lm_head_on_npu=True)
    benchmark(npu_head.decode_throughput, 16, 1024)

    rows = []
    for batch in (1, 4, 16):
        rows.append([batch, round(cpu_head.decode_throughput(batch, 1024), 1),
                     round(npu_head.decode_throughput(batch, 1024), 1)])
    scale_cpu = rows[-1][1] / rows[0][1]
    scale_npu = rows[-1][2] / rows[0][2]
    record(ExperimentResult(
        experiment_id="ablation_lm_head", title="lm_head placement (1.5B, 8G3)",
        headers=["batch", "CPU lm_head (tok/s)", "NPU lm_head (tok/s)"],
        rows=rows,
        paper_claims={"expectation": "placing logits on the NPU yields better "
                                     "throughput scaling (§7.2.2)"},
        measured_claims={"expectation": f"batch-16 scaling {scale_cpu:.1f}x "
                                        f"(CPU) vs {scale_npu:.1f}x (NPU)"}))
    assert scale_npu > scale_cpu


def test_ablation_tmac_gemv(record, benchmark, timing):
    """§8a: a T-MAC-style LUT GEMV removes the dequantization overhead
    and reaches the no-dequantization bound."""
    rng = np.random.default_rng(2)
    w = rng.normal(0, 0.05, (1536, 1536)).astype(np.float32)
    x = rng.normal(0, 1, 1536).astype(np.float16)
    tmac = TMacGemv()
    prepared_tmac = tmac.prepare_weight(w)
    benchmark(tmac, x, prepared_tmac)

    seconds = {}
    for strategy in ("ours", "no_dequant"):
        gemm = MixedPrecisionGemm(strategy)
        _, cost = gemm.gemv(x, gemm.prepare_weight(w))
        seconds[strategy] = timing.seconds(cost)
    _, cost_tmac = tmac(x, prepared_tmac)
    seconds["tmac"] = timing.seconds(cost_tmac)
    rows = [[name, round(1e3 * s, 4)] for name, s in seconds.items()]
    record(ExperimentResult(
        experiment_id="ablation_tmac", title="T-MAC LUT GEMV vs dequantization",
        headers=["kernel", "latency (ms)"], rows=rows,
        paper_claims={"projection": "T-MAC-like GEMV could accelerate "
                                    "decoding past the dequantization "
                                    "bottleneck (§8a)"},
        measured_claims={"projection": f"tmac {1e3 * seconds['tmac']:.3f} ms vs "
                                       f"ours {1e3 * seconds['ours']:.3f} ms "
                                       f"(bound {1e3 * seconds['no_dequant']:.3f})"}))
    assert seconds["tmac"] < seconds["ours"]
    assert seconds["tmac"] < 1.3 * seconds["no_dequant"]


def test_ablation_energy_pareto(record, benchmark):
    """§7.2.3: using energy instead of latency as the cost metric keeps
    the test-time-scaling trade-off favourable."""
    device = get_device("oneplus_12")
    small = PowerModel(get_model_config("qwen2.5-1.5b"), device)
    large = PowerModel(get_model_config("qwen2.5-3b"), device)
    benchmark(small.sample, 8)

    rows = []
    for model, power, batches in (("qwen2.5-1.5b", small, (1, 8, 16)),
                                  ("qwen2.5-3b", large, (1,))):
        for batch in batches:
            sample = power.sample(batch)
            rows.append([model, batch,
                         round(1e3 * sample.energy_per_token_j, 1)])
    small_at_8 = rows[1][2]
    large_at_1 = rows[3][2]
    record(ExperimentResult(
        experiment_id="ablation_energy", title="Energy as the Pareto cost axis",
        headers=["model", "batch", "energy/token (mJ)"], rows=rows,
        paper_claims={"claim": "the 1.5B model at batch 8 consumes less "
                               "energy per token than the 3B at batch 1; the "
                               "accuracy-energy trade-off mirrors Fig. 10"},
        measured_claims={"claim": f"1.5B@8 {small_at_8} mJ < 3B@1 "
                                  f"{large_at_1} mJ"}))
    assert small_at_8 < large_at_1


def test_ablation_prefill_pipeline(record, benchmark):
    """§8b: fusion, full NPU offload and tuned pipelining each lift
    prefill throughput; together they roughly double it."""
    from repro.perf.prefill import PrefillPipelineModel

    model = PrefillPipelineModel(get_model_config("qwen2.5-1.5b"),
                                 get_device("oneplus_12"))
    benchmark(model.prefill_throughput, 512)

    sweep = model.sweep(512)
    rows = [[name, round(tps, 1)] for name, tps in sweep.items()]
    record(ExperimentResult(
        experiment_id="ablation_prefill",
        title="Prefill pipeline optimizations (1.5B, 8G3, prompt 512)",
        headers=["configuration", "prefill tok/s"], rows=rows,
        paper_claims={"direction": "offloading more operators, operator "
                                   "fusion, and better tiling/pipelining "
                                   "could all improve prefill (§8b)"},
        measured_claims={"direction": f"current {sweep['current']:.0f} -> all "
                                      f"optimizations {sweep['all']:.0f} tok/s "
                                      f"({sweep['all'] / sweep['current']:.2f}x)"}))
    assert sweep["fused_ops"] > sweep["current"]
    assert sweep["all_ops_on_npu"] > sweep["current"]
    assert sweep["tuned_pipeline"] > sweep["current"]
    assert sweep["all"] > 1.5 * sweep["current"]
