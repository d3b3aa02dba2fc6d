"""Tests for operator placement, checkpoints and the CLI."""

import io
import json
import os

import numpy as np
import pytest

from repro.errors import EngineError, ModelConfigError
from repro.cli import main as cli_main
from repro.llm import TransformerWeights, get_model_config, tiny_config
from repro.llm.checkpoint import checkpoint_info, load_checkpoint, save_checkpoint
from repro.llm.placement import (
    OP_TYPES,
    OpCatalog,
    OpInstance,
    PlacementPlan,
    PlacementPolicy,
    build_decode_ops,
)
from repro.npu.soc import get_device


class TestOpPlacement:
    def test_default_plan_pins_lm_head_to_cpu(self):
        """The paper's placement: everything on the NPU except the
        embedding lookup and the vocabulary projection."""
        cfg = get_model_config("qwen2.5-1.5b")
        ops = build_decode_ops(cfg, batch=4)
        plan = PlacementPlan.build(ops, PlacementPolicy())
        assert plan.device_of("lm_head") == "cpu"
        assert plan.device_of("embedding") == "cpu"
        assert plan.device_of("layer0.wq") == "npu"
        assert plan.device_of("layer0.attention") == "npu"

    def test_default_plan_has_two_crossings(self):
        """CPU embedding -> NPU body -> CPU lm_head: exactly two boundary
        crossings per step."""
        cfg = get_model_config("qwen2.5-1.5b")
        plan = PlacementPlan.build(build_decode_ops(cfg, 1), PlacementPolicy())
        assert plan.n_crossings == 2

    def test_missing_kernel_falls_back_to_cpu(self):
        """§6: ops without NPU kernels run on the CPU seamlessly."""
        cfg = tiny_config()
        catalog = OpCatalog().without("swiglu")
        plan = PlacementPlan.build(build_decode_ops(cfg, 1),
                                   PlacementPolicy(catalog=catalog))
        assert plan.device_of("layer0.swiglu") == "cpu"
        assert plan.device_of("layer0.w_gate") == "npu"

    def test_fallback_adds_crossings(self):
        cfg = tiny_config()
        default = PlacementPlan.build(build_decode_ops(cfg, 1),
                                      PlacementPolicy())
        degraded = PlacementPlan.build(
            build_decode_ops(cfg, 1),
            PlacementPolicy(catalog=OpCatalog().without("swiglu")))
        # each fallback swiglu bounces NPU->CPU->NPU: 2 extra crossings/layer
        assert degraded.n_crossings == \
            default.n_crossings + 2 * cfg.n_layers

    def test_crossing_cost_positive(self):
        cfg = tiny_config()
        device = get_device("oneplus_12")
        degraded = PlacementPlan.build(
            build_decode_ops(cfg, 1),
            PlacementPolicy(catalog=OpCatalog().without("rms_norm")))
        default = PlacementPlan.build(build_decode_ops(cfg, 1),
                                      PlacementPolicy())
        assert degraded.crossing_seconds(device) > \
            default.crossing_seconds(device)
        assert degraded.cpu_op_seconds(device) > \
            default.cpu_op_seconds(device)

    def test_adjacent_same_device_ops_charge_one_crossing(self):
        """Regression for the crossing double-count: a run of
        consecutive same-device ops pays one boundary crossing at its
        head, even when stale per-op ``crossing_before`` flags on a
        hand-assembled plan claim otherwise."""
        from repro.llm.placement import PlacedOp, crossing_for_bytes

        device = get_device("oneplus_12")

        def op(name, nbytes):
            return OpInstance(name, "gemm", flops=1.0,
                              activation_bytes=nbytes)

        # NPU op, then two adjacent CPU ops *both* flagged as crossing —
        # the stale-flag shape that used to double-charge
        plan = PlacementPlan(ops=[
            PlacedOp(op=op("a", 100), device="npu", crossing_before=True),
            PlacedOp(op=op("b", 200), device="cpu", crossing_before=True),
            PlacedOp(op=op("c", 400), device="cpu", crossing_before=True),
        ])
        boundaries = plan.boundaries()
        assert [p.op.name for p in boundaries] == ["a", "b"]
        assert plan.n_crossings == 2
        assert plan.crossing_seconds(device) == pytest.approx(
            crossing_for_bytes(device, 100) + crossing_for_bytes(device, 200))

    def test_crossing_for_bytes_rejects_negative(self):
        from repro.llm.placement import crossing_for_bytes

        with pytest.raises(EngineError):
            crossing_for_bytes(get_device("oneplus_12"), -1)

    def test_pin_to_npu_requires_kernel(self):
        policy = PlacementPolicy(pinned={"lm_head": "npu"})
        op = OpInstance("lm_head", "lm_head", flops=1.0, activation_bytes=2)
        with pytest.raises(EngineError):
            policy.device_for(op)

    def test_unknown_op_type_rejected(self):
        with pytest.raises(EngineError):
            OpInstance("x", "transcendence", flops=1.0, activation_bytes=2)
        with pytest.raises(EngineError):
            OpCatalog(frozenset({"teleport"}))

    def test_build_decode_ops_structure(self):
        cfg = tiny_config(n_layers=3)
        ops = build_decode_ops(cfg, batch=2)
        # embedding + 14 per layer + final norm + lm_head
        assert len(ops) == 1 + 14 * 3 + 2
        assert all(op.op_type in OP_TYPES for op in ops)

    def test_batch_validation(self):
        with pytest.raises(EngineError):
            build_decode_ops(tiny_config(), batch=0)


class TestCheckpoints:
    @pytest.fixture(scope="class")
    def weights(self):
        return TransformerWeights.generate(tiny_config(), seed=0)

    def test_f16_roundtrip(self, weights, tmp_path):
        path = tmp_path / "m.f16.ckpt"
        save_checkpoint(path, weights, codec="f16")
        back = load_checkpoint(path)
        assert back.config == weights.config
        expected = weights.layers[0]["wq"].astype(np.float16).astype(np.float32)
        assert np.array_equal(back.layers[0]["wq"], expected)

    def test_q4_matches_quantize_roundtrip(self, weights, tmp_path):
        from repro.quant.tile_quant import dequantize_weight, quantize_tile_group
        path = tmp_path / "m.q4.ckpt"
        save_checkpoint(path, weights, codec="q4")
        back = load_checkpoint(path)
        ref = dequantize_weight(
            quantize_tile_group(weights.layers[0]["w_up"])).astype(np.float32)
        assert np.array_equal(back.layers[0]["w_up"], ref)

    def test_q4_down_projection_is_q8(self, weights, tmp_path):
        path = tmp_path / "m.q4.ckpt"
        save_checkpoint(path, weights, codec="q4")
        info = checkpoint_info(path)
        codecs = {t["name"]: t["codec"] for t in info["tensors"]}
        assert codecs["layers.0.w_down"] == "q8_tile"
        assert codecs["layers.0.w_gate"] == "q4_tile"

    def test_q4_projections_near_45_bpw(self, tmp_path):
        """On-disk projection cost sits at the Q4_0 4.5 bits per weight."""
        cfg = tiny_config(n_layers=2, hidden_dim=128, n_heads=4, n_kv_heads=2,
                          intermediate_dim=256)
        weights = TransformerWeights.generate(cfg, seed=1)
        path = tmp_path / "m.q4.ckpt"
        save_checkpoint(path, weights, codec="q4")
        info = checkpoint_info(path)
        gate = next(t for t in info["tensors"]
                    if t["name"] == "layers.0.w_gate")
        n_params = gate["shape"][0] * gate["shape"][1]
        bpw = 8.0 * gate["nbytes"] / n_params
        assert bpw == pytest.approx(4.5, rel=0.02)

    def test_q4_smaller_than_f16(self, weights, tmp_path):
        f16 = save_checkpoint(tmp_path / "a.ckpt", weights, codec="f16")
        q4 = save_checkpoint(tmp_path / "b.ckpt", weights, codec="q4")
        assert q4 < f16

    def test_loaded_model_runs(self, weights, tmp_path):
        from repro.llm import NPUTransformer
        path = tmp_path / "m.q4.ckpt"
        save_checkpoint(path, weights, codec="q4")
        model = NPUTransformer(load_checkpoint(path))
        cache = model.new_cache(1, 8)
        logits, _ = model.forward(np.array([[1, 2, 3]]), cache)
        assert logits.shape == (1, 3, weights.config.vocab_size)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"GGUFnope" + b"\0" * 64)
        with pytest.raises(ModelConfigError):
            load_checkpoint(path)

    def test_unknown_codec_rejected(self, weights, tmp_path):
        with pytest.raises(ModelConfigError):
            save_checkpoint(tmp_path / "x.ckpt", weights, codec="q2")


class TestCLI:
    def _run(self, argv):
        out = io.StringIO()
        status = cli_main(argv, out=out)
        return status, out.getvalue()

    def test_experiments_lists_all(self):
        status, text = self._run(["experiments"])
        assert status == 0
        for eid in ("table1", "fig15", "fig10"):
            assert eid in text

    def test_run_fast_experiment(self):
        status, text = self._run(["run", "table2"])
        assert status == 0
        assert "12032.54" in text

    def test_run_unknown_experiment(self):
        status, text = self._run(["run", "fig99"])
        assert status == 2
        assert "error" in text

    def test_devices(self):
        status, text = self._run(["devices"])
        assert status == 0
        assert "OnePlus 12" in text

    def test_plan_fits_and_rejects(self):
        status, text = self._run(["plan", "qwen2.5-3b"])
        assert status == 0
        assert "no: NPU VA space" in text
        assert "yes" in text

    def test_plan_unknown_model(self):
        status, text = self._run(["plan", "gpt-11"])
        assert status == 2

    def test_sweep(self):
        status, text = self._run(["sweep", "qwen2.5-1.5b", "math500",
                                  "--budgets", "1", "4",
                                  "--problems", "60"])
        assert status == 0
        assert "accuracy" in text

    def test_sweep_bad_method(self):
        status, text = self._run(["sweep", "qwen2.5-1.5b", "math500",
                                  "--method", "psychic", "--problems", "30"])
        assert status == 2

    def test_profile_help(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            self._run(["profile", "--help"])
        assert excinfo.value.code == 0
        help_text = capsys.readouterr().out
        assert "--trace-out" in help_text
        assert "--workload" in help_text

    def test_profile_unknown_device(self, tmp_path):
        status, text = self._run([
            "profile", "--device", "flip_phone",
            "--trace-out", str(tmp_path / "t.json")])
        assert status == 2
        assert "unknown device" in text

    def test_profile_decode_writes_valid_trace(self, tmp_path):
        trace_path = tmp_path / "trace.json"
        report_path = tmp_path / "report.txt"
        status, text = self._run([
            "profile", "--batch", "2", "--prompt-tokens", "3",
            "--new-tokens", "2", "--trace-out", str(trace_path),
            "--report-out", str(report_path)])
        assert status == 0
        with open(trace_path) as handle:
            trace = json.load(handle)
        assert trace["traceEvents"]
        lanes = {e["args"]["name"] for e in trace["traceEvents"]
                 if e.get("name") == "thread_name"}
        assert {"HMX", "HVX", "DMA", "CPU"} <= lanes
        assert "per-kernel simulated time attribution" in text
        assert "engine utilization" in text
        assert report_path.read_text() in text

    def test_profile_leaves_the_context_untouched(self, tmp_path):
        from repro.obs import current

        before = current()
        status, _ = self._run([
            "profile", "--batch", "2", "--prompt-tokens", "2",
            "--new-tokens", "2", "--trace-out", str(tmp_path / "t.json")])
        assert status == 0
        assert current() is before
        assert not before.tracer.enabled

    def test_profile_json_out(self, tmp_path):
        json_path = tmp_path / "profile.json"
        status, text = self._run([
            "profile", "--scheduler", "--batch", "2", "--candidates", "4",
            "--prompt-tokens", "3", "--new-tokens", "3",
            "--trace-out", str(tmp_path / "t.json"),
            "--json", str(json_path)])
        assert status == 0
        with open(json_path) as handle:
            data = json.load(handle)
        assert data["schema"] == "repro.profile/v1"
        assert data["n_spans"] > 0
        assert data["scheduler"]["decode_steps"] > 0
        assert data["slo"]  # scheduler runs report SLO percentiles
        assert "repro.slo.token_latency_seconds" in data["slo"]
        assert data["workload"] == "scheduler"
        assert "SLO token-latency percentiles" in text

    def test_profile_chaos_mode_reports_resilience(self, tmp_path):
        json_path = tmp_path / "profile.json"
        # every fault step lands inside the 4-token run, so all four fire
        status, text = self._run([
            "profile", "--scheduler", "--batch", "2", "--candidates", "4",
            "--new-tokens", "4",
            "--faults", "abort@1,dma@3,alloc@2,throttle@0:efficiency:3",
            "--trace-out", str(tmp_path / "t.json"),
            "--json", str(json_path)])
        assert status == 0
        assert "== resilience (chaos mode) ==" in text
        with open(json_path) as handle:
            resilience = json.load(handle)["resilience"]
        assert resilience["fault_kinds"] == {
            "session_abort": 1, "dma_timeout": 1, "alloc_fail": 1,
            "thermal_throttle": 1}

    def test_profile_refuses_faults_a_scheduler_run_never_arms(
            self, tmp_path):
        status, text = self._run([
            "profile", "--scheduler", "--batch", "2", "--candidates", "4",
            "--new-tokens", "4", "--faults", "tcm#0,rpc#1,rpcmem#0",
            "--trace-out", str(tmp_path / "t.json")])
        assert status == 2
        assert len(text.splitlines()) == 1
        assert text.startswith("error: fault 'rpc#1:abort' at site "
                               "'fastrpc.submit' never fires")

    def test_profile_json_repeats_but_for_host_seconds(self, tmp_path):
        """Two runs of one profile list the same rows in the same order;
        only the host-time ``seconds`` fields may differ."""
        def without_seconds(value):
            if isinstance(value, dict):
                return {k: without_seconds(v) for k, v in value.items()
                        if k != "seconds"}
            if isinstance(value, list):
                return [without_seconds(v) for v in value]
            return value

        def profile():
            status, text = self._run([
                "profile", "--scheduler", "--batch", "2", "--candidates",
                "4", "--new-tokens", "4",
                "--faults", "abort@1,dma@3,alloc@2,throttle@0:efficiency:3",
                "--trace-out", str(tmp_path / "t.json"), "--json", "-"])
            assert status == 0
            data, _ = json.JSONDecoder().raw_decode(
                text, text.index("\n{\n") + 1)
            return without_seconds(data)

        first = profile()
        assert len(first["span_tree"]) > 1
        assert profile() == first

    @pytest.mark.parametrize("device", ["oneplus_ace3", "oneplus_12",
                                        "oneplus_ace5_pro"])
    def test_profile_placement_prints_crossover_table(self, tmp_path, device):
        json_path = tmp_path / "profile.json"
        status, text = self._run([
            "profile", "--placement", "--scheduler", "--batch", "2",
            "--candidates", "4", "--prompt-tokens", "3", "--new-tokens", "3",
            "--device", device, "--trace-out", str(tmp_path / "t.json"),
            "--json", str(json_path)])
        assert status == 0
        assert "stage-level placement" in text
        # one table per governor, and the dispatched run's summary line
        for governor in ("performance", "balanced", "efficiency"):
            assert f"governor {governor}" in text
        assert "backend switches" in text
        with open(json_path) as handle:
            data = json.load(handle)
        rows = data["placement"]
        # 3 governors x (8 prefill + 9 decode grid points)
        assert len(rows) == 3 * 17
        assert {r["backend"] for r in rows} <= {"npu", "gpu", "cpu"}
        # the Fig. 13 shape survives serialization: batch-1 decode is
        # off-NPU, long prefill on it, at every governor
        for governor in ("performance", "balanced", "efficiency"):
            decode1 = next(r for r in rows if r["governor"] == governor
                           and r["stage"] == "decode" and r["size"] == 1)
            assert decode1["backend"] != "npu"
            long_prefill = next(r for r in rows if r["governor"] == governor
                                and r["stage"] == "prefill"
                                and r["size"] == 1024)
            assert long_prefill["backend"] == "npu"

    def test_profile_json_to_stdout(self, tmp_path):
        status, text = self._run([
            "profile", "--batch", "2", "--prompt-tokens", "2",
            "--new-tokens", "2", "--trace-out", str(tmp_path / "t.json"),
            "--json", "-"])
        assert status == 0
        payload, _ = json.JSONDecoder().raw_decode(text, text.index("{"))
        assert payload["schema"] == "repro.profile/v1"

    def test_bench_full_suite_snapshot_and_check(self, tmp_path):
        from repro.obs.bench import validate_snapshot

        baseline = tmp_path / "baseline.json"
        status, text = self._run([
            "bench", "--update-baseline", "--baseline", str(baseline)])
        assert status == 0, text
        with open(baseline) as handle:
            data = json.load(handle)
        validate_snapshot(data)
        assert len(data["records"]) >= 6
        # deterministic sim metrics: an immediate re-run gates clean
        status, text = self._run([
            "bench", "--check", "--baseline", str(baseline)])
        assert status == 0, text
        assert "verdict: OK" in text

    def test_bench_run_writes_history_snapshot(self, tmp_path):
        out_dir = tmp_path / "history"
        status, text = self._run([
            "bench", "run", "--only", "kernel.gemm",
            "--only", "kernel.attention", "--out-dir", str(out_dir)])
        assert status == 0
        assert (out_dir / "BENCH_0.json").exists()
        assert "kernel.gemm" in text

    def test_bench_check_detects_doctored_baseline(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        status, _ = self._run([
            "bench", "--update-baseline", "--baseline", str(baseline),
            "--only", "kernel.gemm"])
        assert status == 0
        data = json.loads(baseline.read_text())
        data["records"]["kernel.gemm"]["metrics"]["sim_seconds"] /= 1.2
        baseline.write_text(json.dumps(data))
        status, text = self._run([
            "bench", "--check", "--baseline", str(baseline),
            "--only", "kernel.gemm", "--markdown"])
        assert status == 2
        assert "REGRESSION" in text

    def test_bench_unknown_scenario(self):
        status, text = self._run(["bench", "run", "--only", "nope"])
        assert status == 2
        assert "unknown bench scenario" in text
