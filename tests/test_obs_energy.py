"""Tests for simulated energy attribution (repro.obs.energy)."""

from __future__ import annotations

import pytest

from repro.errors import ObservabilityError
from repro.npu import DEVICES
from repro.npu.timing import KernelCost, TimingModel
from repro.obs.energy import (
    ZERO_ENERGY,
    EnergyAccountant,
    EnergyModel,
    tokens_per_joule,
)
from repro.perf.power import PowerBudget


@pytest.fixture
def model():
    device = DEVICES["oneplus_12"]
    return EnergyModel(PowerBudget(), TimingModel(device.npu))


class TestEnergyModel:
    def test_zero_duration_step_costs_nothing(self, model):
        assert model.step_energy(KernelCost(), 0.0, 0.0) is ZERO_ENERGY

    def test_baseline_accrues_for_full_step(self, model):
        breakdown = model.step_energy(None, 0.0, 0.5)
        assert breakdown.base_j == pytest.approx(PowerBudget().base_w * 0.5)
        assert breakdown.joules == pytest.approx(breakdown.base_j)

    def test_engine_terms_capped_at_step_duration(self, model):
        # a cost whose DMA time exceeds the claimed step duration cannot
        # draw DRAM power for longer than the step existed
        cost = KernelCost(dma_bytes=10**12)
        step_seconds = 1e-6
        breakdown = model.step_energy(cost, 0.0, step_seconds)
        assert breakdown.dram_j <= PowerBudget().dram_w * step_seconds + 1e-18

    def test_power_scale_scales_engines_not_base_or_cpu(self, model):
        cost = KernelCost(dma_bytes=2**20, hmx_tile_macs=64, hvx_packets=512)
        full = model.step_energy(cost, 1e-5, 1e-3, power_scale=1.0)
        scaled = model.step_energy(cost, 1e-5, 1e-3, power_scale=0.5)
        assert scaled.dram_j == pytest.approx(0.5 * full.dram_j)
        assert scaled.hmx_j == pytest.approx(0.5 * full.hmx_j)
        assert scaled.hvx_j == pytest.approx(0.5 * full.hvx_j)
        assert scaled.base_j == pytest.approx(full.base_j)
        assert scaled.cpu_j == pytest.approx(full.cpu_j)

    def test_without_npu_cost_only_base_and_cpu_accrue(self, model):
        # the off-NPU dispatch path: no NPU kernels ran, so no NPU rail
        breakdown = model.step_energy(None, 1e-4, 1e-3)
        assert breakdown.dram_j == 0.0
        assert breakdown.hmx_j == 0.0
        assert breakdown.cpu_j == pytest.approx(PowerBudget().cpu_w * 1e-4)

    def test_idle_energy_is_baseline_only(self, model):
        breakdown = model.idle_energy(0.25)
        assert breakdown.joules == pytest.approx(PowerBudget().base_w * 0.25)
        assert breakdown.dram_j == breakdown.cpu_j == 0.0
        assert model.idle_energy(0.0) is ZERO_ENERGY

    def test_rejects_nan_negative_and_inf(self, model):
        for bad in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ObservabilityError):
                model.step_energy(None, 0.0, bad)
            with pytest.raises(ObservabilityError):
                model.step_energy(None, bad, 1.0)
            with pytest.raises(ObservabilityError):
                model.step_energy(None, 0.0, 1.0, power_scale=bad)
            with pytest.raises(ObservabilityError):
                model.idle_energy(bad)

    def test_rejects_budget_missing_rails(self):
        class Half:
            base_w = 1.0

        with pytest.raises(ObservabilityError):
            EnergyModel(Half(), TimingModel(DEVICES["oneplus_12"].npu))

    def test_breakdown_to_json_sums(self, model):
        cost = KernelCost(dma_bytes=2**20, hmx_tile_macs=64)
        data = model.step_energy(cost, 1e-5, 1e-3).to_json()
        parts = (data["base_j"] + data["dram_j"] + data["hmx_j"]
                 + data["hvx_j"] + data["cpu_j"])
        assert data["joules"] == pytest.approx(parts)


class TestEnergyAccountant:
    @pytest.mark.parametrize("kind, phase", [
        ("prefill", "prefill"), ("prefill_chunk", "prefill"),
        ("decode_step", "decode"), ("rebuild", "rebuild"),
        ("retry", "idle"), ("backend_switch", "idle")])
    def test_each_charging_kind_lands_in_its_phase(self, kind, phase):
        accountant = EnergyAccountant()
        accountant.charge(kind, {"joules": 0.002})
        assert accountant.total_j == 0.002
        assert accountant.phase_j == {
            p: (0.002 if p == phase else 0.0)
            for p in ("prefill", "decode", "rebuild", "idle")}

    def test_decode_step_splits_equally_across_live_candidates(self):
        accountant = EnergyAccountant()
        shares = accountant.charge("decode_step",
                                   {"joules": 0.009, "live_ids": [0, 1, 2]})
        share = 0.009 / 3
        assert shares == [(0, share), (1, share), (2, share)]
        assert accountant.request_joules(2) == share
        assert accountant.phase_j["decode"] == 0.009

    def test_empty_live_set_charges_run_level_only(self):
        accountant = EnergyAccountant()
        assert accountant.charge("decode_step",
                                 {"joules": 0.004, "live_ids": []}) == []
        assert accountant.total_j == 0.004
        assert accountant.per_request == {}

    def test_request_charge_goes_to_that_request_in_full(self):
        accountant = EnergyAccountant()
        assert accountant.charge("rebuild", {"joules": 0.002},
                                 request_id=5) == [(5, 0.002)]
        assert accountant.charge("retry", {"joules": 0.001}) == []
        assert accountant.request_joules(5) == 0.002
        assert accountant.request_joules(6) == 0.0
        assert accountant.total_j == 0.002 + 0.001

    def test_non_charging_kinds_are_ignored(self):
        # fleet dispatch legs and completions carry joules too; they
        # report energy, they do not charge it
        accountant = EnergyAccountant()
        for kind in ("complete", "dispatch", "admit"):
            assert accountant.charge(kind, {"joules": 1.0},
                                     request_id=3) == []
        assert accountant.total_j == 0.0
        assert set(accountant.phase_j.values()) == {0.0}
        assert accountant.per_request == {}


class TestTokensPerJoule:
    def test_ratio_and_zero_guard(self):
        assert tokens_per_joule(100.0, 2.0) == pytest.approx(50.0)
        assert tokens_per_joule(100.0, 0.0) == 0.0
        assert tokens_per_joule(0.0, 0.0) == 0.0


class TestEngineIntegration:
    def test_generation_result_accrues_joules(self, tiny_model):
        from repro.llm.engine import InferenceEngine

        engine = InferenceEngine(tiny_model, batch=2, max_context=32,
                                 device=DEVICES["oneplus_12"])
        result = engine.generate([1, 2, 3], max_new_tokens=4)
        assert result.joules > 0.0
        assert result.tokens_per_joule > 0.0

    def test_efficiency_governor_costs_fewer_joules_per_step(self, tiny_model):
        # the DVFS power_scale drops dynamic NPU power faster than the
        # clock stretches the step, so total energy falls — and with the
        # energy model wired through set_governor the accounting agrees
        from repro.llm.engine import InferenceEngine

        def run(governor):
            engine = InferenceEngine(tiny_model, batch=2, max_context=32,
                                     device=DEVICES["oneplus_12"])
            engine.set_governor(governor)
            return engine.generate([1, 2, 3], max_new_tokens=4)

        performance = run("performance")
        efficiency = run("efficiency")
        assert performance.joules != efficiency.joules


class TestSchedulerIntegration:
    def test_scheduler_result_and_candidates_carry_joules(self, tiny_model):
        from repro.llm.engine import InferenceEngine
        from repro.llm.scheduler import ContinuousBatchingScheduler

        engine = InferenceEngine(tiny_model, batch=2, max_context=32,
                                 device=DEVICES["oneplus_12"],
                                 kv_backend="paged")
        result = ContinuousBatchingScheduler(engine).generate(
            [1, 2, 3], n_candidates=4, max_new_tokens=4)
        assert result.joules > 0.0
        assert result.prefill_joules > 0.0
        per_candidate = sum(c.joules for c in result.candidates)
        # per-request attribution covers decode + rebuild (prefill and
        # idle stay run-level), so candidates sum to less than the total
        assert 0.0 < per_candidate <= result.joules + 1e-12

    def test_energy_accounting_is_deterministic(self, tiny_model):
        from repro.llm.engine import InferenceEngine
        from repro.llm.scheduler import ContinuousBatchingScheduler
        from repro.resilience import FaultPlan

        def run():
            engine = InferenceEngine(tiny_model, batch=2, max_context=32,
                                     device=DEVICES["oneplus_12"],
                                     kv_backend="paged")
            plan = FaultPlan.parse("abort@2,throttle@1:efficiency:2")
            return ContinuousBatchingScheduler(engine).generate(
                [1, 2, 3], n_candidates=4, max_new_tokens=4,
                fault_plan=plan)

        first, second = run(), run()
        assert first.joules == second.joules
        assert [c.joules for c in first.candidates] == \
            [c.joules for c in second.candidates]
