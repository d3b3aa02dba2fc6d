"""Edge-case coverage for the power/energy path (repro.perf.power and
its obs-side integration): zero-duration steps, governor transitions
mid-run, and the negative/NaN guards."""

from __future__ import annotations

import math

import pytest

from repro.errors import ObservabilityError
from repro.llm.config import get_model_config
from repro.npu import DEVICES
from repro.npu.power_mgmt import GOVERNORS, THROTTLE_LADDER
from repro.npu.timing import KernelCost, TimingModel
from repro.obs.energy import ZERO_ENERGY, EnergyModel
from repro.perf.power import PowerBudget, PowerModel


@pytest.fixture(scope="module")
def power_model():
    return PowerModel(get_model_config("qwen2.5-1.5b"),
                      DEVICES["oneplus_12"])


class TestPowerModelEdges:
    def test_utilizations_stay_clamped_to_one(self, power_model):
        for batch in (1, 8, 32):
            sample = power_model.sample(batch)
            for lane, utilization in sample.utilization.items():
                assert 0.0 <= utilization <= 1.0, (lane, batch)

    def test_power_bounded_by_budget_sum(self, power_model):
        budget = PowerBudget()
        ceiling = (budget.base_w + budget.dram_w + budget.hmx_w
                   + budget.hvx_w + budget.cpu_w)
        sample = power_model.sample(8)
        assert budget.base_w < sample.power_w <= ceiling

    def test_energy_per_token_finite_and_positive(self, power_model):
        for batch in (1, 2, 8):
            sample = power_model.sample(batch)
            assert math.isfinite(sample.energy_per_token_j)
            assert sample.energy_per_token_j > 0.0

    def test_budget_values_are_finite_watts(self):
        budget = PowerBudget()
        for rail in ("base_w", "dram_w", "hmx_w", "hvx_w", "cpu_w"):
            watts = getattr(budget, rail)
            assert math.isfinite(watts) and watts > 0.0


class TestZeroDurationSteps:
    def test_zero_step_is_the_shared_zero_breakdown(self):
        model = EnergyModel(PowerBudget(),
                            TimingModel(DEVICES["oneplus_12"].npu))
        breakdown = model.step_energy(KernelCost(dma_bytes=2**20), 1e-5, 0.0)
        assert breakdown is ZERO_ENERGY
        assert breakdown.joules == 0.0

    def test_engine_zero_duration_step_costs_nothing(self, tiny_model):
        from repro.llm.engine import InferenceEngine

        engine = InferenceEngine(tiny_model, batch=2, max_context=32,
                                 device=DEVICES["oneplus_12"])
        assert engine.step_energy(None, 0.0) is ZERO_ENERGY

    def test_scheduler_energy_buckets_cover_the_total(self, tiny_model):
        from repro.llm.engine import InferenceEngine
        from repro.llm.scheduler import ContinuousBatchingScheduler

        engine = InferenceEngine(tiny_model, batch=2, max_context=32,
                                 device=DEVICES["oneplus_12"],
                                 kv_backend="paged")
        result = ContinuousBatchingScheduler(engine).generate(
            [1, 2, 3], n_candidates=2, max_new_tokens=4)
        # no fault plan: no backoff, so total = prefill + decode
        assert result.idle_joules == 0.0
        assert result.joules > result.prefill_joules > 0.0


class TestGovernorTransitionsMidRun:
    def test_power_scale_tracks_the_throttle_ladder(self):
        scales = [GOVERNORS[name].power_scale for name in THROTTLE_LADDER]
        assert scales == sorted(scales, reverse=True)

    def test_step_energy_uses_the_governor_active_that_step(self, tiny_model):
        # chaos plan throttles to efficiency for 2 steps mid-run; every
        # step must be charged under the governor that executed it, so
        # the run's total differs from an unthrottled run's
        from repro.llm.engine import InferenceEngine
        from repro.llm.scheduler import ContinuousBatchingScheduler
        from repro.resilience import FaultPlan

        def run(plan):
            engine = InferenceEngine(tiny_model, batch=2, max_context=32,
                                     device=DEVICES["oneplus_12"],
                                     kv_backend="paged")
            return ContinuousBatchingScheduler(engine).generate(
                [1, 2, 3], n_candidates=2, max_new_tokens=6,
                fault_plan=plan)

        throttled = run(FaultPlan.parse("throttle@1:efficiency:2"))
        clean = run(None)
        assert throttled.joules != clean.joules
        assert throttled.governor_steps  # the transition really happened

    def test_engine_set_governor_rewires_the_energy_model(self, tiny_model):
        from repro.llm.engine import InferenceEngine
        from repro.llm.model import StepCost

        engine = InferenceEngine(tiny_model, batch=2, max_context=32,
                                 device=DEVICES["oneplus_12"])
        before = engine.energy_model.timing
        engine.set_governor("efficiency")
        after = engine.energy_model.timing
        assert after is engine._timing
        assert after is not before
        cost = StepCost(npu=KernelCost(dma_bytes=2**20, hmx_tile_macs=64))
        scaled = engine.step_energy(cost, 1e-3)
        engine.set_governor("performance")
        full = engine.step_energy(cost, 1e-3)
        assert scaled.dram_j < full.dram_j  # power_scale < 1 applied

    def test_mid_step_transition_charges_old_then_new_scale(self):
        # a governor change lands between steps: charge one step at each
        # scale and the total must equal the piecewise sum, not either
        # scale applied to the whole interval
        model = EnergyModel(PowerBudget(),
                            TimingModel(DEVICES["oneplus_12"].npu))
        cost = KernelCost(dma_bytes=2**18)
        first = model.step_energy(cost, 0.0, 1e-3, power_scale=1.0)
        second = model.step_energy(cost, 0.0, 1e-3, power_scale=0.55)
        assert second.joules < first.joules
        assert second.base_j == pytest.approx(first.base_j)
        piecewise = first.joules + second.joules
        assert 2.0 * second.joules < piecewise < 2.0 * first.joules


class TestNegativeAndNanGuards:
    def test_energy_model_rejects_non_finite_inputs(self):
        model = EnergyModel(PowerBudget(),
                            TimingModel(DEVICES["oneplus_12"].npu))
        for bad in (float("nan"), float("inf"), -1e-9):
            with pytest.raises(ObservabilityError):
                model.step_energy(None, 0.0, bad)
            with pytest.raises(ObservabilityError):
                model.step_energy(None, bad, 1e-3)
            with pytest.raises(ObservabilityError):
                model.step_energy(None, 0.0, 1e-3, power_scale=bad)
            with pytest.raises(ObservabilityError):
                model.idle_energy(bad)

    def test_energy_model_rejects_nan_budget_rail(self):
        class Poisoned:
            base_w = 1.2
            dram_w = float("nan")
            hmx_w = 1.2
            hvx_w = 1.0
            cpu_w = 4.0

        with pytest.raises(ObservabilityError):
            EnergyModel(Poisoned(), TimingModel(DEVICES["oneplus_12"].npu))

    def test_event_log_rejects_negative_and_nan_joules_time(self):
        from repro.obs.timeline import EventLog

        log = EventLog()
        with pytest.raises(ObservabilityError):
            log.emit("decode_step", float("nan"), step=0)
        with pytest.raises(ObservabilityError):
            log.emit("decode_step", -1e-6, step=0)
