"""Tests for simulated energy attribution (repro.obs.energy)."""

from __future__ import annotations

import pytest

from repro.errors import ObservabilityError
from repro.npu import DEVICES
from repro.npu.timing import KernelCost, TimingModel
from repro.obs.energy import (
    LANES,
    ZERO_ENERGY,
    EnergyAccountant,
    EnergyModel,
    tokens_per_joule,
    utilization,
)
from repro.obs import scope
from repro.obs.timeline import EventLog
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

    def test_breakdown_rails_sum_to_joules(self, model):
        cost = KernelCost(dma_bytes=2**20, hmx_tile_macs=64)
        data = model.step_energy(cost, 1e-5, 1e-3)
        parts = (data.base_j + data.dram_j + data.hmx_j + data.hvx_j
                 + data.cpu_j)
        assert data.joules == pytest.approx(parts)


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


def _lanes(hmx=0.0, hvx=0.0, dma=0.0, cpu=0.0):
    return {"hmx_s": hmx, "hvx_s": hvx, "dma_s": dma, "cpu_s": cpu}


class TestLaneBusySeconds:
    """Each charge carries its step's lane seconds; the ledger folds them
    into the one simulated timeline ``util_*`` is read from."""

    def test_step_energy_keeps_each_lanes_capped_seconds(self, model):
        cost = KernelCost(hmx_tile_macs=64, hvx_packets=4000,
                          dma_bytes=2**20)
        timing = model.timing
        roomy = model.step_energy(cost, 1e-6, 1.0)
        assert (roomy.hmx_s, roomy.hvx_s, roomy.dma_s, roomy.cpu_s) == (
            timing.hmx_seconds(cost), timing.hvx_seconds(cost),
            timing.dma_seconds(cost), 1e-6)
        tight = model.step_energy(cost, 1.0, 1e-9)
        assert (tight.hmx_s, tight.hvx_s, tight.dma_s, tight.cpu_s) == (
            1e-9, 1e-9, 1e-9, 1e-9)
        assert roomy.charge_attrs() == {"joules": roomy.joules,
                                        **_lanes(roomy.hmx_s, roomy.hvx_s,
                                                 roomy.dma_s, roomy.cpu_s)}

    def test_offloaded_step_is_busy_on_the_cpu_only(self, model):
        off = model.step_energy(None, 2e-3, 2e-3)
        assert (off.hmx_s, off.hvx_s, off.dma_s, off.cpu_s) == (
            0.0, 0.0, 0.0, 2e-3)
        idle = model.idle_energy(0.25)
        assert idle.charge_attrs() == {"joules": idle.joules, **_lanes()}

    def test_busy_folds_across_prefill_decode_rebuild_and_idle(self):
        accountant = EnergyAccountant()
        accountant.charge("prefill", {"joules": 1.0,
                                      **_lanes(1.0, 2.0, 0.5, 0.25)})
        accountant.charge("decode_step", {"joules": 1.0, "live_ids": [0, 1],
                                          **_lanes(0.5, 1.0, 0.25, 0.125)})
        accountant.charge("rebuild", {"joules": 1.0,
                                      **_lanes(0.25, 0.5, 0.0, 0.0625)},
                          request_id=1)
        accountant.charge("retry", {"joules": 0.5, **_lanes()})
        # KV migration carries joules and no lane seconds at all
        accountant.charge("backend_switch", {"joules": 0.5})
        # non-charging kinds fold nothing, lane seconds included
        accountant.charge("complete", {"joules": 9.0, **_lanes(9.0)},
                          request_id=0)
        assert accountant.busy_s == {"hmx": 1.75, "hvx": 3.5, "dma": 0.75,
                                     "cpu": 0.4375}
        assert accountant.total_j == 4.0

    def test_utilization_is_busy_over_sim_seconds(self):
        busy = {"hmx": 1.0, "hvx": 2.0, "dma": 0.0, "cpu": 4.0}
        assert utilization(busy, 4.0) == {"hmx": 0.25, "hvx": 0.5,
                                          "dma": 0.0, "cpu": 1.0}
        assert utilization(dict.fromkeys(LANES, 0.0), 0.0) == \
            dict.fromkeys(LANES, 0.0)

    def test_lane_busier_than_the_run_raises_naming_it(self):
        busy = {"hmx": 1.0, "hvx": 2.5, "dma": 0.0, "cpu": 0.0}
        with pytest.raises(ObservabilityError,
                           match=r"lane hvx busy 2\.5 s exceeds the run's "
                                 r"sim_seconds 2\.0"):
            utilization(busy, 2.0)

    def test_rounding_allowance_follows_the_clock(self):
        """A run on a clock that started at 1000 s: its sim_seconds is a
        difference of readings near 1000, so a lane busy every step may
        read a few ulps over it; a real excess still raises."""
        start = 1000.0
        clock, busy = start, 0.0
        for i in range(50):
            step = 1e-5 * (1.0 + i / 7.0)
            clock += step
            busy += step
        sim = clock - start
        lanes = {"hmx": 0.0, "hvx": 0.0, "dma": 0.0, "cpu": busy}
        assert utilization(lanes, sim, clock)["cpu"] == pytest.approx(1.0)
        lanes["cpu"] = sim * 1.001
        with pytest.raises(ObservabilityError, match="lane cpu"):
            utilization(lanes, sim, clock)


def _paged_engine(tiny_model):
    from repro.llm.engine import InferenceEngine

    return InferenceEngine(tiny_model, batch=2, max_context=32,
                           device=DEVICES["oneplus_12"], kv_backend="paged")


class TestOneTimeline:
    def test_lockstep_run_folds_its_charges_in_order(self, tiny_model):
        """``generate`` charges a ledger: joules and lane seconds are the
        recorded charges summed in emission order, bit for bit."""
        from repro.llm.engine import InferenceEngine

        engine = InferenceEngine(tiny_model, batch=2, max_context=32,
                                 device=DEVICES["oneplus_12"])
        log = EventLog()
        with scope(log=log):
            result = engine.generate([1, 2, 3], max_new_tokens=4)
        charges = [e for e in log.events()
                   if e.kind in ("prefill", "decode_step")]
        assert [e.kind for e in charges] == ["prefill"] + ["decode_step"] * 3
        joules = 0.0
        busy = dict.fromkeys(LANES, 0.0)
        for event in charges:
            joules += event.attrs["joules"]
            for lane in LANES:
                busy[lane] += event.attrs[f"{lane}_s"]
        assert result.joules == joules
        assert result.utilization == {
            lane: busy[lane] / result.sim_seconds for lane in LANES}
        assert 0.0 < result.utilization["hmx"] < result.utilization["hvx"]

    @pytest.mark.parametrize("path", ["lockstep", "scheduler"])
    def test_in_path_check_raises_on_a_lane_outlasting_the_run(
            self, tiny_model, monkeypatch, path):
        import dataclasses

        from repro.llm.scheduler import ContinuousBatchingScheduler

        engine = _paged_engine(tiny_model)
        priced = engine.step_energy

        def inflated(cost, step_seconds):
            return dataclasses.replace(priced(cost, step_seconds),
                                       dma_s=3.0 * step_seconds)

        monkeypatch.setattr(engine, "step_energy", inflated)
        with pytest.raises(ObservabilityError, match="lane dma busy"):
            if path == "lockstep":
                engine.generate([1, 2, 3], max_new_tokens=3)
            else:
                ContinuousBatchingScheduler(engine).generate(
                    [1, 2, 3], n_candidates=3, max_new_tokens=3)

    def test_gpu_dispatched_run_keeps_no_npu_lane_busy(self, tiny_model):
        """The tiny model is GPU-won at every stage, so every priced step
        is off the NPU: busy on the CPU lane only."""
        from repro.llm.dispatch import BackendSelector
        from repro.llm.scheduler import ContinuousBatchingScheduler

        engine = _paged_engine(tiny_model)
        result = ContinuousBatchingScheduler(engine).generate(
            [1, 2, 3], n_candidates=4, max_new_tokens=4,
            dispatch=BackendSelector(engine.device, engine.model.config))
        assert {backend for _, backend in result.backend_steps} == {"gpu"}
        assert result.n_backend_switches == 1
        util = result.utilization
        assert util["hmx"] == util["hvx"] == util["dma"] == 0.0
        # the KV migration is on no lane, so the CPU is busy for the
        # priced steps only
        migration = result.migration_seconds / result.sim_seconds
        assert util["cpu"] == pytest.approx(1.0 - migration)
