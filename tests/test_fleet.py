"""Tests for the fleet serving layer (repro.fleet)."""

from __future__ import annotations

import itertools

import pytest

from repro.errors import FleetError
from repro.fleet import (AdmissionController, AnalyticFleetDevice,
                         BatteryRail, FleetRequest, FleetSimulation,
                         TraceConfig, build_population, generate_trace,
                         plan_capacity, run_fleet)
from repro.fleet import devices as fleet_devices
from repro.npu.power_mgmt import THROTTLE_LADDER, ThermalState
from repro.npu.soc import DEVICES


def _request(request_id, arrival=0.0, tenant="interactive", **kwargs):
    return FleetRequest(request_id=request_id, arrival_seconds=arrival,
                        tenant=tenant, **kwargs)


class TestFleetRequest:
    def test_rejects_bad_shapes(self):
        with pytest.raises(FleetError):
            _request(0, arrival=-1.0)
        with pytest.raises(FleetError):
            _request(0, prompt_tokens=0)
        with pytest.raises(FleetError):
            _request(0, n_candidates=0)

    def test_total_new_tokens(self):
        request = _request(0, n_candidates=4, max_new_tokens=8)
        assert request.total_new_tokens == 32


class TestAdmissionController:
    def test_priority_order_with_fifo_ties(self):
        ctl = AdmissionController(max_queue_depth=8)
        for i, tenant in enumerate(["batch", "interactive", "batch",
                                    "interactive"]):
            ctl.offer(_request(i, tenant=tenant))
        popped = [ctl.pop().request_id for _ in range(4)]
        # interactive (priority 0) first in arrival order, then batch
        assert popped == [1, 3, 0, 2]

    def test_overflow_sheds_incoming_when_worst(self):
        ctl = AdmissionController(max_queue_depth=2)
        ctl.offer(_request(0))
        ctl.offer(_request(1))
        admitted, shed = ctl.offer(_request(2, tenant="batch"))
        assert not admitted
        assert shed.request_id == 2
        assert ctl.n_shed == 1
        assert len(ctl) == 2

    def test_overflow_displaces_queued_tail_for_urgent_arrival(self):
        ctl = AdmissionController(max_queue_depth=2)
        ctl.offer(_request(0, tenant="batch"))
        ctl.offer(_request(1, tenant="batch"))
        admitted, shed = ctl.offer(_request(2, tenant="interactive"))
        assert admitted
        assert shed.request_id == 1  # worst = latest batch arrival
        assert ctl.pop().request_id == 2

    def test_peak_depth_and_counters(self):
        ctl = AdmissionController(max_queue_depth=4)
        for i in range(3):
            ctl.offer(_request(i))
        ctl.pop()
        assert ctl.peak_depth == 3
        assert ctl.n_offered == 3
        assert ctl.n_popped == 1

    def test_rejects_non_positive_depth(self):
        with pytest.raises(FleetError):
            AdmissionController(max_queue_depth=0)


class TestLoadGeneration:
    def test_same_config_same_trace(self):
        config = TraceConfig(qps=5.0, horizon_seconds=30.0, seed=42,
                             pattern="diurnal")
        assert generate_trace(config) == generate_trace(config)

    def test_patterns_use_distinct_streams(self):
        poisson = generate_trace(TraceConfig(qps=5.0, horizon_seconds=30.0,
                                             seed=42))
        diurnal = generate_trace(TraceConfig(qps=5.0, horizon_seconds=30.0,
                                             seed=42, pattern="diurnal"))
        assert [r.arrival_seconds for r in poisson] != \
            [r.arrival_seconds for r in diurnal]

    def test_arrivals_sorted_and_bounded(self):
        trace = generate_trace(TraceConfig(qps=10.0, horizon_seconds=20.0,
                                           max_requests=50, seed=3))
        times = [r.arrival_seconds for r in trace]
        assert times == sorted(times)
        assert len(trace) <= 50
        assert all(t <= 20.0 for t in times)
        assert all(r.request_id == i for i, r in enumerate(trace))

    def test_config_validation(self):
        with pytest.raises(FleetError):
            generate_trace(TraceConfig(qps=0.0, horizon_seconds=10.0))
        with pytest.raises(FleetError):
            generate_trace(TraceConfig(qps=1.0))  # unbounded
        with pytest.raises(FleetError):
            generate_trace(TraceConfig(qps=1.0, horizon_seconds=10.0,
                                       pattern="weird"))
        with pytest.raises(FleetError):
            generate_trace(TraceConfig(qps=1.0, horizon_seconds=10.0,
                                       pattern="diurnal",
                                       diurnal_amplitude=1.5))

    def test_diurnal_rate_swings(self):
        """Arrivals cluster in high-rate half-periods."""
        config = TraceConfig(qps=20.0, horizon_seconds=240.0, seed=0,
                             pattern="diurnal", diurnal_amplitude=0.9,
                             diurnal_period_seconds=120.0)
        trace = generate_trace(config)
        # first half-period (sin > 0, boosted rate) vs second (damped)
        first = sum(1 for r in trace if r.arrival_seconds % 120.0 < 60.0)
        second = len(trace) - first
        assert first > 1.5 * second


class TestThermalState:
    def test_throttles_down_the_ladder_and_recovers(self):
        thermal = ThermalState(throttle_at_joules=10.0,
                               recover_at_joules=4.0, cool_watts=1.0)
        assert thermal.governor.name == THROTTLE_LADDER[0]
        thermal.absorb(12.0)
        assert thermal.rung == 1
        assert thermal.n_throttles == 1
        # re-armed mid-band: a tiny idle must NOT immediately recover
        thermal.cool(0.5)
        assert thermal.rung == 1
        thermal.cool(10.0)
        assert thermal.rung == 0
        assert thermal.n_recoveries == 1

    def test_rung_saturates_at_ladder_bottom(self):
        thermal = ThermalState(throttle_at_joules=1.0,
                               recover_at_joules=0.5)
        for _ in range(5):
            thermal.absorb(2.0)
        assert thermal.rung == len(THROTTLE_LADDER) - 1
        assert thermal.governor.name == THROTTLE_LADDER[-1]

    def test_validation(self):
        from repro.errors import NPUError
        with pytest.raises(NPUError):
            ThermalState(throttle_at_joules=1.0, recover_at_joules=2.0)


class TestBatteryRail:
    def test_drains_and_depletes(self):
        rail = BatteryRail(capacity_joules=10.0)
        rail.draw(4.0)
        assert rail.remaining_fraction == pytest.approx(0.6)
        assert not rail.depleted
        rail.draw(100.0)  # clamps at capacity
        assert rail.depleted
        assert rail.remaining_fraction == 0.0

    def test_validation(self):
        with pytest.raises(FleetError):
            BatteryRail(capacity_joules=0.0)
        with pytest.raises(ValueError):
            BatteryRail(capacity_joules=1.0).draw(-1.0)


class TestFleetSimulation:
    def _simulate(self, n_devices=4, qps=4.0, horizon=10.0, seed=0,
                  queue_depth=64):
        requests = generate_trace(TraceConfig(qps=qps,
                                              horizon_seconds=horizon,
                                              seed=seed))
        sim = FleetSimulation(
            build_population(n_devices),
            requests,
            admission=AdmissionController(max_queue_depth=queue_depth))
        return sim.run(), len(requests)

    def test_conservation(self):
        result, offered = self._simulate()
        assert result.n_arrivals == offered
        assert offered == (result.n_completed + result.n_shed
                           + result.n_unserved)

    def test_tight_queue_sheds(self):
        generous, _ = self._simulate(n_devices=1, qps=20.0, horizon=5.0,
                                     queue_depth=64)
        tight, offered = self._simulate(n_devices=1, qps=20.0, horizon=5.0,
                                        queue_depth=2)
        assert tight.n_shed > 0
        assert offered == (tight.n_completed + tight.n_shed
                           + tight.n_unserved)
        assert generous.n_shed <= tight.n_shed

    def test_makespan_and_latency_recorded(self):
        result, _ = self._simulate()
        assert result.makespan_seconds > 0
        assert result.request_latency.count == result.n_completed
        assert result.token_latency().count == result.tokens
        assert 0.0 < result.busy_fraction() <= 1.0

    def test_duplicate_device_ids_rejected(self):
        devices = build_population(2)
        devices[1].device_id = 0
        with pytest.raises(FleetError):
            FleetSimulation(devices, [])

    def test_empty_population_rejected(self):
        with pytest.raises(FleetError):
            FleetSimulation([], [])

    def test_depleted_devices_leave_rotation(self):
        population = build_population(2, battery_capacity_joules=1e-3)
        requests = generate_trace(TraceConfig(qps=10.0, horizon_seconds=5.0,
                                              seed=1))
        result = FleetSimulation(population, requests).run()
        assert result.n_batteries_depleted == 2
        # the two serves that drained the batteries completed; the rest
        # of the trace could never be served
        assert result.n_completed == 2
        assert result.n_unserved == len(requests) - 2 - result.n_shed

    def test_population_round_robins_generations(self):
        population = build_population(7)
        keys = sorted(DEVICES)
        for i, device in enumerate(population):
            assert device.device is DEVICES[keys[i % len(keys)]]
        generations = {d.generation for d in population}
        assert generations == {"V73", "V75", "V79"}


class TestAnalyticService:
    def test_larger_requests_cost_more(self):
        device = build_population(1)[0]
        small = device.serve(_request(0, n_candidates=1, max_new_tokens=16),
                             0.0)
        device.complete(_request(0), small, small.service_seconds)
        big = device.serve(_request(1, n_candidates=8, max_new_tokens=96),
                           1.0)
        assert big.service_seconds > small.service_seconds
        assert big.tokens > small.tokens
        assert big.joules > small.joules

    def test_sustained_load_throttles_and_slows(self):
        device = build_population(1, throttle_at_joules=0.05,
                                  recover_at_joules=0.01)[0]
        request = _request(0, n_candidates=8, max_new_tokens=96)
        cold = device.serve(request, 0.0)
        device.complete(request, cold, cold.service_seconds)
        for i in range(1, 6):  # back-to-back, no idle to cool
            outcome = device.serve(_request(i, n_candidates=8,
                                            max_new_tokens=96), float(i))
            device.complete(_request(i), outcome, float(i) + 1e-6)
        assert device.thermal.n_throttles > 0
        hot = device.serve(_request(9, n_candidates=8, max_new_tokens=96),
                           10.0)
        assert hot.service_seconds > cold.service_seconds


class TestHeterogeneousDispatch:
    def test_dispatch_flag_reprices_small_batch_decode(self):
        """Batch-1 decode is GPU-won on every Table-3 device, so the
        dispatching population must price it cheaper than NPU-only —
        and charge the one prefill->decode KV migration it implies."""
        request = _request(0, prompt_tokens=64, n_candidates=1,
                           max_new_tokens=32)
        plain = build_population(1)[0].serve(request, 0.0)
        routed_device = build_population(1, dispatch=True)[0]
        routed = routed_device.serve(request, 0.0)
        assert routed.service_seconds < plain.service_seconds
        assert routed_device.n_backend_switches == 1

    def test_dispatch_default_off_is_identical(self):
        request = _request(0, n_candidates=8, max_new_tokens=48)
        explicit = build_population(1, dispatch=False)[0].serve(request, 0.0)
        implicit = build_population(1)[0].serve(request, 0.0)
        assert explicit.service_seconds == implicit.service_seconds
        assert explicit.joules == implicit.joules

    def test_batched_decode_stays_on_npu(self):
        """n_candidates=8 decodes past the crossover: no migration, and
        the NPU pricing is untouched by the dispatch flag."""
        request = _request(0, prompt_tokens=64, n_candidates=8,
                           max_new_tokens=48)
        plain = build_population(1)[0].serve(request, 0.0)
        routed_device = build_population(1, dispatch=True)[0]
        routed = routed_device.serve(request, 0.0)
        assert routed.service_seconds == plain.service_seconds
        assert routed_device.n_backend_switches == 0

    def test_engine_device_threads_dispatch_through(self, tiny_model):
        from repro.fleet.devices import EngineFleetDevice
        from repro.llm import (BackendSelector,
                               ContinuousBatchingScheduler, InferenceEngine)

        def engine():
            return InferenceEngine(tiny_model, batch=4, max_context=64,
                                   kv_backend="paged",
                                   device=DEVICES["oneplus_12"])

        request = _request(0, prompt_tokens=6, n_candidates=4,
                           max_new_tokens=8,
                           prompt=(3, 1, 4, 1, 5, 9))
        plain = EngineFleetDevice(
            0, ContinuousBatchingScheduler(engine()),
            DEVICES["oneplus_12"]).serve(request, 0.0)
        routed = EngineFleetDevice(
            0, ContinuousBatchingScheduler(engine()),
            DEVICES["oneplus_12"],
            dispatch=BackendSelector(DEVICES["oneplus_12"],
                                     tiny_model.config),
            prefill_chunk=2).serve(request, 0.0)
        # same tokens either way; the placement only re-times the run
        assert routed.result.sequences == plain.result.sequences
        assert routed.result.n_prefill_chunks == 3
        assert routed.result.backend_steps, "dispatch must be live"


def _reference_service(device, request):
    """Reference analytic pricing: waves list-scheduled by ``plan_waves``,
    three separate cached lookups, and the idle base read from a fresh
    ``PowerBudget``."""
    from repro.llm.config import get_model_config
    from repro.llm.placement import crossing_for_bytes
    from repro.llm.scheduler import plan_waves
    from repro.perf.power import PowerBudget

    fd = fleet_devices
    governor = device.thermal.governor
    batch = min(request.n_candidates, fd.SERVICE_BATCH)
    prompt = fd._quantize(request.prompt_tokens, fd._PROMPT_QUANT)
    context = fd._quantize(
        request.prompt_tokens + request.max_new_tokens // 2, fd._CTX_QUANT)
    steps = plan_waves([request.max_new_tokens] * request.n_candidates,
                       batch).continuous_steps
    step_seconds = fd._decode_step_seconds(
        device.device, governor.name, device.model_name, batch, context)
    prefill = fd._prefill_seconds(
        device.device, governor.name, device.model_name, prompt)
    migration = 0.0
    if device.selector is not None:
        pre = device.selector.select("prefill", prompt, governor.name)
        dec = device.selector.select("decode", batch, governor.name)
        prefill *= pre.npu_ratio
        step_seconds *= dec.npu_ratio
        if pre.backend != dec.backend:
            config = get_model_config(device.model_name)
            kv_bytes = (batch * context * config.n_layers
                        * 2 * config.kv_dim * 2)
            migration = crossing_for_bytes(device.device, kv_bytes)
            device.n_backend_switches += 1
    service = prefill + steps * step_seconds + migration
    watts = fd._power_watts(device.device, governor.name, device.model_name,
                            batch, context)
    joules = watts * service
    base_w = PowerBudget().base_w
    device.thermal.absorb(max(0.0, watts - base_w) * service)
    return fd.ServiceOutcome(service_seconds=service,
                             tokens=request.total_new_tokens, joules=joules)


class TestConstantTimePricing:
    @pytest.mark.parametrize("dispatch", [False, True])
    @pytest.mark.parametrize("key", sorted(DEVICES))
    def test_matches_list_scheduled_pricing_bit_for_bit(self, key,
                                                         dispatch):
        def device():
            # low thresholds, so some requests throttle a rung and some
            # do not
            return AnalyticFleetDevice(
                0, DEVICES[key], dispatch=dispatch,
                thermal=ThermalState(throttle_at_joules=0.05,
                                     recover_at_joules=0.01))

        fast, reference = device(), device()
        for case in itertools.product(range(len(THROTTLE_LADDER)),
                                      range(1, 21), (1, 7, 32, 64),
                                      (1, 33, 200)):
            rung, n_candidates, max_new_tokens, prompt_tokens = case
            for thermal in (fast.thermal, reference.thermal):
                thermal.rung, thermal.heat_joules = rung, 0.03
            request = _request(0, prompt_tokens=prompt_tokens,
                               n_candidates=n_candidates,
                               max_new_tokens=max_new_tokens)
            got = fast._service(request)
            want = _reference_service(reference, request)
            assert ((got.service_seconds.hex(), got.tokens, got.joules.hex())
                    == (want.service_seconds.hex(), want.tokens,
                        want.joules.hex())), case
            assert ((fast.thermal.heat_joules.hex(), fast.thermal.rung)
                    == (reference.thermal.heat_joules.hex(),
                        reference.thermal.rung)), case
        assert fast.n_backend_switches == reference.n_backend_switches
        assert (fast.n_backend_switches > 0) == dispatch

    def test_fleet_runs_without_plan_waves(self, monkeypatch):
        import repro.llm.scheduler as scheduler

        def refuse(*args, **kwargs):
            raise AssertionError("fleet pricing list-scheduled its waves")

        monkeypatch.setattr(scheduler, "plan_waves", refuse)
        report = run_fleet(50, 5.0, horizon_seconds=20)
        assert report.requests["completed"] > 0
        assert report.capacity["devices_needed"] is not None

    def test_population_builds_bounds_once_per_resolution(self,
                                                          monkeypatch):
        calls = []
        real = fleet_devices.hdr_buckets

        def counted(*args, **kwargs):
            calls.append(kwargs["precision_bits"])
            return real(*args, **kwargs)

        monkeypatch.setattr(fleet_devices, "hdr_buckets", counted)
        fleet_devices._latency_bounds.cache_clear()
        population = build_population(300)
        assert sorted(calls) == sorted(
            set(fleet_devices.GENERATION_HDR_BITS.values()))
        first, same = population[0], population[3]
        assert first.generation == same.generation
        assert first.histogram.buckets == same.histogram.buckets
        first.histogram.observe(0.01)
        assert first.histogram.count == 1
        assert same.histogram.count == 0
        assert not any(same.histogram.counts)


class TestRunFleet:
    def test_report_replay_byte_identical(self):
        kwargs = dict(n_devices=10, qps=3.0, horizon_seconds=10.0, seed=5,
                      pattern="diurnal", with_capacity_plan=False)
        assert run_fleet(**kwargs).to_json_text() == \
            run_fleet(**kwargs).to_json_text()

    def test_report_schema_and_sections(self):
        report = run_fleet(6, 2.0, horizon_seconds=8.0, seed=2,
                           with_capacity_plan=False)
        payload = report.to_json()
        assert payload["schema"] == "repro.fleet/v1"
        for section in ("config", "population", "requests", "latency",
                        "throughput", "energy", "thermal", "capacity"):
            assert section in payload
        assert payload["population"]["total"] == 6
        assert "fleet:" in report.render()

    def test_capacity_plan_monotone_in_qps(self):
        report = run_fleet(10, 6.0, horizon_seconds=10.0, seed=0,
                           p99_target_ms=250.0)
        points = report.capacity["points"]
        needed = [p["devices_needed"] for p in points]
        assert all(n is not None for n in needed)
        assert needed == sorted(needed)  # more load never needs fewer
        assert report.capacity["devices_needed"] == needed[1]

    def test_plan_capacity_tighter_target_needs_more(self):
        loose = plan_capacity(8.0, 0.5, seed=0)
        tight = plan_capacity(8.0, 0.05, seed=0)
        assert loose is not None and tight is not None
        assert tight >= loose

    def test_plan_capacity_unreachable_target_is_none(self):
        # below the single-request service-time floor no fleet size can
        # hold the tail: even an idle device serves slower than this
        assert plan_capacity(8.0, 1e-3, seed=0, max_devices=64) is None

    def test_unknown_pattern_rejected(self):
        with pytest.raises(FleetError):
            run_fleet(4, 1.0, horizon_seconds=5.0, pattern="weekly")


class TestFleetCLI:
    def test_cli_json_replay_byte_identical(self, tmp_path, capsys):
        from repro.cli import main

        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code = main(["fleet", "--devices", "8", "--qps", "3",
                         "--horizon-seconds", "8", "--seed", "9",
                         "--pattern", "diurnal", "--no-capacity-plan",
                         "--json", str(path)])
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_cli_renders_capacity(self, capsys):
        from repro.cli import main

        assert main(["fleet", "--devices", "6", "--qps", "2",
                     "--horizon-seconds", "6"]) == 0
        output = capsys.readouterr().out
        assert "devices needed" in output
        assert "token latency" in output


class TestFleetTestingIntegration:
    def test_fleet_oracle_registered(self):
        from repro.testing import ORACLES

        oracle = ORACLES["fleet"]
        import numpy as np
        config = oracle.sample_config(np.random.default_rng(0))
        result = oracle.run(config)
        assert result.ok, result.mismatch

    def test_fleet_golden_registered(self):
        from repro.testing.goldens import GOLDEN_CASES

        assert "fleet.capacity" in GOLDEN_CASES
