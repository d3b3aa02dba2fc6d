"""Resilience layer: fault plans, injection, recovery, degradation.

Covers the chaos-mode acceptance scenario of the robustness PR: a
Best-of-N run with N=16 under a plan containing at least one session
abort, one allocation failure and one thermal throttling event must
complete and return a selected answer, with every retry and degradation
visible in the trace.
"""

import numpy as np
import pytest

from repro.errors import (
    EngineError,
    FaultError,
    KVPoolExhausted,
    SessionAbortError,
    TCMAllocationError,
)
from repro.llm import ContinuousBatchingScheduler, InferenceEngine, Sampler
from repro.llm.block_pool import BlockPool
from repro.npu import DEVICES
from repro.npu.memory import TCM
from repro.npu.power_mgmt import GOVERNORS, THROTTLE_LADDER, downgrade
from repro.npu.soc import FastRPCSession, get_device
from repro.resilience import (
    FaultEvent,
    FaultInjector,
    FaultPlan,
    INJECTION_SITES,
    RetryPolicy,
    degraded_schedule,
)
from repro.tts import TaskDataset, get_model_profile
from repro.tts.best_of_n import evaluate_best_of_n

pytestmark = pytest.mark.chaos

DEVICE = DEVICES["oneplus_12"]


def make_scheduler(tiny_model, batch=4):
    engine = InferenceEngine(tiny_model, batch=batch, max_context=64,
                             kv_backend="paged")
    return engine, ContinuousBatchingScheduler(engine)


# ----------------------------------------------------------------------
# fault plans
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_parse_spec_roundtrip(self):
        spec = "abort@2,dma@4,alloc@5,throttle@3:efficiency:4,kvpool#7"
        plan = FaultPlan.parse(spec)
        assert len(plan) == 5
        assert FaultPlan.parse(plan.spec()) == plan

    def test_empty_plan(self):
        assert len(FaultPlan.empty()) == 0
        assert FaultPlan.parse("") == FaultPlan.empty()
        assert FaultPlan.empty().spec() == ""

    def test_random_plan_is_seeded(self):
        a = FaultPlan.random(7)
        b = FaultPlan.random(7)
        c = FaultPlan.random(8)
        assert a == b
        assert a != c
        counts = a.counts()
        assert counts["session_abort"] == 1
        assert counts["thermal_throttle"] == 1

    def test_random_spec_string(self):
        plan = FaultPlan.parse("random:42")
        assert plan == FaultPlan.random(42)

    def test_bad_specs_raise(self):
        # tcm#K, rpcmem#K and rpc#K name sites no run fires
        for bad in ["abort@", "abort@x", "froz@3", "tcm#", "random:x",
                    "throttle@1:nope?", "kvpool#", "tcm#0", "rpcmem#0",
                    "rpc#1:dma"]:
            with pytest.raises(FaultError):
                FaultPlan.parse(bad)
        # unknown governor is rejected at schedule time
        with pytest.raises(FaultError):
            degraded_schedule([4], batch=1,
                              plan=FaultPlan.parse("throttle@0:warp9"))

    def test_invalid_events_raise(self):
        with pytest.raises(FaultError):
            FaultEvent("nope")
        with pytest.raises(FaultError):
            FaultEvent("session_abort", site="kv_pool.alloc")
        with pytest.raises(FaultError):
            FaultEvent("session_abort", at=-1)
        with pytest.raises(FaultError):
            FaultEvent("thermal_throttle", duration_steps=0)

    def test_every_site_is_one_a_run_fires(self):
        """The grammar names the scheduler's decode step, its KV block
        pool and the fleet's devices, and one token reaches each."""
        assert INJECTION_SITES == ("scheduler.step", "kv_pool.alloc",
                                   "fleet.device")
        plan = FaultPlan.parse("abort@1,kvpool#0,dev#0:drop@1")
        assert {e.site for e in plan} == set(INJECTION_SITES)

    def test_refuse_outside_names_the_first_unarmed_event(self):
        plan = FaultPlan.parse("abort@1,kvpool#0,dev#0:drop@1")
        plan.refuse_outside(INJECTION_SITES, "any run")
        FaultPlan.empty().refuse_outside((), "no run")
        with pytest.raises(FaultError) as err:
            plan.refuse_outside(("scheduler.step", "kv_pool.alloc"),
                                "a scheduler run")
        assert str(err.value) == (
            "fault 'dev#0:drop@1' at site 'fleet.device' never fires: a "
            "scheduler run arms only scheduler.step and kv_pool.alloc "
            "events")


class TestFaultInjector:
    def test_step_events_fire_once(self):
        plan = FaultPlan.parse("abort@3,throttle@3:balanced")
        injector = FaultInjector(plan)
        assert injector.remaining == 2
        events = injector.step_events(3)
        assert {e.kind for e in events} == {"session_abort",
                                            "thermal_throttle"}
        assert injector.step_events(3) == []
        assert injector.remaining == 0
        assert len(injector.injected) == 2

    def test_op_indexed_maybe_raise(self):
        injector = FaultInjector(FaultPlan.parse("kvpool#2"))
        injector.maybe_raise("kv_pool.alloc")
        injector.maybe_raise("kv_pool.alloc")
        assert injector.remaining == 1
        with pytest.raises(KVPoolExhausted,
                           match=r"injected alloc_fail at kv_pool\.alloc\[2\]"
                                 ": requested 64 bytes"):
            injector.maybe_raise("kv_pool.alloc", detail="requested 64 bytes")
        injector.maybe_raise("kv_pool.alloc")  # fired exactly once
        assert injector.remaining == 0


# ----------------------------------------------------------------------
# memory-site hooks and error messages
# ----------------------------------------------------------------------
class TestAllocSites:
    def test_tcm_real_exhaustion_reports_requested_and_peak(self):
        tcm = TCM(capacity=1024)
        tcm.alloc(512)
        with pytest.raises(TCMAllocationError) as err:
            tcm.alloc(1024)
        message = str(err.value)
        assert "1024" in message and "peak" in message

    def test_kv_pool_injected_failure(self):
        pool = BlockPool(capacity_bytes=8192, block_size=512)
        pool.fault_injector = FaultInjector(FaultPlan.parse("kvpool#0"))
        with pytest.raises(KVPoolExhausted,
                           match="injected alloc_fail") as err:
            pool.alloc(512)
        assert "512" in str(err.value) and "free" in str(err.value)
        assert pool.blocks_in_use == 0

    def test_kv_pool_real_exhaustion_is_engine_error(self):
        pool = BlockPool(capacity_bytes=1024, block_size=512)
        pool.alloc(512)
        pool.alloc(512)
        with pytest.raises(KVPoolExhausted) as err:
            pool.alloc(512)
        assert isinstance(err.value, EngineError)
        assert "peak" in str(err.value)


# ----------------------------------------------------------------------
# FastRPC session recovery
# ----------------------------------------------------------------------
class TestSessionRecovery:
    def make_session(self):
        heap = get_device("oneplus_12").rpcmem_heap()
        session = FastRPCSession(heap)
        session.register_op(1, lambda p: p.astype(np.uint8) + 1)
        return session

    def test_abort_then_reopen(self):
        session = self.make_session()
        session.abort()
        with pytest.raises(SessionAbortError):
            session.submit(1, np.array([1], dtype=np.uint8))
        session.reopen()
        out = session.submit(1, np.array([41], dtype=np.uint8))
        assert int(out[0]) == 42
        assert session.reopen_count == 1

    def test_reopen_live_session_rejected(self):
        session = self.make_session()
        with pytest.raises(EngineError):
            session.reopen()

    def test_backoff_is_capped_exponential(self):
        policy = RetryPolicy(max_retries=5, base_seconds=0.01,
                             cap_seconds=0.03)
        assert policy.backoff(0) == 0.01
        assert policy.backoff(1) == 0.02
        assert policy.backoff(2) == 0.03
        assert policy.backoff(4) == 0.03


# ----------------------------------------------------------------------
# DVFS ladder
# ----------------------------------------------------------------------
class TestThrottleLadder:
    def test_downgrade_walks_ladder_and_saturates(self):
        assert downgrade("performance").name == "balanced"
        assert downgrade(GOVERNORS["balanced"]).name == "efficiency"
        assert downgrade("efficiency").name == "efficiency"
        assert THROTTLE_LADDER == ("performance", "balanced", "efficiency")

    def test_engine_set_governor_rescales_and_restores(self, tiny_model):
        engine = InferenceEngine(tiny_model, batch=2, max_context=32,
                                 kv_backend="paged", device=DEVICE)
        baseline = engine._timing.generation.clock_hz
        previous = engine.set_governor("efficiency")
        assert previous.name == "performance"
        assert engine._timing.generation.clock_hz == pytest.approx(
            baseline * GOVERNORS["efficiency"].clock_scale)
        engine.set_governor(previous)
        assert engine._timing.generation.clock_hz == baseline
        with pytest.raises(EngineError):
            engine.set_governor("overdrive")


# ----------------------------------------------------------------------
# chaos-mode scheduler
# ----------------------------------------------------------------------
class TestSchedulerChaos:
    PLAN = "abort@2,dma@4,alloc@5,throttle@3:efficiency:4"

    def run(self, tiny_model, plan, deadline=None, n=8, steps=12, batch=4):
        engine, sched = make_scheduler(tiny_model, batch=batch)
        result = sched.generate([1, 2, 3, 4], n_candidates=n,
                                max_new_tokens=steps,
                                sampler=Sampler(temperature=0.8, seed=11),
                                fault_plan=plan, deadline_seconds=deadline)
        assert engine.cache.pool.blocks_in_use == 0
        assert engine.cache.pool.used_bytes == 0
        assert engine.governor.name == "performance"  # restored
        return result

    def test_survives_mixed_plan(self, tiny_model):
        result = self.run(tiny_model, FaultPlan.parse(self.PLAN))
        kinds = {f.kind for f in result.faults}
        assert kinds == {"session_abort", "dma_timeout", "alloc_fail",
                         "thermal_throttle"}
        assert result.n_retries >= 2          # abort + dma
        assert result.n_evictions == 1
        assert result.n_rebuilds > 0 and result.rebuilt_tokens > 0
        assert len(result.governor_steps) == 2  # downgrade + restore
        assert result.governor_steps[0][1] == "efficiency"
        assert result.governor_steps[1][1] == "performance"
        # every candidate still produced an answer
        assert len(result.candidates) == 8
        assert all(c.tokens for c in result.candidates)
        evicted = [c for c in result.candidates
                   if c.finish_reason == "evicted"]
        assert len(evicted) == 1

    def test_chaos_is_reproducible(self, tiny_model):
        plan = FaultPlan.parse(self.PLAN)
        a = self.run(tiny_model, plan)
        b = self.run(tiny_model, plan)
        assert a.sequences == b.sequences
        assert a.sim_seconds == b.sim_seconds
        assert a.n_retries == b.n_retries
        assert a.n_evictions == b.n_evictions
        assert [(f.kind, f.at) for f in a.faults] == \
            [(f.kind, f.at) for f in b.faults]

    def test_chaos_slows_the_clock(self, tiny_model):
        clean = self.run(tiny_model, None)
        chaos = self.run(tiny_model, FaultPlan.parse(self.PLAN))
        assert chaos.sim_seconds > clean.sim_seconds

    def test_deadline_degrades_to_partial_answers(self, tiny_model):
        clean = self.run(tiny_model, None)
        result = self.run(tiny_model, FaultPlan.parse(self.PLAN),
                          deadline=clean.sim_seconds * 0.4)
        assert result.deadline_hit
        assert result.degraded
        assert len(result.candidates) >= 1
        assert any(c.finish_reason == "deadline" for c in result.candidates)
        assert all(c.tokens for c in result.candidates)

    def test_retry_exhaustion_degrades_not_raises(self, tiny_model):
        # five consecutive aborts at one step exceed max_retries=3
        plan = FaultPlan([FaultEvent("session_abort", at=1)
                          for _ in range(5)])
        result = self.run(tiny_model, plan, n=4)
        assert result.degraded
        aborted = [c for c in result.candidates
                   if c.finish_reason == "aborted"]
        assert aborted and all(c.tokens for c in aborted)

    def test_kvpool_site_eviction(self, tiny_model):
        # an op-indexed pool fault mid-decode evicts and recovers
        result = self.run(tiny_model, FaultPlan.parse("kvpool#10"))
        assert result.n_evictions == 1
        assert len(result.candidates) == 8

    def test_fleet_device_events_are_left_to_the_fleet(self, tiny_model):
        result = self.run(tiny_model, FaultPlan.parse("abort@1,dev#0:crash@1"))
        assert [f.kind for f in result.faults] == ["session_abort"]

    def test_throttle_without_duration_lasts_rest_of_run(self, tiny_model):
        result = self.run(tiny_model, FaultPlan.parse("throttle@1:balanced"))
        assert result.governor_steps == [(1, "balanced")]
        assert len(result.candidates) == 8

    def test_acceptance_best_of_16_chaos(self, tiny_model):
        """The PR's acceptance scenario on the engine path: N=16 with
        >=1 abort, >=1 allocation failure, >=1 throttle still returns
        a full candidate set to select from."""
        plan = FaultPlan.parse("abort@3,alloc@6,throttle@2:efficiency:6")
        result = self.run(tiny_model, plan, n=16, steps=10, batch=4)
        assert len(result.candidates) == 16
        assert all(c.tokens for c in result.candidates)
        counts = {}
        for fault in result.faults:
            counts[fault.kind] = counts.get(fault.kind, 0) + 1
        assert counts["session_abort"] >= 1
        assert counts["alloc_fail"] >= 1
        assert counts["thermal_throttle"] >= 1
        assert result.n_retries >= 1


class TestSchedulerRecoveryPaths:
    """Recovery branches that need chunked prefill, a prompt admission,
    exhausted retries or an armed event log to fire: a 5-token primary
    prompt in 2-token chunks, with a 10-token prompt admitted at step 2
    for two 5-token candidates."""

    LATE = [7, 7, 7, 2, 5, 1, 8, 8, 4, 3]

    def run(self, tiny_model, plan=None, n=2, steps=6, batch=3,
            schedule=None, deadline=None, log=None):
        from repro.llm import PromptAdmission
        from repro.obs import scope

        engine = InferenceEngine(tiny_model, batch=batch, max_context=48,
                                 kv_backend="paged")
        with scope(log=log):
            result = ContinuousBatchingScheduler(engine).generate(
                [3, 1, 4, 1, 5], n_candidates=n, max_new_tokens=steps,
                sampler=Sampler(temperature=0.8, seed=0), prefill_chunk=2,
                admissions=[PromptAdmission(self.LATE, n_candidates=2,
                                            max_new_tokens=5, at_step=2)],
                length_schedule=schedule,
                fault_plan=FaultPlan.parse(plan) if plan else None,
                deadline_seconds=deadline)
        assert engine.cache.pool.blocks_in_use == 0
        assert engine.cache.pool.used_bytes == 0
        assert engine.governor.name == "performance"
        assert len(result.candidates) == result.n_admissions
        return result

    @staticmethod
    def outcomes(result):
        return [(c.candidate_id, c.request_id, c.admitted_step,
                 c.finished_step, c.finish_reason, len(c.tokens))
                for c in result.candidates]

    def test_abort_restarts_in_flight_admitted_prefill(self, tiny_model):
        from repro.obs.timeline import EventLog
        log = EventLog()
        result = self.run(tiny_model, "abort@4", log=log)
        assert [f.kind for f in result.faults] == ["session_abort"]
        assert result.n_retries == 1
        assert (result.n_rebuilds, result.rebuilt_tokens) == (2, 8)
        # the admitted prompt had forwarded three chunks when the abort
        # hit; they are lost and it prefills again from offset 0
        offsets = [e.attrs["offset"] for e in log.by_kind("prefill_chunk")
                   if e.attrs["request"] == 1]
        assert offsets == [0, 2, 4, 0, 2, 4, 6, 8]
        assert result.n_prefill_chunks == 3 + 8
        assert self.outcomes(result) == [
            (0, 0, 0, 5, "length", 6), (1, 0, 0, 5, "length", 6),
            (2, 1, 5, 9, "length", 5), (3, 1, 5, 9, "length", 5)]

    def test_chunk_kv_exhaustion_rolls_back_and_evicts(self, tiny_model):
        result = self.run(tiny_model, "kvpool#5")
        assert [f.kind for f in result.faults] == ["alloc_fail"]
        assert result.n_evictions == 1
        assert result.n_retries == 0
        # the failed chunk is not counted; the prompt prefills once
        assert result.n_prefill_chunks == 3 + 5
        assert self.outcomes(result) == [
            (0, 0, 0, 5, "length", 6), (1, 0, 0, 2, "evicted", 3),
            (2, 1, 5, 9, "length", 5), (3, 1, 5, 9, "length", 5)]

    def test_chunk_kv_exhaustion_with_nothing_to_evict(self, tiny_model):
        # one-token budgets retire both candidates at admission, so the
        # admitted prompt prefills idle; its chunk fails with nothing
        # live to evict, and the run ends without admitting it
        result = self.run(tiny_model, "kvpool#1", steps=1)
        assert [f.kind for f in result.faults] == ["alloc_fail"]
        assert (result.n_steps, result.n_evictions) == (0, 0)
        assert result.n_admissions == 2
        assert result.n_prefill_chunks == 3
        assert self.outcomes(result) == [
            (0, 0, 0, 0, "length", 1), (1, 0, 0, 0, "length", 1)]

    def test_retire_at_admission_then_idle_prefill(self, tiny_model):
        result = self.run(tiny_model, n=6, schedule=[1, 4])
        assert result.n_admissions == 8
        assert result.n_steps == 7
        # the admission waits for the decode to drain, then prefills all
        # five chunks idle before its candidates are admitted at step 3
        assert result.n_prefill_chunks == 3 + 5
        assert self.outcomes(result) == [
            (0, 0, 0, 0, "length", 1), (1, 0, 0, 3, "length", 4),
            (2, 0, 0, 0, "length", 1), (3, 0, 0, 3, "length", 4),
            (4, 0, 0, 0, "length", 1), (5, 0, 0, 3, "length", 4),
            (6, 1, 3, 7, "length", 5), (7, 1, 3, 7, "length", 5)]

    def test_dma_retries_exhausted_degrade(self, tiny_model):
        result = self.run(tiny_model, "dma@2,dma@2,dma@2,dma@2", n=6)
        assert [f.kind for f in result.faults] == ["dma_timeout"] * 4
        assert result.n_retries == RetryPolicy().max_retries
        assert result.degraded and not result.deadline_hit
        aborted = [c for c in result.candidates
                   if c.finish_reason == "aborted"]
        assert [(c.candidate_id, c.finished_step) for c in aborted] == \
            [(0, 2), (1, 2), (2, 2)]
        # the run goes on after the degrade and admits everyone else
        assert result.n_admissions == 8

    def test_alloc_retries_exhausted_degrade(self, tiny_model):
        # one eviction per retry; the fourth failure exceeds max_retries
        # while a candidate is still live
        result = self.run(tiny_model, ",".join(["alloc@1"] * 4), n=4,
                          batch=4)
        assert [f.kind for f in result.faults] == ["alloc_fail"] * 4
        assert result.n_evictions == RetryPolicy().max_retries
        assert result.degraded
        assert [c.finish_reason for c in result.candidates] == [
            "aborted", "evicted", "evicted", "evicted", "length", "length"]

    def test_deadline_event_and_unfinished_prefill_slot(self, tiny_model):
        from repro.obs.timeline import EventLog
        log = EventLog()
        result = self.run(tiny_model, deadline=3e-5, log=log)
        assert result.deadline_hit and result.degraded
        (event,) = log.by_kind("deadline")
        assert event.step == result.n_steps == 4
        assert dict(event.attrs) == {"deadline": 3e-5, "live": 2}
        # the admitted prompt was mid-prefill when admission stopped:
        # its slot is freed at the end and it admits nobody
        assert result.n_prefill_chunks == 3 + 2
        assert self.outcomes(result) == [
            (0, 0, 0, 4, "deadline", 5), (1, 0, 0, 4, "deadline", 5)]


# ----------------------------------------------------------------------
# TTS-layer degradation
# ----------------------------------------------------------------------
class TestTTSDegradation:
    @pytest.fixture(scope="class")
    def inputs(self):
        profile = get_model_profile("qwen2.5-1.5b")
        dataset = TaskDataset.generate("math500", 30, seed=0)
        return profile, dataset

    def test_degraded_schedule_baseline_is_noop(self):
        out = degraded_schedule([5, 3, 7], batch=2)
        assert out.survivors == [0, 1, 2]
        assert not out.degraded
        assert out.makespan_steps == 10.0  # slot0: 5+? -> plan_waves greedy

    def test_degraded_schedule_evicts_and_throttles(self):
        plan = FaultPlan.parse("alloc@2,throttle@0:efficiency:4,abort@1")
        out = degraded_schedule([6, 6, 6], batch=3, plan=plan)
        assert out.n_evicted == 1
        assert len(out.survivors) == 2
        assert out.throttled_steps == 4
        assert out.n_aborts == 1
        assert out.makespan_steps > 6.0

    def test_degraded_schedule_deadline_keeps_one(self):
        # every candidate misses the deadline; the earliest finisher is
        # resurrected (best-answer-so-far, never an empty answer)
        out = degraded_schedule([4, 9, 9], batch=1, deadline_steps=1.0)
        assert out.survivors == [0]
        assert out.n_deadline_dropped == 3

    def test_chaos_best_of_n_returns_answer(self, inputs):
        profile, dataset = inputs
        plan = FaultPlan.parse("abort@2,alloc@5,throttle@3:efficiency:8")
        result = evaluate_best_of_n(dataset, profile, budget=16, seed=5,
                                    engine_batch=4, fault_plan=plan,
                                    deadline_steps=200.0)
        assert 0.0 <= result.accuracy <= 1.0
        assert result.degraded
        assert result.n_dropped_candidates > 0
        assert result.fault_spec == plan.spec()
        assert result.degraded_decode_steps > 0
        # reproducible under the same (seed, plan)
        again = evaluate_best_of_n(dataset, profile, budget=16, seed=5,
                                   engine_batch=4, fault_plan=plan,
                                   deadline_steps=200.0)
        assert again.accuracy == result.accuracy
        assert again.n_dropped_candidates == result.n_dropped_candidates

    def test_empty_plan_matches_plain_run(self, inputs):
        profile, dataset = inputs
        plain = evaluate_best_of_n(dataset, profile, budget=8, seed=9)
        empty = evaluate_best_of_n(dataset, profile, budget=8, seed=9,
                                   fault_plan=FaultPlan.empty())
        assert empty.accuracy == plain.accuracy
        assert empty.oracle_accuracy == plain.oracle_accuracy
        assert not empty.degraded

    def test_best_of_n_refuses_events_it_does_not_model(self, inputs):
        """The sweep's schedule fires decode-step events only: a KV-pool
        or fleet event is refused, naming the first, not ignored."""
        profile, dataset = inputs
        for spec, first in (("kvpool#0", "'kvpool#0' at site "
                                         "'kv_pool.alloc'"),
                            ("abort@1,kvpool#0,dev#1:crash@1",
                             "'dev#1:crash@1' at site 'fleet.device'")):
            with pytest.raises(FaultError) as err:
                evaluate_best_of_n(dataset, profile, budget=4,
                                   engine_batch=2,
                                   fault_plan=FaultPlan.parse(spec))
            assert str(err.value) == (
                f"fault {first} never fires: a Best-of-N sweep arms only "
                f"scheduler.step events")

    def test_sweep_rejects_chaos_for_other_methods(self, inputs):
        from repro.errors import ScalingError
        from repro.tts import budget_sweep

        profile, dataset = inputs
        with pytest.raises(ScalingError):
            budget_sweep("beam_search", dataset, profile, budgets=[2],
                         fault_plan=FaultPlan.parse("abort@1"))
