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
    AddressSpaceError,
    DMATimeoutError,
    EngineError,
    FaultError,
    KVPoolExhausted,
    RetryExhaustedError,
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
    ResilientSession,
    RetryPolicy,
    degraded_schedule,
)
from repro.sim import SimClock
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
        spec = ("abort@2,dma@4,alloc@5,throttle@3:efficiency:4,"
                "tcm#1,rpcmem#0,kvpool#7,rpc#2:dma")
        plan = FaultPlan.parse(spec)
        assert len(plan) == 8
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
        for bad in ["abort@", "abort@x", "froz@3", "tcm#", "random:x",
                    "throttle@1:nope?"]:
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
            FaultEvent("session_abort", site="tcm.alloc")
        with pytest.raises(FaultError):
            FaultEvent("session_abort", at=-1)
        with pytest.raises(FaultError):
            FaultEvent("thermal_throttle", duration_steps=0)


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
        injector = FaultInjector(FaultPlan.parse("tcm#2"))
        injector.maybe_raise("tcm.alloc")
        injector.maybe_raise("tcm.alloc")
        with pytest.raises(TCMAllocationError, match="injected alloc_fail"):
            injector.maybe_raise("tcm.alloc", detail="requested 64 bytes")
        injector.maybe_raise("tcm.alloc")  # fired exactly once
        assert injector.site_index("tcm.alloc") == 4


# ----------------------------------------------------------------------
# memory-site hooks and error messages
# ----------------------------------------------------------------------
class TestAllocSites:
    def test_tcm_injected_failure_carries_context(self):
        tcm = TCM(capacity=4096)
        tcm.fault_injector = FaultInjector(FaultPlan.parse("tcm#0"))
        with pytest.raises(TCMAllocationError) as err:
            tcm.alloc(256)
        message = str(err.value)
        assert "256" in message and "free" in message
        assert tcm.used_bytes() == 0

    def test_tcm_real_exhaustion_reports_requested_and_peak(self):
        tcm = TCM(capacity=1024)
        tcm.alloc(512)
        with pytest.raises(TCMAllocationError) as err:
            tcm.alloc(1024)
        message = str(err.value)
        assert "1024" in message and "peak" in message

    def test_rpcmem_injected_failure(self):
        heap = get_device("oneplus_12").rpcmem_heap()
        heap.fault_injector = FaultInjector(FaultPlan.parse("rpcmem#1"))
        heap.alloc(1 << 20, name="first")
        with pytest.raises(AddressSpaceError, match="injected alloc_fail"):
            heap.alloc(1 << 20, name="second")

    def test_kv_pool_injected_failure(self):
        pool = BlockPool(capacity_bytes=8192, block_size=512)
        pool.fault_injector = FaultInjector(FaultPlan.parse("kvpool#0"))
        with pytest.raises(KVPoolExhausted, match="injected alloc_fail"):
            pool.alloc(512)
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
    def make_session(self, plan=None):
        heap = get_device("oneplus_12").rpcmem_heap()
        injector = FaultInjector(plan) if plan is not None else None
        session = FastRPCSession(heap, fault_injector=injector)
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

    def test_injected_abort_kills_session(self):
        session = self.make_session(FaultPlan.parse("rpc#1:abort"))
        session.submit(1, np.array([1], dtype=np.uint8))
        with pytest.raises(SessionAbortError):
            session.submit(1, np.array([2], dtype=np.uint8))
        assert not session.alive

    def test_resilient_session_retries_through_abort_and_dma(self):
        clock = SimClock()
        session = self.make_session(FaultPlan.parse("rpc#0:abort,rpc#2:dma"))
        resilient = ResilientSession(session, RetryPolicy(max_retries=3),
                                     clock=clock)
        out = resilient.submit(1, np.array([9], dtype=np.uint8))
        assert int(out[0]) == 10
        out = resilient.submit(1, np.array([19], dtype=np.uint8))
        assert int(out[0]) == 20
        assert resilient.retries == 2
        assert resilient.reopens == 1
        assert session.alive
        assert clock.total_seconds > 0  # backoff charged to sim time

    def test_resilient_session_exhausts_retries(self):
        plan = FaultPlan([FaultEvent("session_abort", "fastrpc.submit", i)
                          for i in range(5)])
        session = self.make_session(plan)
        resilient = ResilientSession(session, RetryPolicy(max_retries=2))
        with pytest.raises(RetryExhaustedError):
            resilient.submit(1, np.array([0], dtype=np.uint8))

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

    def test_sweep_rejects_chaos_for_other_methods(self, inputs):
        from repro.errors import ScalingError
        from repro.tts import budget_sweep

        profile, dataset = inputs
        with pytest.raises(ScalingError):
            budget_sweep("beam_search", dataset, profile, budgets=[2],
                         fault_plan=FaultPlan.parse("abort@1"))
