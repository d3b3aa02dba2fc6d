"""Property tests: chaos never leaks memory (hypothesis).

Random interleavings of fault injection with the scheduler's
admit/retire lifecycle must leave the KV block pool empty, and random
TCM allocation walks that run the arena out must return it to zero used
bytes — the degradation ladder can drop candidates, but it can never
strand a block, and a failed allocation never strands a TCM region.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TCMAllocationError
from repro.llm import (
    ContinuousBatchingScheduler,
    InferenceEngine,
    NPUTransformer,
    Sampler,
    TransformerWeights,
    tiny_config,
)
from repro.npu import DEVICES
from repro.npu.memory import TCM
from repro.resilience import FaultEvent, FaultPlan

pytestmark = [pytest.mark.chaos, pytest.mark.slow]

_MODEL = NPUTransformer(TransformerWeights.generate(tiny_config(), seed=0))


@st.composite
def fault_plans(draw):
    """Arbitrary mixed plans over a small step/op horizon."""
    events = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(
            ["session_abort", "dma_timeout", "alloc_fail"]))
        events.append(FaultEvent(kind, "scheduler.step",
                                 draw(st.integers(0, 10))))
    for _ in range(draw(st.integers(0, 2))):
        events.append(FaultEvent(
            "thermal_throttle", "scheduler.step", draw(st.integers(0, 10)),
            governor=draw(st.sampled_from(["balanced", "efficiency"])),
            duration_steps=draw(st.one_of(st.none(), st.integers(1, 6)))))
    for _ in range(draw(st.integers(0, 3))):
        events.append(FaultEvent("alloc_fail", "kv_pool.alloc",
                                 draw(st.integers(0, 30))))
    return FaultPlan(events)


class TestSchedulerNeverLeaks:
    @given(plan=fault_plans(), seed=st.integers(0, 2**16),
           n_candidates=st.integers(1, 10), deadline_on=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_pool_drains_after_chaos_run(self, plan, seed, n_candidates,
                                         deadline_on):
        engine = InferenceEngine(_MODEL, batch=3, max_context=48,
                                 kv_backend="paged",
                                 device=DEVICES["oneplus_12"])
        sched = ContinuousBatchingScheduler(engine)
        result = sched.generate(
            [1, 2, 3], n_candidates=n_candidates, max_new_tokens=8,
            sampler=Sampler(temperature=0.8, seed=seed),
            fault_plan=plan,
            deadline_seconds=1e-4 if deadline_on else None)
        # an answer always comes back, and nothing leaks
        assert len(result.candidates) >= 1
        assert all(c.tokens for c in result.candidates)
        assert engine.cache.pool.blocks_in_use == 0
        assert engine.cache.pool.used_bytes == 0
        assert engine.governor.name == "performance"


class TestTCMNeverLeaks:
    @given(sizes=st.lists(st.integers(1, 512), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_alloc_free_walk_returns_to_zero(self, sizes):
        # 2 KiB holds at most sixteen aligned regions, so most walks
        # run the arena out
        tcm = TCM(capacity=2048)
        live = []
        for size in sizes:
            used = tcm.used_bytes()
            try:
                live.append(tcm.alloc(size))
            except TCMAllocationError:
                assert tcm.used_bytes() == used  # nothing was handed out
        for region in live:
            tcm.free(region)
        assert tcm.used_bytes() == 0
