"""Continuous-batching decode scheduler over the paged KV block pool.

The lock-step :meth:`InferenceEngine.generate` decodes every candidate
until the *slowest* one finishes: a candidate that hits EOS keeps
occupying its batch slot (and its KV memory) doing dead work.  This
scheduler instead drives the engine step-by-step over a
:class:`~repro.llm.block_pool.PagedKVCache`:

* the prompt is prefilled once and pinned as a block-table snapshot;
* candidates are admitted into free slots by copy-on-write sharing the
  prompt blocks (no KV copy);
* a candidate that terminates (EOS or its token budget) frees its
  private blocks immediately and the scheduler admits the next pending
  candidate into the vacated slot *mid-generation* — waved Best-of-N
  that keeps the NPU batch full until the total candidate budget N is
  drained, even when N exceeds the engine batch;
* each step is charged at the *live* batch size through the engine's
  :class:`~repro.npu.timing.TimingModel` path, so the simulated time
  reflects the reclaimed slots.

:func:`plan_waves` is the closed-form counterpart used by the TTS layer:
given candidate lengths it computes the continuous-batching makespan
versus sequential lock-step waves without running the engine.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import (
    DMATimeoutError,
    EngineError,
    KVPoolExhausted,
    SessionAbortError,
    TransientFaultError,
)
from ..npu.power_mgmt import governor_level
from ..sim import SimClock
from ..obs import energy as obs_energy
from ..obs import metrics as obs_metrics
from ..obs import timeline as obs_timeline
from ..obs import trace as obs_trace
from ..obs.slo import SLOTracker
from ..resilience.faults import FaultInjector, FaultPlan, FaultRecord
from ..resilience.recovery import RetryPolicy
from .block_pool import PagedKVCache
from .dispatch import BackendSelector
from .engine import GenerationResult, InferenceEngine
from .placement import crossing_for_bytes
from .sampler import Sampler

__all__ = ["CandidateOutput", "PromptAdmission", "ScheduledGeneration",
           "WavePlan", "plan_waves", "ContinuousBatchingScheduler"]


@dataclass(frozen=True)
class PromptAdmission:
    """One extra prompt admitted into a running ``generate`` call.

    Chunked prefill makes prompt processing schedulable, so a run can
    accept new requests mid-decode: from ``at_step`` on, the scheduler
    forwards one prompt chunk per decode iteration into a free slot,
    then admits ``n_candidates`` continuations exactly like the primary
    prompt's.  Candidate ids continue after the previous request's.
    """

    prompt: Sequence[int]
    n_candidates: int
    max_new_tokens: int
    at_step: int = 0


@dataclass
class CandidateOutput:
    """Lifecycle record of one scheduled candidate."""

    candidate_id: int
    slot: int
    tokens: List[int]
    admitted_step: int
    finished_step: int
    finish_reason: str  # "eos" or "length"
    joules: float = 0.0  # decode/rebuild energy attributed to this candidate
    request_id: int = 0  # prompt the candidate continues (0 = primary)


@dataclass
class ScheduledGeneration(GenerationResult):
    """A :class:`GenerationResult` plus continuous-batching bookkeeping.

    The resilience fields are all zero/empty when no fault plan and no
    deadline were given — the chaos path is never entered in that case.
    """

    candidates: List[CandidateOutput] = field(default_factory=list)
    n_steps: int = 0
    n_admissions: int = 0
    peak_kv_bytes: int = 0
    cow_copies: int = 0
    live_batch_per_step: List[int] = field(default_factory=list)
    faults: List[FaultRecord] = field(default_factory=list)
    n_retries: int = 0
    n_evictions: int = 0
    n_rebuilds: int = 0
    rebuilt_tokens: int = 0
    deadline_hit: bool = False
    degraded: bool = False
    governor_steps: List[Tuple[int, str]] = field(default_factory=list)
    prefill_joules: float = 0.0
    idle_joules: float = 0.0
    # stage-level dispatch + chunked prefill (zero/empty when the
    # dispatcher and chunking are off — the bitwise-no-op default)
    n_prefill_chunks: int = 0
    n_prompt_admissions: int = 0
    backend_steps: List[Tuple[int, str]] = field(default_factory=list)
    n_backend_switches: int = 0
    migration_seconds: float = 0.0

    @property
    def mean_live_batch(self) -> float:
        if not self.live_batch_per_step:
            return 0.0
        return sum(self.live_batch_per_step) / len(self.live_batch_per_step)

    @property
    def n_faults(self) -> int:
        return len(self.faults)


@dataclass(frozen=True)
class WavePlan:
    """Makespan of N candidates on a batch-B engine, two disciplines.

    Steps are decode iterations of the whole batch; ``continuous_steps``
    backfills vacated slots immediately, ``lockstep_steps`` runs
    ``ceil(N / B)`` sequential waves each gated on its slowest member.
    """

    n_candidates: int
    batch: int
    continuous_steps: int
    lockstep_steps: int
    total_token_steps: int

    @property
    def steps_saved(self) -> int:
        return self.lockstep_steps - self.continuous_steps

    @property
    def speedup(self) -> float:
        if self.continuous_steps == 0:
            return 1.0
        return self.lockstep_steps / self.continuous_steps


def plan_waves(candidate_tokens: Sequence[int], batch: int) -> WavePlan:
    """Compare continuous backfill against sequential lock-step waves.

    ``candidate_tokens`` are per-candidate decode lengths in admission
    order.  The continuous makespan list-schedules each candidate onto
    the earliest-free slot (greedy, the policy the real scheduler
    implements); the lock-step makespan sums per-wave maxima.
    """
    lengths = [int(n) for n in candidate_tokens]
    if not lengths or any(n <= 0 for n in lengths):
        raise EngineError(
            f"candidate token counts must be positive, got {lengths}")
    if batch <= 0:
        raise EngineError(f"batch must be positive, got {batch}")
    slots = [0] * min(batch, len(lengths))
    heapq.heapify(slots)
    makespan = 0
    for n in lengths:
        start = heapq.heappop(slots)
        heapq.heappush(slots, start + n)
        makespan = max(makespan, start + n)
    lockstep = sum(max(lengths[i:i + batch])
                   for i in range(0, len(lengths), batch))
    return WavePlan(n_candidates=len(lengths), batch=batch,
                    continuous_steps=makespan, lockstep_steps=lockstep,
                    total_token_steps=sum(lengths))


@dataclass
class _LiveCandidate:
    candidate_id: int
    slot: int
    tokens: List[int]
    budget: int
    admitted_step: int
    admitted_sim: float = 0.0
    request_id: int = 0

    @property
    def last_token(self) -> int:
        return self.tokens[-1]


@dataclass
class _Request:
    """One prompt's serving state inside a scheduler run."""

    request_id: int
    prompt: List[int]
    n_candidates: int
    budgets: List[int]
    first_candidate: int  # global id of this request's first candidate
    at_step: int = 0
    anchor: Optional[object] = None       # prompt snapshot once prefilled
    last_logits: Optional[np.ndarray] = None
    prefill_slot: Optional[int] = None    # slot an in-flight prefill holds
    prefilled: int = 0                    # prompt tokens forwarded so far
    next_local: int = 0                   # candidates admitted so far


class ContinuousBatchingScheduler:
    """Waved Best-of-N decode over an engine with a paged KV cache."""

    def __init__(self, engine: InferenceEngine) -> None:
        if engine.kv_backend != "paged":
            raise EngineError(
                "the continuous-batching scheduler requires an engine with "
                "kv_backend='paged' (got "
                f"{engine.kv_backend!r})")
        self.engine = engine
        reg = obs_metrics.get_metrics()
        self._admissions = reg.counter("repro.scheduler.admissions")
        self._retired = reg.counter("repro.scheduler.retired")
        self._live_batch = reg.gauge("repro.scheduler.live_batch")
        self._step_retries = reg.counter("repro.resilience.step_retries")
        self._evictions = reg.counter("repro.resilience.evictions")
        self._rebuilds = reg.counter("repro.resilience.rebuilds")

    # ------------------------------------------------------------------
    def generate(self, prompt: Sequence[int], n_candidates: int,
                 max_new_tokens: int, sampler: Optional[Sampler] = None,
                 eos_id: Optional[int] = None,
                 length_schedule: Optional[Sequence[int]] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 deadline_seconds: Optional[float] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 clock: Optional[SimClock] = None,
                 prefill_chunk: Optional[int] = None,
                 dispatch: Optional[BackendSelector] = None,
                 admissions: Optional[Sequence[PromptAdmission]] = None
                 ) -> ScheduledGeneration:
        """Decode ``n_candidates`` continuations, backfilling freed slots.

        ``length_schedule`` optionally caps each candidate's decode
        budget individually (candidate ``i`` gets ``length_schedule[i %
        len]`` tokens, at most ``max_new_tokens``) — the TTS workload
        where reasoning chains have heterogeneous lengths.

        ``fault_plan`` arms a deterministic :class:`FaultInjector` over
        the run: session aborts and DMA timeouts are retried with
        backoff charged to the :class:`SimClock` (aborts additionally
        pay a reopen penalty and rebuild every live candidate's KV from
        the prompt anchor snapshot), allocation failures evict the
        least-progressed candidate, and thermal throttling downgrades
        the engine's DVFS governor for ``duration_steps``.  An empty or
        ``None`` plan leaves the decode loop bitwise identical to the
        non-resilient path.  ``deadline_seconds`` bounds simulated
        wall-clock: once exceeded, live candidates retire with their
        tokens so far (``finish_reason="deadline"``) and no further
        candidates are admitted.

        ``clock`` optionally injects a shared :class:`~repro.sim.SimClock`
        (the fleet layer passes a device-local clock so every request on
        a device accumulates onto one timeline).  The run's
        ``sim_seconds`` and deadline are measured relative to the
        clock's reading at entry, so a fresh default clock — the
        existing single-run path — is bitwise unchanged.

        ``prefill_chunk`` enables chunked prefill: the prompt forwards
        through TCM-sized windows of at most that many tokens, each a
        separately clocked, SLO-tracked, fault-injectable step.  RoPE
        positions continue across chunks, so the decoded output is
        bitwise identical to monolithic prefill (the ``prefill.chunked``
        oracle).  ``dispatch`` arms a stage-level
        :class:`~repro.llm.dispatch.BackendSelector`: each prefill chunk
        and decode step runs on the backend with the lowest modeled
        latency for its (stage, size, governor), off-NPU time scaling
        the NPU-simulated step by the modeled ratio; a backend change
        pays an rpcmem boundary crossing for the live KV state.  A
        selector forced to ``"npu"`` (with chunking off) is a bitwise
        no-op.  ``admissions`` queues extra prompts that enter the run
        at their ``at_step`` as chunk-interleaved prefill work, then
        decode as additional candidates — mixed prefill/decode
        continuous batching.
        """
        engine = self.engine
        if n_candidates <= 0:
            raise EngineError(
                f"candidate count must be positive, got {n_candidates}")
        if max_new_tokens <= 0:
            raise EngineError(
                f"max_new_tokens must be positive, got {max_new_tokens}")
        prompt = list(prompt)
        if len(prompt) + max_new_tokens > engine.max_context:
            raise EngineError(
                f"prompt {len(prompt)} + {max_new_tokens} new tokens exceed "
                f"context {engine.max_context}")
        budgets = self._budgets(n_candidates, max_new_tokens, length_schedule)
        if prefill_chunk is not None and prefill_chunk <= 0:
            raise EngineError(
                f"prefill_chunk must be positive, got {prefill_chunk}")
        admitted = list(admissions) if admissions is not None else []
        for admission in admitted:
            extra = list(admission.prompt)
            if not extra:
                raise EngineError("admitted prompts must be non-empty")
            if admission.n_candidates <= 0:
                raise EngineError(
                    "admitted candidate count must be positive, got "
                    f"{admission.n_candidates}")
            if admission.max_new_tokens <= 0:
                raise EngineError(
                    "admitted max_new_tokens must be positive, got "
                    f"{admission.max_new_tokens}")
            if admission.at_step < 0:
                raise EngineError(
                    f"admission at_step must be >= 0, got {admission.at_step}")
            if len(extra) + admission.max_new_tokens > engine.max_context:
                raise EngineError(
                    f"admitted prompt {len(extra)} + "
                    f"{admission.max_new_tokens} new tokens exceed context "
                    f"{engine.max_context}")
        if dispatch is not None and dispatch.config != engine.model.config:
            raise EngineError(
                "dispatch selector was built for a different model config "
                "than the engine's")
        sampler = sampler if sampler is not None else Sampler(temperature=0.8)
        injector: Optional[FaultInjector] = None
        if fault_plan is not None and len(fault_plan) > 0:
            injector = FaultInjector(fault_plan)
        policy = retry_policy if retry_policy is not None else RetryPolicy()
        engine.reset()
        cache = engine.cache
        assert isinstance(cache, PagedKVCache)
        clock = clock if clock is not None else SimClock()

        result = ScheduledGeneration(sequences=[], prefill_cost=None,
                                     prompt_tokens=len(prompt))
        slo = SLOTracker(obs_metrics.get_metrics(),
                         engine_batch=engine.batch)
        base_governor = engine.governor
        try:
            with obs_trace.span("scheduler.generate", category="scheduler",
                                prompt_tokens=len(prompt),
                                n_candidates=n_candidates,
                                batch=engine.batch,
                                max_new_tokens=max_new_tokens):
                self._run(engine, cache, clock, prompt, n_candidates,
                          budgets, sampler, eos_id, injector, policy,
                          deadline_seconds, base_governor, result, slo,
                          prefill_chunk, dispatch, admitted)
        finally:
            if injector is not None:
                cache.pool.fault_injector = None
                engine.set_governor(base_governor)
        if injector is not None:
            result.faults = list(injector.injected)
        return result

    # ------------------------------------------------------------------
    def _run(self, engine: InferenceEngine, cache: PagedKVCache,
             clock: SimClock, prompt: List[int], n_candidates: int,
             budgets: List[int], sampler: Sampler, eos_id: Optional[int],
             injector: Optional[FaultInjector], policy: RetryPolicy,
             deadline_seconds: Optional[float], base_governor,
             result: ScheduledGeneration, slo: SLOTracker,
             prefill_chunk: Optional[int],
             selector: Optional[BackendSelector],
             admissions: Sequence[PromptAdmission]) -> None:
        tlog = obs_timeline.get_event_log()
        accountant = obs_energy.EnergyAccountant()
        batch = engine.batch
        config = engine.model.config
        # An injected clock may already carry earlier requests' time;
        # deadline and sim_seconds are relative to this run's start.
        run_start = clock.total_seconds

        requests: List[_Request] = [
            _Request(request_id=0, prompt=list(prompt),
                     n_candidates=n_candidates, budgets=budgets,
                     first_candidate=0)]
        next_cid = n_candidates
        for i, admission in enumerate(admissions):
            requests.append(_Request(
                request_id=i + 1, prompt=list(admission.prompt),
                n_candidates=admission.n_candidates,
                budgets=[admission.max_new_tokens] * admission.n_candidates,
                first_candidate=next_cid, at_step=admission.at_step))
            next_cid += admission.n_candidates
        result.n_prompt_admissions = len(requests) - 1

        if tlog.enabled:
            for request in requests:
                for local in range(request.n_candidates):
                    cid = request.first_candidate + local
                    tlog.emit("queue", run_start, request_id=cid,
                              wave=cid // batch)

        free_slots = list(range(engine.batch))
        live: Dict[int, _LiveCandidate] = {}
        finished: List[CandidateOutput] = []
        # wave boundary bookkeeping: every candidate id is known up
        # front, so wave populations are too — wave k opens at its
        # first admission and closes when its last member retires
        total_candidates = next_cid
        waves_started: set = set()
        wave_retired: Dict[int, int] = {}

        def wave_population(wave: int) -> int:
            return min(batch, total_candidates - wave * batch)

        step = 0
        admitting = True
        throttle_restore_step: Optional[int] = None
        # the simulated NPU is the reference backend: all costs come out
        # of the TimingModel's NPU path, and the dispatcher scales them
        prev_backend = "npu"

        def charge(kind: str, energy: "obs_energy.EnergyBreakdown",
                   request_id: Optional[int] = None,
                   step: Optional[int] = None, **attrs) -> None:
            # every joule and lane-busy second is one charging event:
            # the ledger folds exactly the attrs the timeline records
            attrs.update(energy.charge_attrs())
            accountant.charge(kind, attrs, request_id)
            if tlog.enabled:
                tlog.emit(kind, clock.total_seconds, request_id=request_id,
                          step=step, **attrs)

        def migrate(decision, stage: str) -> None:
            # moving a stage between backends drags the live KV state
            # across the rpcmem boundary (clean/invalidate + DRAM copy)
            nonlocal prev_backend
            if decision.backend == prev_backend:
                return
            tokens_cached = sum(cache.sequence_length(s)
                                for s in range(batch))
            kv_bytes = tokens_cached * config.n_layers * 2 * config.kv_dim * 2
            seconds = crossing_for_bytes(selector.device, kv_bytes)
            clock.advance(seconds)
            result.migration_seconds += seconds
            result.n_backend_switches += 1
            charge("backend_switch",
                   engine.energy_model.idle_energy(seconds),
                   step=step, stage=stage, backend_from=prev_backend,
                   backend_to=decision.backend, crossing_seconds=seconds,
                   kv_bytes=kv_bytes)
            prev_backend = decision.backend

        def price(cost, decision=None
                  ) -> "tuple[float, obs_energy.EnergyBreakdown]":
            # the one place a forward becomes simulated seconds, joules
            # and lane-busy seconds: an off-NPU backend scales the
            # NPU-modeled step by its modeled ratio, draws no NPU
            # dynamic power and keeps only the CPU lane busy
            seconds = engine.step_seconds(cost)
            offloaded = decision is not None and decision.backend != "npu"
            if offloaded:
                seconds *= decision.npu_ratio
            clock.advance(seconds)
            if offloaded:
                return seconds, engine.offloaded_step_energy(seconds)
            return seconds, engine.step_energy(cost, seconds)

        def forward_chunk(request: _Request, recover: bool) -> bool:
            # one prompt window through the model; True means the run
            # made forward progress (a chunk landed, or an eviction
            # freed pool space for the retry)
            slot = request.prefill_slot
            start = request.prefilled
            end = len(request.prompt) if prefill_chunk is None \
                else min(start + prefill_chunk, len(request.prompt))
            chunk = request.prompt[start:end]
            decision = None
            if selector is not None:
                decision = selector.select("prefill", len(chunk),
                                           engine.governor.name)
                migrate(decision, "prefill")
            try:
                logits_vec, cost = engine.prefill_chunk(chunk, seq=slot)
            except KVPoolExhausted:
                if not recover:
                    raise
                # roll the partial prefill back; eviction frees pool
                # space so the next service round restarts from scratch
                cache.free_sequence(slot)
                request.prefilled = 0
                request.last_logits = None
                if not evict_one():
                    request.prefill_slot = None
                    free_slots.append(slot)
                    free_slots.sort()
                    return False
                return True
            seconds, breakdown = price(cost, decision)
            slo.observe_prefill_chunk(seconds)
            result.n_prefill_chunks += 1
            request.prefilled = end
            request.last_logits = logits_vec
            if request.request_id == 0:
                result.prefill_cost = cost
            attrs = dict(seconds=seconds, n_tokens=len(chunk), offset=start,
                         request=request.request_id)
            if decision is not None:
                attrs["backend"] = decision.backend
            charge("prefill_chunk", breakdown, step=step, **attrs)
            if request.prefilled >= len(request.prompt):
                request.anchor = cache.snapshot_sequence(slot)
                cache.free_sequence(slot)
                request.prefill_slot = None
                free_slots.append(slot)
                free_slots.sort()
            return True

        def pending_requests() -> bool:
            return any(r.anchor is None or r.next_local < r.n_candidates
                       for r in requests)

        def service_prefills(idle: bool = False) -> bool:
            # at most one chunk per decode step: prefill interleaves
            # with decode instead of stalling it
            if not admitting:
                return False
            for request in requests:
                if request.anchor is not None:
                    continue
                if request.at_step > step and not idle:
                    continue
                if request.prefill_slot is None:
                    if not free_slots:
                        continue
                    request.prefill_slot = free_slots.pop(0)
                return forward_chunk(request, recover=True)
            return False

        def admit() -> None:
            for request in requests:
                if not (admitting and free_slots):
                    break
                if request.anchor is None:
                    continue
                while (admitting and free_slots
                       and request.next_local < request.n_candidates):
                    slot = free_slots.pop(0)
                    cid = request.first_candidate + request.next_local
                    with obs_trace.span("scheduler.admit",
                                        category="scheduler", slot=slot,
                                        candidate=cid, step=step):
                        cache.restore_sequence(slot, request.anchor)
                        token = int(sampler.sample(request.last_logits))
                    candidate = _LiveCandidate(
                        candidate_id=cid, slot=slot, tokens=[token],
                        budget=request.budgets[request.next_local],
                        admitted_step=step,
                        admitted_sim=clock.total_seconds,
                        request_id=request.request_id)
                    request.next_local += 1
                    result.n_admissions += 1
                    self._admissions.inc()
                    if tlog.enabled:
                        wave = candidate.candidate_id // batch
                        if wave not in waves_started:
                            waves_started.add(wave)
                            tlog.emit("wave_start", clock.total_seconds,
                                      step=step, wave=wave,
                                      population=wave_population(wave))
                        tlog.emit("admit", clock.total_seconds,
                                  request_id=candidate.candidate_id,
                                  step=step, slot=slot)
                        tlog.emit("wave_assign", clock.total_seconds,
                                  request_id=candidate.candidate_id,
                                  step=step, wave=wave)
                    if ((eos_id is not None and token == eos_id)
                            or candidate.budget == 1):
                        retire(candidate, "eos" if eos_id is not None
                               and token == eos_id else "length")
                    else:
                        live[slot] = candidate

        def retire(candidate: _LiveCandidate, reason: str) -> None:
            cache.free_sequence(candidate.slot)
            live.pop(candidate.slot, None)
            free_slots.append(candidate.slot)
            joules = accountant.request_joules(candidate.candidate_id)
            finished.append(CandidateOutput(
                candidate_id=candidate.candidate_id,
                slot=candidate.slot, tokens=candidate.tokens,
                admitted_step=candidate.admitted_step,
                finished_step=step, finish_reason=reason,
                joules=joules, request_id=candidate.request_id))
            self._retired.inc()
            latency = clock.total_seconds - candidate.admitted_sim
            slo.observe_candidate(candidate.candidate_id, latency)
            if tlog.enabled:
                tlog.emit("complete", clock.total_seconds,
                          request_id=candidate.candidate_id, step=step,
                          reason=reason, tokens=len(candidate.tokens),
                          latency_seconds=latency, joules=joules)
                wave = candidate.candidate_id // batch
                wave_retired[wave] = wave_retired.get(wave, 0) + 1
                if wave_retired[wave] == wave_population(wave):
                    tlog.emit("wave_end", clock.total_seconds, step=step,
                              wave=wave, population=wave_retired[wave])

        def rebuild_live() -> None:
            # The paged cache may be in an inconsistent mid-forward
            # state after an abort; restoring the prompt anchor and
            # re-forwarding each candidate's already-sampled prefix
            # rebuilds exact KV without consuming any sampler RNG.
            for slot in sorted(live):
                candidate = live[slot]
                prefix = candidate.tokens[:-1]
                rebuild_energy = obs_energy.ZERO_ENERGY
                rebuild_seconds = 0.0
                with obs_trace.span("resilience.rebuild",
                                    category="resilience", slot=slot,
                                    candidate=candidate.candidate_id,
                                    tokens=len(prefix), step=step):
                    cache.free_sequence(slot)
                    cache.restore_sequence(
                        slot, requests[candidate.request_id].anchor)
                    if prefix:
                        cost = engine.rebuild_sequence(slot, prefix)
                        rebuild_seconds, rebuild_energy = price(cost)
                result.n_rebuilds += 1
                result.rebuilt_tokens += len(prefix)
                self._rebuilds.inc()
                charge("rebuild", rebuild_energy,
                       request_id=candidate.candidate_id, step=step,
                       tokens=len(prefix), seconds=rebuild_seconds)
            # in-flight partial prefills lost their KV too: restart them
            # from scratch on the next service round
            for request in requests:
                if (request.anchor is None
                        and request.prefill_slot is not None
                        and request.prefilled > 0):
                    cache.free_sequence(request.prefill_slot)
                    request.prefilled = 0
                    request.last_logits = None

        def evict_one() -> bool:
            if not live:
                return False
            # lowest-value candidate: least decoded progress, breaking
            # ties toward the most recently admitted (highest id)
            victim = min(live.values(),
                         key=lambda c: (len(c.tokens), -c.candidate_id))
            if tlog.enabled:
                tlog.emit("evict", clock.total_seconds,
                          request_id=victim.candidate_id, step=step,
                          tokens=len(victim.tokens))
            with obs_trace.span("resilience.evict", category="resilience",
                                candidate=victim.candidate_id,
                                slot=victim.slot, tokens=len(victim.tokens),
                                step=step):
                retire(victim, "evicted")
            result.n_evictions += 1
            self._evictions.inc()
            return True

        def degrade(reason: str) -> None:
            result.degraded = True
            with obs_trace.span("resilience.degrade", category="resilience",
                                reason=reason, live=len(live), step=step):
                for slot in sorted(live):
                    retire(live[slot], reason)

        def note_retry(kind: str, seconds: float) -> None:
            result.n_retries += 1
            self._step_retries.inc()
            obs_metrics.get_metrics().counter(
                "repro.resilience.step_retries", labels={"kind": kind}).inc()
            with obs_trace.span("resilience.retry", category="resilience",
                                kind=kind, step=step,
                                backoff_ms=seconds * 1e3):
                clock.advance(seconds)
            # backoff burns baseline power while every lane sits idle
            charge("retry", engine.energy_model.idle_energy(seconds),
                   step=step, retry_kind=kind, backoff_seconds=seconds)

        if prefill_chunk is None:
            last_logits, prefill_cost = engine.prefill(prompt, seq=0)
            decision = None
            if selector is not None:
                decision = selector.select("prefill", len(prompt),
                                           engine.governor.name)
                migrate(decision, "prefill")
            prefill_seconds, prefill_energy = price(prefill_cost, decision)
            attrs = dict(seconds=prefill_seconds, n_tokens=len(prompt))
            if selector is not None:
                attrs["backend"] = prev_backend
            charge("prefill", prefill_energy, **attrs)
            result.prefill_cost = prefill_cost
            requests[0].last_logits = last_logits
            requests[0].anchor = cache.snapshot_sequence(0)
            # slot 0 still holds the prompt tokens; the first admission
            # restores the anchor over it, which is a refcount no-op
            cache.free_sequence(0)
        else:
            # chunked main prefill: the primary prompt forwards through
            # TCM-sized windows before the run's first decode step
            requests[0].prefill_slot = free_slots.pop(0)
            while requests[0].anchor is None:
                forward_chunk(requests[0], recover=False)
        if injector is not None:
            # armed only once the serving loop (and its recovery paths)
            # owns the pool: the primary prefill is the run's
            # precondition, not a recoverable step
            cache.pool.fault_injector = injector
            injector.clock = clock

        admit()
        while live or (admitting and pending_requests()):
            if not live:
                # nothing decodable: the only useful work is servicing a
                # pending prompt (ignore at_step gates — the decode
                # timeline they were relative to has drained)
                progressed = service_prefills(idle=True)
                admit()
                if not live:
                    if not progressed:
                        break
                    continue
            arm_abort = arm_dma = arm_alloc = 0
            if injector is not None:
                if (throttle_restore_step is not None
                        and step >= throttle_restore_step):
                    engine.set_governor(base_governor)
                    throttle_restore_step = None
                    result.governor_steps.append((step, base_governor.name))
                    if tlog.enabled:
                        tlog.emit("throttle", clock.total_seconds,
                                  step=step, governor=base_governor.name,
                                  governor_level=governor_level(
                                      base_governor.name),
                                  restored=True)
                for event in injector.step_events(step):
                    if event.kind == "thermal_throttle":
                        engine.set_governor(event.governor)
                        result.governor_steps.append((step, event.governor))
                        if event.duration_steps is not None:
                            throttle_restore_step = (step
                                                     + event.duration_steps)
                        with obs_trace.span("resilience.throttle",
                                            category="resilience",
                                            governor=event.governor,
                                            step=step,
                                            duration=event.duration_steps):
                            pass
                        if tlog.enabled:
                            tlog.emit("throttle", clock.total_seconds,
                                      step=step, governor=event.governor,
                                      governor_level=governor_level(
                                          event.governor),
                                      restored=False)
                    elif event.kind == "session_abort":
                        arm_abort += 1
                    elif event.kind == "dma_timeout":
                        arm_dma += 1
                    else:  # alloc_fail
                        arm_alloc += 1
            attempt = 0
            needs_rebuild = False
            while live:
                try:
                    if arm_abort:
                        arm_abort -= 1
                        raise SessionAbortError(
                            f"injected FastRPC session abort at decode "
                            f"step {step}")
                    if arm_dma:
                        arm_dma -= 1
                        raise DMATimeoutError(
                            f"injected DMA timeout at decode step {step}")
                    if arm_alloc:
                        arm_alloc -= 1
                        raise KVPoolExhausted(
                            f"injected KV pool exhaustion at decode "
                            f"step {step}")
                    if needs_rebuild:
                        rebuild_live()
                        needs_rebuild = False
                        if not live:
                            break
                    slots = sorted(live)
                    tokens = [live[s].last_token for s in slots]
                    self._live_batch.set(len(slots))
                    with obs_trace.span(
                            "scheduler.step", category="scheduler",
                            step=step, live_batch=len(slots),
                            blocks_in_use=cache.pool.blocks_in_use):
                        logits, cost = engine.decode_step(tokens, slots)
                    decision = None
                    if selector is not None:
                        decision = selector.select("decode", len(slots),
                                                   engine.governor.name)
                        migrate(decision, "decode")
                    step_seconds, step_energy = price(cost, decision)
                    break
                except SessionAbortError:
                    attempt += 1
                    if injector is None or attempt > policy.max_retries:
                        degrade("aborted")
                        break
                    note_retry("session_abort",
                               policy.backoff(attempt - 1)
                               + policy.reopen_seconds)
                    needs_rebuild = True
                except TransientFaultError:
                    attempt += 1
                    if injector is None or attempt > policy.max_retries:
                        degrade("aborted")
                        break
                    note_retry("dma_timeout", policy.backoff(attempt - 1))
                except KVPoolExhausted:
                    attempt += 1
                    if (injector is None or attempt > policy.max_retries
                            or not evict_one()):
                        degrade("aborted")
                        break
                    needs_rebuild = True
            if not live:
                service_prefills()
                admit()
                continue
            result.decode_costs.append(cost)
            result.live_batch_per_step.append(len(slots))
            if selector is not None:
                result.backend_steps.append((step, prev_backend))
            live_ids = [live[s].candidate_id for s in slots if s in live]
            attrs = dict(seconds=step_seconds, live_batch=len(slots),
                         kv_blocks=cache.pool.blocks_in_use,
                         governor_level=governor_level(engine.governor.name),
                         live_ids=live_ids)
            if selector is not None:
                attrs["backend"] = prev_backend
            charge("decode_step", step_energy, step=step, **attrs)
            slo.observe_step(step_seconds, live_ids)
            step += 1
            next_tokens = sampler.sample_batch(logits)
            for i, slot in enumerate(slots):
                candidate = live.get(slot)
                if candidate is None:
                    continue
                token = int(next_tokens[i])
                candidate.tokens.append(token)
                if eos_id is not None and token == eos_id:
                    retire(candidate, "eos")
                elif len(candidate.tokens) >= candidate.budget:
                    retire(candidate, "length")
            if (deadline_seconds is not None
                    and clock.total_seconds - run_start >= deadline_seconds):
                result.deadline_hit = True
                admitting = False
                if tlog.enabled:
                    tlog.emit("deadline", clock.total_seconds, step=step,
                              deadline=deadline_seconds, live=len(live))
                with obs_trace.span("resilience.deadline",
                                    category="resilience", step=step,
                                    sim_seconds=clock.total_seconds,
                                    deadline=deadline_seconds):
                    degrade("deadline")
            service_prefills()
            admit()

        for request in requests:
            if request.anchor is not None:
                cache.release_snapshot(request.anchor)
            elif request.prefill_slot is not None:
                cache.free_sequence(request.prefill_slot)
        result.n_steps = step
        result.peak_kv_bytes = cache.pool.peak_bytes
        result.cow_copies = cache.pool.cow_copies
        result.sim_seconds = clock.total_seconds - run_start
        result.joules = accountant.total_j
        result.utilization = obs_energy.utilization(
            accountant.busy_s, result.sim_seconds, clock.total_seconds)
        result.prefill_joules = accountant.phase_j["prefill"]
        result.idle_joules = accountant.phase_j["idle"]

        finished.sort(key=lambda c: c.candidate_id)
        result.candidates = finished
        result.sequences = [c.tokens for c in finished]
        result.n_generated_tokens = [len(c.tokens) for c in finished]

    # ------------------------------------------------------------------
    @staticmethod
    def _budgets(n_candidates: int, max_new_tokens: int,
                 length_schedule: Optional[Sequence[int]]) -> List[int]:
        if length_schedule is None:
            return [max_new_tokens] * n_candidates
        schedule = [int(b) for b in length_schedule]
        if not schedule or any(b <= 0 for b in schedule):
            raise EngineError(
                f"length schedule entries must be positive, got {schedule}")
        return [min(schedule[i % len(schedule)], max_new_tokens)
                for i in range(n_candidates)]
