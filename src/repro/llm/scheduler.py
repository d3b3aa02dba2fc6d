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
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

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
from ..obs import context as obs_context
from ..obs import energy as obs_energy
from ..obs.slo import SLOTracker
from .engine import GenerationResult, InferenceEngine
from .sampler import Sampler

if TYPE_CHECKING:  # a caller builds these; the run only reads them
    from ..resilience.faults import FaultPlan, FaultRecord
    from .dispatch import BackendSelector

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

    def eviction_rank(self) -> Tuple[int, int]:
        # lowest-value candidate first: least decoded progress, breaking
        # ties toward the most recently admitted (highest id)
        return len(self.tokens), -self.candidate_id


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

    @classmethod
    def checked(cls, request_id: int, spec: PromptAdmission,
                first_candidate: int, max_context: int,
                length_schedule: Optional[Sequence[int]] = None
                ) -> "_Request":
        """Check one prompt, primary (id 0) or admitted, and build it."""
        what = "prompt" if request_id == 0 else f"admitted prompt {request_id}"
        prompt = list(spec.prompt)
        if not prompt:
            raise EngineError(f"{what}: prompts must be non-empty")
        for name, value, least in (("candidate count", spec.n_candidates, 1),
                                   ("max_new_tokens", spec.max_new_tokens, 1),
                                   ("at_step", spec.at_step, 0)):
            if value < least:
                raise EngineError(
                    f"{what}: {name} must be >= {least}, got {value}")
        if len(prompt) + spec.max_new_tokens > max_context:
            raise EngineError(
                f"{what}: {len(prompt)} + {spec.max_new_tokens} new tokens "
                f"exceed context {max_context}")
        schedule = ([spec.max_new_tokens] if length_schedule is None
                    else [int(b) for b in length_schedule])
        if not schedule or any(b <= 0 for b in schedule):
            raise EngineError(
                f"length schedule entries must be positive, got {schedule}")
        budgets = [min(schedule[i % len(schedule)], spec.max_new_tokens)
                   for i in range(spec.n_candidates)]
        return cls(request_id=request_id, prompt=prompt,
                   n_candidates=spec.n_candidates, budgets=budgets,
                   first_candidate=first_candidate, at_step=spec.at_step)


#: Injected decode-step faults in the order one step raises them: the
#: fault kind, the error it raises and the words of its message.
_STEP_FAULTS = (("session_abort", SessionAbortError, "FastRPC session abort"),
                ("dma_timeout", DMATimeoutError, "DMA timeout"),
                ("alloc_fail", KVPoolExhausted, "KV pool exhaustion"))


class ContinuousBatchingScheduler:
    """Waved Best-of-N decode over an engine with a paged KV cache."""

    def __init__(self, engine: InferenceEngine) -> None:
        if engine.kv_backend != "paged":
            raise EngineError(
                "the continuous-batching scheduler requires an engine with "
                f"kv_backend='paged' (got {engine.kv_backend!r})")
        self.engine = engine

    def generate(self, prompt: Sequence[int], n_candidates: int,
                 max_new_tokens: int, sampler: Optional[Sampler] = None,
                 eos_id: Optional[int] = None,
                 length_schedule: Optional[Sequence[int]] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 deadline_seconds: Optional[float] = None,
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
        the engine's DVFS governor for ``duration_steps``.  Retries
        follow the default :class:`RetryPolicy`.  An empty or ``None``
        plan leaves the decode loop bitwise identical to the
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
        if prefill_chunk is not None and prefill_chunk <= 0:
            raise EngineError(
                f"prefill_chunk must be positive, got {prefill_chunk}")
        requests: List[_Request] = []
        first_candidate = 0
        for spec in [PromptAdmission(prompt, n_candidates, max_new_tokens),
                     *(admissions or ())]:
            requests.append(_Request.checked(
                len(requests), spec, first_candidate, engine.max_context,
                length_schedule if not requests else None))
            first_candidate += spec.n_candidates
        if dispatch is not None and dispatch.config != engine.model.config:
            raise EngineError(
                "dispatch selector was built for a different model config "
                "than the engine's")
        run = _Run(engine, requests,
                   sampler if sampler is not None else Sampler(temperature=0.8),
                   eos_id, fault_plan, deadline_seconds,
                   clock if clock is not None else SimClock(),
                   prefill_chunk, dispatch)
        with run.tracer.span("scheduler.generate", category="scheduler",
                             prompt_tokens=len(requests[0].prompt),
                             n_candidates=n_candidates, batch=engine.batch,
                             max_new_tokens=max_new_tokens):
            return run.serve()


class _Run:
    """One ``generate`` call: the run's state, one method per phase.

    :meth:`serve` drives prefill and chunk service, admission, decode
    steps with their retry ladder, recovery, the deadline and the
    end-of-run release.  Every serving fact goes once through
    :meth:`_record` to the sinks bound when the run starts.
    """

    def __init__(self, engine: InferenceEngine, requests: List[_Request],
                 sampler: Sampler, eos_id: Optional[int],
                 fault_plan: Optional[FaultPlan],
                 deadline_seconds: Optional[float], clock: SimClock,
                 prefill_chunk: Optional[int],
                 selector: Optional[BackendSelector]) -> None:
        # an empty plan arms nothing: the run is the plain path, bitwise,
        # and loads no resilience module
        self.injector = self.retry = None
        if fault_plan:
            from ..resilience.faults import FaultInjector
            from ..resilience.recovery import RetryPolicy

            self.injector = FaultInjector(fault_plan)
            # the retry ladder: capped exponential backoff, a session
            # reopen after an abort, max_retries attempts per decode step
            self.retry = RetryPolicy()
        engine.reset()
        self.engine = engine
        self.cache = engine.cache
        self.batch = engine.batch
        self.requests = requests
        self.sampler = sampler
        self.eos_id = eos_id
        self.deadline_seconds = deadline_seconds
        self.clock = clock
        self.prefill_chunk = prefill_chunk
        self.selector = selector
        self.result = ScheduledGeneration(
            sequences=[], prefill_cost=None,
            prompt_tokens=len(requests[0].prompt),
            n_prompt_admissions=len(requests) - 1)
        # the sinks every fact goes to, bound once for the whole run
        self.tracer, self.registry, self.log = obs_context.current()
        self.slo = SLOTracker(self.registry, engine_batch=engine.batch)
        self.accountant = obs_energy.EnergyAccountant()
        self.step_latency = engine.bind_metrics()
        counter = self.registry.counter
        self.admission_count = counter("repro.scheduler.admissions")
        self.retire_count = counter("repro.scheduler.retired")
        self.live_batch = self.registry.gauge("repro.scheduler.live_batch")
        self.retry_count = counter("repro.resilience.step_retries")
        self.eviction_count = counter("repro.resilience.evictions")
        self.rebuild_count = counter("repro.resilience.rebuilds")
        # An injected clock may already carry earlier requests' time;
        # deadline and sim_seconds are relative to this run's start.
        self.run_start = clock.total_seconds
        self.base_governor = engine.governor
        self.free_slots = list(range(engine.batch))
        self.live: Dict[int, _LiveCandidate] = {}
        self.finished: List[CandidateOutput] = []
        # every candidate id is known up front, so wave populations are
        # too: wave k opens at its first admission and closes when its
        # last member retires
        self.total_candidates = (requests[-1].first_candidate
                                 + requests[-1].n_candidates)
        self.waves_started: set = set()
        self.wave_retired: Dict[int, int] = {}
        self.step = 0
        self.admitting = True
        self.restore_step: Optional[int] = None
        # the simulated NPU is the reference backend: all costs come out
        # of the TimingModel's NPU path, and the dispatcher scales them
        self.backend = "npu"

    def serve(self) -> ScheduledGeneration:
        """Run every phase to the end of the run and return its result."""
        try:
            for cid in range(self.total_candidates):
                self._record("queue", request_id=cid, wave=cid // self.batch)
            self._prefill_primary()
            if self.injector is not None:
                # armed only once the serving loop (and its recovery
                # paths) owns the pool: the primary prefill is the run's
                # precondition, not a recoverable step
                self.cache.pool.fault_injector = self.injector
                self.injector.clock = self.clock
            self._admit()
            while self.live or (self.admitting and self._pending()):
                if not self.live:
                    # nothing decodable: the only useful work is
                    # servicing a pending prompt (ignore at_step gates —
                    # the decode timeline they were relative to drained)
                    progressed = self._service_prefills(idle=True)
                    self._admit()
                    if self.live or progressed:
                        continue
                    break
                self._decode()
                self._service_prefills()
                self._admit()
            self._release()
        finally:
            if self.injector is not None:
                self.cache.pool.fault_injector = None
                self.engine.set_governor(self.base_governor)
        return self.result

    def _record(self, kind: str, request_id: Optional[int] = None,
                step: Optional[int] = None, **attrs) -> None:
        """Record one serving fact once, into every sink: the energy
        ledger (a charging kind's attrs end with its joules and lane
        seconds), the SLO histograms, and the event log when armed."""
        self.accountant.charge(kind, attrs, request_id)
        self.slo.fold(kind, attrs)
        if self.log.enabled:
            self.log.emit(kind, self.clock.total_seconds,
                          request_id=request_id, step=step, **attrs)

    def _place(self, stage: str, size: int):
        """Pick the backend for one stage run (``None`` without a
        selector: all NPU).  A backend change drags the live KV state
        across the rpcmem boundary (clean/invalidate + DRAM copy)."""
        if self.selector is None:
            return None
        decision = self.selector.select(stage, size,
                                        self.engine.governor.name)
        if decision.backend != self.backend:
            from .placement import crossing_for_bytes

            tokens_cached = sum(self.cache.sequence_length(s)
                                for s in range(self.batch))
            config = self.engine.model.config
            kv_bytes = tokens_cached * config.n_layers * 2 * config.kv_dim * 2
            seconds = crossing_for_bytes(self.selector.device, kv_bytes)
            self.clock.advance(seconds)
            self.result.migration_seconds += seconds
            self.result.n_backend_switches += 1
            idle = self.engine.energy_model.idle_energy(seconds)
            self._record("backend_switch", step=self.step, stage=stage,
                         backend_from=self.backend,
                         backend_to=decision.backend, crossing_seconds=seconds,
                         kv_bytes=kv_bytes, **idle.charge_attrs())
            self.backend = decision.backend
        return decision

    def _price(self, cost, decision=None, latency=None
               ) -> "Tuple[float, obs_energy.EnergyBreakdown]":
        """The one place a forward becomes simulated seconds, joules and
        lane-busy seconds.  ``latency`` observes the NPU-priced seconds;
        an off-NPU backend then scales them by its modeled ratio, draws
        no NPU dynamic power and keeps only the CPU lane busy."""
        seconds = self.engine.step_seconds(cost)
        if latency is not None:
            latency.observe(seconds)
        if decision is None or decision.backend == "npu":
            self.clock.advance(seconds)
            return seconds, self.engine.step_energy(cost, seconds)
        seconds *= decision.npu_ratio
        self.clock.advance(seconds)
        return seconds, self.engine.offloaded_step_energy(seconds)

    def _charge(self, kind: str, cost, decision, step: Optional[int] = None,
                latency=None, **attrs) -> None:
        """Price one placed forward and record it: its seconds lead the
        event's attrs and the backend that ran it (with a selector)
        closes them."""
        seconds, energy = self._price(cost, decision, latency)
        if decision is not None:
            attrs["backend"] = decision.backend
        self._record(kind, step=step, seconds=seconds, **attrs,
                     **energy.charge_attrs())

    def _prefill_primary(self) -> None:
        request = self.requests[0]
        if self.prefill_chunk is not None:
            # chunked main prefill: the primary prompt forwards through
            # TCM-sized windows before the run's first decode step
            request.prefill_slot = self.free_slots.pop(0)
            while request.anchor is None:
                self._forward_chunk(request, recover=False)
            return
        logits, cost = self.engine.prefill(request.prompt, seq=0)
        decision = self._place("prefill", len(request.prompt))
        self._charge("prefill", cost, decision, n_tokens=len(request.prompt))
        self.result.prefill_cost = cost
        request.last_logits = logits
        request.anchor = self.cache.snapshot_sequence(0)
        # slot 0 still holds the prompt tokens; the first admission
        # restores the anchor over it, which is a refcount no-op
        self.cache.free_sequence(0)

    def _forward_chunk(self, request: _Request, recover: bool) -> bool:
        """One prompt window through the model; True when a chunk
        landed or an eviction freed pool space for the retry."""
        slot = request.prefill_slot
        start = request.prefilled
        end = len(request.prompt) if self.prefill_chunk is None \
            else min(start + self.prefill_chunk, len(request.prompt))
        chunk = request.prompt[start:end]
        decision = self._place("prefill", len(chunk))
        try:
            logits, cost = self.engine.prefill_chunk(chunk, seq=slot)
        except KVPoolExhausted:
            if not recover:
                raise
            # roll the partial prefill back; eviction frees pool space
            # so the next service round restarts from scratch
            self.cache.free_sequence(slot)
            request.prefilled = 0
            request.last_logits = None
            if self._evict_one():
                return True
            self._free_prefill_slot(request)
            return False
        self._charge("prefill_chunk", cost, decision, step=self.step,
                     n_tokens=len(chunk), offset=start,
                     request=request.request_id)
        self.result.n_prefill_chunks += 1
        request.prefilled = end
        request.last_logits = logits
        if request.request_id == 0:
            self.result.prefill_cost = cost
        if request.prefilled >= len(request.prompt):
            request.anchor = self.cache.snapshot_sequence(slot)
            self.cache.free_sequence(slot)
            self._free_prefill_slot(request)
        return True

    def _free_prefill_slot(self, request: _Request) -> None:
        self.free_slots.append(request.prefill_slot)
        self.free_slots.sort()
        request.prefill_slot = None

    def _pending(self) -> bool:
        return any(r.anchor is None or r.next_local < r.n_candidates
                   for r in self.requests)

    def _service_prefills(self, idle: bool = False) -> bool:
        """Forward at most one chunk per decode step, so prefill
        interleaves with decode instead of stalling it."""
        if not self.admitting:
            return False
        for request in self.requests:
            if request.anchor is not None:
                continue
            if request.at_step > self.step and not idle:
                continue
            if request.prefill_slot is None:
                if not self.free_slots:
                    continue
                request.prefill_slot = self.free_slots.pop(0)
            return self._forward_chunk(request, recover=True)
        return False

    def _admit(self) -> None:
        """Fill free slots from prefilled requests, in request order."""
        if not self.admitting:
            return
        for request in self.requests:
            if not self.free_slots:
                break
            if request.anchor is None:
                continue
            while (self.free_slots
                   and request.next_local < request.n_candidates):
                slot = self.free_slots.pop(0)
                cid = request.first_candidate + request.next_local
                with self.tracer.span("scheduler.admit", category="scheduler",
                                      slot=slot, candidate=cid,
                                      step=self.step):
                    self.cache.restore_sequence(slot, request.anchor)
                    token = int(self.sampler.sample(request.last_logits))
                candidate = _LiveCandidate(
                    candidate_id=cid, slot=slot, tokens=[token],
                    budget=request.budgets[request.next_local],
                    admitted_step=self.step,
                    admitted_sim=self.clock.total_seconds,
                    request_id=request.request_id)
                request.next_local += 1
                self.result.n_admissions += 1
                self.admission_count.inc()
                wave = cid // self.batch
                if wave not in self.waves_started:
                    self.waves_started.add(wave)
                    self._record("wave_start", step=self.step, wave=wave,
                                 population=self._wave_population(wave))
                self._record("admit", request_id=cid, step=self.step,
                             slot=slot)
                self._record("wave_assign", request_id=cid, step=self.step,
                             wave=wave)
                reason = self._finish_reason(candidate)
                if reason is not None:
                    self._retire(candidate, reason)
                else:
                    self.live[slot] = candidate

    def _finish_reason(self, candidate: _LiveCandidate) -> Optional[str]:
        if self.eos_id is not None and candidate.tokens[-1] == self.eos_id:
            return "eos"
        if len(candidate.tokens) >= candidate.budget:
            return "length"
        return None

    def _wave_population(self, wave: int) -> int:
        return min(self.batch, self.total_candidates - wave * self.batch)

    def _retire(self, candidate: _LiveCandidate, reason: str) -> None:
        cid = candidate.candidate_id
        self.cache.free_sequence(candidate.slot)
        self.live.pop(candidate.slot, None)
        self.free_slots.append(candidate.slot)
        joules = self.accountant.request_joules(cid)
        self.finished.append(CandidateOutput(
            candidate_id=cid, slot=candidate.slot, tokens=candidate.tokens,
            admitted_step=candidate.admitted_step, finished_step=self.step,
            finish_reason=reason, joules=joules,
            request_id=candidate.request_id))
        self.retire_count.inc()
        self._record("complete", request_id=cid, step=self.step,
                     reason=reason, tokens=len(candidate.tokens),
                     latency_seconds=(self.clock.total_seconds
                                      - candidate.admitted_sim),
                     joules=joules)
        wave = cid // self.batch
        retired = self.wave_retired[wave] = self.wave_retired.get(wave, 0) + 1
        if retired == self._wave_population(wave):
            self._record("wave_end", step=self.step, wave=wave,
                         population=retired)

    def _decode(self) -> None:
        """One decode step: faults, forward and retry ladder, charge,
        sampling and the deadline; nothing when the ladder left no
        candidate live."""
        landed = self._forward_with_retries(self._step_faults())
        if landed is None:
            return
        slots, logits, cost, decision = landed
        self.result.decode_costs.append(cost)
        self.result.live_batch_per_step.append(len(slots))
        if decision is not None:
            self.result.backend_steps.append((self.step, decision.backend))
        self._charge("decode_step", cost, decision, step=self.step,
                     latency=self.step_latency, live_batch=len(slots),
                     kv_blocks=self.cache.pool.blocks_in_use,
                     governor_level=governor_level(self.engine.governor.name),
                     live_ids=[self.live[s].candidate_id for s in slots])
        self.step += 1
        for slot, token in zip(slots, self.sampler.sample_batch(logits)):
            candidate = self.live[slot]
            candidate.tokens.append(int(token))
            reason = self._finish_reason(candidate)
            if reason is not None:
                self._retire(candidate, reason)
        self._check_deadline()

    def _step_faults(self) -> List[Exception]:
        """Restore an expired throttle and apply this step's throttles;
        return the step's injected faults, in the order they raise."""
        if self.injector is None:
            return []
        if self.restore_step is not None and self.step >= self.restore_step:
            self.restore_step = None
            self._govern(self.base_governor, restored=True)
        kinds = []
        for event in self.injector.step_events(self.step):
            if event.kind != "thermal_throttle":
                kinds.append(event.kind)
                continue
            self._govern(event.governor, restored=False)
            if event.duration_steps is not None:
                self.restore_step = self.step + event.duration_steps
            with self.tracer.span("resilience.throttle", category="resilience",
                                  governor=event.governor, step=self.step,
                                  duration=event.duration_steps):
                pass
        return [error(f"injected {what} at decode step {self.step}")
                for kind, error, what in _STEP_FAULTS
                for _ in range(kinds.count(kind))]

    def _forward_with_retries(self, armed: List[Exception]):
        """The step's forward, retried through injected and real faults:
        ``(slots, logits, cost, decision)`` once one lands, or ``None``
        when nothing is left live to decode."""
        attempt = 0
        rebuild = False
        while self.live:
            try:
                if armed:
                    raise armed.pop(0)
                if rebuild:
                    self._rebuild_live()
                    rebuild = False
                slots = sorted(self.live)
                tokens = [self.live[s].tokens[-1] for s in slots]
                self.live_batch.set(len(slots))
                with self.tracer.span(
                        "scheduler.step", category="scheduler",
                        step=self.step, live_batch=len(slots),
                        blocks_in_use=self.cache.pool.blocks_in_use):
                    logits, cost = self.engine.decode_step(tokens, slots)
                return slots, logits, cost, self._place("decode", len(slots))
            except (SessionAbortError, TransientFaultError,
                    KVPoolExhausted) as error:
                attempt += 1
                if not self._recover(error, attempt):
                    self._degrade("aborted")
                    return None
                # a lost session or an eviction leaves the KV to rebuild
                rebuild = rebuild or not isinstance(error, TransientFaultError)
        return None

    def _recover(self, error: Exception, attempt: int) -> bool:
        """The ladder's answer to a failed attempt: evict for a full
        pool, else back off (and reopen the session after an abort).
        False past the retry budget, without a fault plan, or with
        nothing left to evict."""
        if self.retry is None or attempt > self.retry.max_retries:
            return False
        if isinstance(error, KVPoolExhausted):
            return self._evict_one()
        kind = "dma_timeout"
        seconds = self.retry.backoff(attempt - 1)
        if isinstance(error, SessionAbortError):
            kind = "session_abort"
            seconds += self.retry.reopen_seconds
        self.result.n_retries += 1
        self.retry_count.inc()
        self.registry.counter("repro.resilience.step_retries",
                              labels={"kind": kind}).inc()
        with self.tracer.span("resilience.retry", category="resilience",
                              kind=kind, step=self.step,
                              backoff_ms=seconds * 1e3):
            self.clock.advance(seconds)
        # backoff burns baseline power while every lane sits idle
        idle = self.engine.energy_model.idle_energy(seconds)
        self._record("retry", step=self.step, retry_kind=kind,
                     backoff_seconds=seconds, **idle.charge_attrs())
        return True

    def _rebuild_live(self) -> None:
        """Rebuild every live candidate's KV after an abort or eviction:
        restoring the prompt anchor and re-forwarding each candidate's
        sampled prefix rebuilds exact KV without consuming sampler RNG."""
        for slot in sorted(self.live):
            candidate = self.live[slot]
            prefix = candidate.tokens[:-1]
            energy = obs_energy.ZERO_ENERGY
            seconds = 0.0
            with self.tracer.span("resilience.rebuild", category="resilience",
                                  slot=slot, candidate=candidate.candidate_id,
                                  tokens=len(prefix), step=self.step):
                self.cache.free_sequence(slot)
                self.cache.restore_sequence(
                    slot, self.requests[candidate.request_id].anchor)
                if prefix:
                    seconds, energy = self._price(
                        self.engine.rebuild_sequence(slot, prefix))
            self.result.n_rebuilds += 1
            self.result.rebuilt_tokens += len(prefix)
            self.rebuild_count.inc()
            self._record("rebuild", request_id=candidate.candidate_id,
                         step=self.step, tokens=len(prefix), seconds=seconds,
                         **energy.charge_attrs())
        # in-flight partial prefills lost their KV too: restart them
        # from scratch on the next service round
        for request in self.requests:
            if (request.anchor is None and request.prefill_slot is not None
                    and request.prefilled > 0):
                self.cache.free_sequence(request.prefill_slot)
                request.prefilled = 0
                request.last_logits = None

    def _evict_one(self) -> bool:
        if not self.live:
            return False
        victim = min(self.live.values(), key=_LiveCandidate.eviction_rank)
        self._record("evict", request_id=victim.candidate_id, step=self.step,
                     tokens=len(victim.tokens))
        with self.tracer.span("resilience.evict", category="resilience",
                              candidate=victim.candidate_id, slot=victim.slot,
                              tokens=len(victim.tokens), step=self.step):
            self._retire(victim, "evicted")
        self.result.n_evictions += 1
        self.eviction_count.inc()
        return True

    def _degrade(self, reason: str) -> None:
        self.result.degraded = True
        with self.tracer.span("resilience.degrade", category="resilience",
                              reason=reason, live=len(self.live),
                              step=self.step):
            for slot in sorted(self.live):
                self._retire(self.live[slot], reason)

    def _govern(self, governor, restored: bool) -> None:
        """Move the engine to ``governor`` — a throttle, or the restore
        of the run's base governor — and record the change."""
        self.engine.set_governor(governor)
        name = self.engine.governor.name
        self.result.governor_steps.append((self.step, name))
        self._record("throttle", step=self.step, governor=name,
                     governor_level=governor_level(name), restored=restored)

    def _check_deadline(self) -> None:
        if (self.deadline_seconds is None
                or self.clock.total_seconds - self.run_start
                < self.deadline_seconds):
            return
        self.result.deadline_hit = True
        self.admitting = False
        self._record("deadline", step=self.step,
                     deadline=self.deadline_seconds, live=len(self.live))
        with self.tracer.span("resilience.deadline", category="resilience",
                              step=self.step,
                              sim_seconds=self.clock.total_seconds,
                              deadline=self.deadline_seconds):
            self._degrade("deadline")

    def _release(self) -> None:
        """Release the prompt anchors and unfinished prefill slots, check
        conservation and KV no-leak, and fill in the result."""
        for request in self.requests:
            if request.anchor is not None:
                self.cache.release_snapshot(request.anchor)
            elif request.prefill_slot is not None:
                self.cache.free_sequence(request.prefill_slot)
        result = self.result
        finished = self.finished
        distinct = len({c.candidate_id for c in finished})
        if len(finished) != result.n_admissions or distinct != len(finished):
            raise EngineError(
                f"candidate conservation broken: {len(finished)} finished "
                f"({distinct} distinct ids) for {result.n_admissions} "
                "admitted")
        pool = self.cache.pool
        if pool.blocks_in_use:
            raise EngineError(
                f"KV leak: {pool.blocks_in_use} blocks ({pool.used_bytes} "
                "bytes) still in use after the run released its prompt "
                "anchors and prefill slots")
        result.n_steps = self.step
        result.peak_kv_bytes = pool.peak_bytes
        result.cow_copies = pool.cow_copies
        result.sim_seconds = self.clock.total_seconds - self.run_start
        result.joules = self.accountant.total_j
        result.utilization = obs_energy.utilization(
            self.accountant.busy_s, result.sim_seconds,
            self.clock.total_seconds)
        result.prefill_joules = self.accountant.phase_j["prefill"]
        result.idle_joules = self.accountant.phase_j["idle"]
        if self.injector is not None:
            result.faults = list(self.injector.injected)
        finished.sort(key=attrgetter("candidate_id"))
        result.candidates = finished
        result.sequences = [c.tokens for c in finished]
        result.n_generated_tokens = [len(c.tokens) for c in finished]
