"""Inference engine: prefill/decode scheduling and device placement.

Mirrors the paper's system structure (§6): the NPU runs projection GEMMs
and attention; the CPU keeps embeddings and the lm_head; rpcmem shared
buffers hold weights, KV cache and activations, all charged against the
NPU session's virtual address space (which is what prevents 3B-parameter
models from running on Snapdragon 8 Gen 2 — §7.2.1/7.2.2).

The engine supports the batched decode that test-time scaling needs:
one shared-prompt prefill, a fork into N candidate sequences, then
lock-step batch decode where each step is a single batch-N forward pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import EngineError
from ..npu.memory import MultiSessionHeap, RpcMemHeap
from ..npu.power_mgmt import GOVERNORS, PowerGovernor, apply_governor
from ..npu.soc import DEFAULT_DEVICE, DEVICES, Device
from ..npu.timing import TimingModel
from ..obs import energy as obs_energy
from ..obs import metrics as obs_metrics
from ..obs import timeline as obs_timeline
from ..obs import trace as obs_trace
from .kv_cache import KVCache
from .model import NPUTransformer, StepCost
from .sampler import Sampler

__all__ = ["GenerationResult", "InferenceEngine"]

@dataclass
class GenerationResult:
    """Tokens plus cost bookkeeping for one generation call."""

    sequences: List[List[int]]
    prefill_cost: StepCost
    decode_costs: List[StepCost] = field(default_factory=list)
    n_generated_tokens: List[int] = field(default_factory=list)
    prompt_tokens: int = 0
    sim_seconds: float = 0.0
    joules: float = 0.0

    @property
    def n_decode_steps(self) -> int:
        return len(self.decode_costs)

    @property
    def tokens_per_joule(self) -> float:
        """Sampled tokens per simulated joule (0.0 when unmetered)."""
        return obs_energy.tokens_per_joule(self.total_generated_tokens,
                                           self.joules)

    @property
    def total_generated_tokens(self) -> int:
        """Sampled tokens across all candidate sequences."""
        return sum(self.n_generated_tokens)

    def tokens_per_candidate(self) -> List[int]:
        """Sampled-token count of each candidate sequence, in slot order.

        Falls back to sequence lengths when the per-sequence counts were
        not recorded (results built by hand in tests); hand-built
        sequences may include the prompt, so ``prompt_tokens`` is
        subtracted in the fallback to keep cost accounting honest.
        """
        if self.n_generated_tokens:
            return list(self.n_generated_tokens)
        return [max(len(seq) - self.prompt_tokens, 0)
                for seq in self.sequences]


class InferenceEngine:
    """Drives an :class:`NPUTransformer` through prefill and batch decode.

    ``device`` (default :data:`~repro.npu.soc.DEFAULT_DEVICE`) is the only
    source of simulated time: its NPU :class:`TimingModel` prices each
    step's kernels and its CPU model prices the lm_head GEMMs.
    """

    def __init__(self, model: NPUTransformer, batch: int, max_context: int,
                 device: Device = DEVICES[DEFAULT_DEVICE], n_sessions: int = 1,
                 kv_backend: str = "contiguous", kv_dtype: str = "fp16",
                 kv_block_size: int = 16) -> None:
        if batch <= 0 or max_context <= 0:
            raise EngineError(
                f"batch/context must be positive, got {batch}/{max_context}")
        if n_sessions <= 0:
            raise EngineError(f"need at least one NPU session, got {n_sessions}")
        if kv_backend not in ("contiguous", "paged"):
            raise EngineError(
                f"unknown KV backend {kv_backend!r}; "
                "expected 'contiguous' or 'paged'")
        self.model = model
        self.batch = batch
        self.max_context = max_context
        self.device = device
        self.n_sessions = n_sessions
        self.kv_backend = kv_backend
        self.kv_dtype = kv_dtype
        self.kv_block_size = kv_block_size
        self.cache = self._build_cache()
        self.heap = self._map_buffers(device)
        self.governor: PowerGovernor = GOVERNORS["performance"]
        self._timing = TimingModel(device.npu)
        # deferred import: perf.power pulls in the latency model stack,
        # which imports llm.config — importing it at module scope would
        # cycle back into this package
        from ..perf.power import PowerBudget
        self.energy_model = obs_energy.EnergyModel(PowerBudget(),
                                                   self._timing)
        reg = obs_metrics.get_metrics()
        self._tokens_counter = reg.counter("repro.engine.generated_tokens")
        self._step_latency = reg.histogram("repro.engine.decode_step_seconds")
        self._tokens_per_second = reg.gauge("repro.engine.tokens_per_second")

    def _map_buffers(self, device: Device) -> MultiSessionHeap:
        """Map weights, KV cache and workspace into the NPU VA space.

        Raises :class:`~repro.errors.AddressSpaceError` when a session
        does not fit — the 8 Gen 2 failure mode for >= 3B models.  With
        ``n_sessions > 1`` the weights and KV cache shard across sessions
        (the paper's §8c mitigation).
        """
        cfg = self.model.config
        heap = MultiSessionHeap(self.n_sessions, device.npu.npu_va_space_bytes)
        heap.alloc_sharded(cfg.npu_weight_bytes(), name=f"{cfg.name}-weights")
        heap.alloc_sharded(cfg.kv_cache_bytes(self.max_context, self.batch),
                           name=f"{cfg.name}-kv")
        for i in range(self.n_sessions):
            heap.sessions[i].alloc(cfg.NPU_WORKSPACE_BYTES,
                                   name=f"workspace[{i}]")
        return heap

    # ------------------------------------------------------------------
    def _build_cache(self):
        if self.kv_backend == "paged":
            return self.model.new_paged_cache(
                self.batch, self.max_context, dtype=self.kv_dtype,
                block_size=self.kv_block_size)
        return self.model.new_cache(self.batch, self.max_context,
                                    dtype=self.kv_dtype)

    def reset(self) -> None:
        """Drop all cached sequences."""
        self.cache = self._build_cache()

    def set_governor(self, governor: "PowerGovernor | str") -> PowerGovernor:
        """Move the NPU session to a DVFS operating point (§7.2.3).

        Thermal throttling events force the governor down; the timing
        model is rebuilt from the rescaled generation parameters so
        every subsequent step cost reflects the lower clock.  Returns
        the governor that was active before the change.
        """
        previous = self.governor
        if isinstance(governor, str):
            if governor not in GOVERNORS:
                raise EngineError(
                    f"unknown governor {governor!r}; "
                    f"known: {sorted(GOVERNORS)}")
            governor = GOVERNORS[governor]
        self.governor = governor
        self._timing = TimingModel(apply_governor(self.device.npu, governor))
        self.energy_model.timing = self._timing
        return previous

    def _cpu_seconds(self, cost: StepCost) -> float:
        """CPU time of a step's lm_head GEMMs."""
        return sum(self.device.cpu.gemm_seconds(m, k, n)
                   for m, k, n in cost.cpu_gemms)

    def step_seconds(self, cost: StepCost) -> float:
        """Simulated latency of one forward under the active governor."""
        return self._timing.seconds(cost.npu) + self._cpu_seconds(cost)

    def step_energy(self, cost: Optional[StepCost],
                    step_seconds: float) -> "obs_energy.EnergyBreakdown":
        """Simulated joules of one step under the active governor.

        Per-engine seconds come from the (possibly throttled) timing
        model; the governor's ``power_scale`` discounts the dynamic NPU
        terms so a throttled step is slower *and* cheaper per second,
        as the DVFS ladder intends.
        """
        return self.energy_model.step_energy(
            cost.npu if cost is not None else None,
            self._cpu_seconds(cost) if cost is not None else 0.0,
            step_seconds, power_scale=self.governor.power_scale)

    def prefill(self, prompt: Sequence[int], seq: int = 0) -> "tuple[np.ndarray, StepCost]":
        """Run the prompt through sequence slot ``seq``.

        Returns the logits of the *last* prompt token and the step cost.
        """
        prompt = list(prompt)
        if not prompt:
            raise EngineError("cannot prefill an empty prompt")
        if len(prompt) + 1 > self.max_context:
            raise EngineError(
                f"prompt of {len(prompt)} tokens exceeds context {self.max_context}")
        tokens = np.asarray(prompt, dtype=np.int64)[np.newaxis, :]
        with obs_trace.span("engine.prefill", category="engine",
                            n_tokens=len(prompt), seq=seq) as sp:
            logits, cost = self.model.forward(tokens, self.cache,
                                              sequences=[seq],
                                              stable_lm_head=True)
            sp.set(cpu_seconds=self._cpu_seconds(cost))
        return logits[0, -1], cost

    def prefill_chunk(self, chunk: Sequence[int], seq: int = 0
                      ) -> "tuple[np.ndarray, StepCost]":
        """Run one prompt chunk through slot ``seq``, continuing the slot.

        Chunked prefill feeds a long prompt through the TCM-sized
        windows the pipeline actually processes.  RoPE positions come
        from the slot's current cached length, so running a prompt as
        one call or as consecutive chunks computes the *same* per-token
        forward passes — the bitwise parity the ``prefill.chunked``
        oracle locks down.  Returns the logits of the chunk's last
        token and the chunk's step cost.
        """
        chunk = list(chunk)
        if not chunk:
            raise EngineError("cannot prefill an empty chunk")
        cached = self.cache.sequence_length(seq)
        if cached + len(chunk) + 1 > self.max_context:
            raise EngineError(
                f"chunk of {len(chunk)} tokens on {cached} cached exceeds "
                f"context {self.max_context}")
        tokens = np.asarray(chunk, dtype=np.int64)[np.newaxis, :]
        with obs_trace.span("engine.prefill_chunk", category="engine",
                            n_tokens=len(chunk), seq=seq,
                            cached=cached) as sp:
            logits, cost = self.model.forward(tokens, self.cache,
                                              sequences=[seq],
                                              stable_lm_head=True)
            sp.set(cpu_seconds=self._cpu_seconds(cost))
        return logits[0, -1], cost

    def offloaded_step_energy(self, step_seconds: float
                              ) -> "obs_energy.EnergyBreakdown":
        """Joules of a step whose compute ran off-NPU (CPU/GPU dispatch).

        The NPU's dynamic DMA/HMX/HVX terms are zero; the platform base
        power plus a fully-busy CPU term cover the step, so dispatching
        a stage off the NPU changes the energy attribution along with
        the latency.
        """
        return self.energy_model.step_energy(
            None, step_seconds, step_seconds,
            power_scale=self.governor.power_scale)

    def fork_prompt(self, source: int = 0,
                    targets: Optional[List[int]] = None) -> None:
        """Share one prefilled prompt across candidate slots."""
        if targets is None:
            targets = [i for i in range(self.batch) if i != source]
        self.cache.fork(source, targets)

    def rebuild_sequence(self, slot: int, tokens: Sequence[int]
                         ) -> Optional[StepCost]:
        """Recompute the KV entries of already-sampled tokens (recovery).

        After a session abort destroys NPU-side KV state, the scheduler
        restores the prompt prefix from a block-pool snapshot and calls
        this to re-prefill the candidate's decoded tokens into ``slot``.
        The forward pass is deterministic, so the rebuilt KV continues
        the sequence exactly; the sampler is never consulted (the
        tokens are already chosen).  Returns the re-prefill cost, or
        ``None`` when there is nothing to rebuild.
        """
        tokens = [int(t) for t in tokens]
        if not tokens:
            return None
        token_arr = np.asarray(tokens, dtype=np.int64)[np.newaxis, :]
        with obs_trace.span("engine.rebuild_sequence", category="engine",
                            slot=slot, n_tokens=len(tokens)) as sp:
            _, cost = self.model.forward(token_arr, self.cache,
                                         sequences=[slot])
            sp.set(cpu_seconds=self._cpu_seconds(cost))
        return cost

    def decode_step(self, tokens: Sequence[int],
                    sequences: Optional[List[int]] = None
                    ) -> "tuple[np.ndarray, StepCost]":
        """One lock-step decode: one new token per listed sequence.

        Returns ``(batch, vocab)`` logits and the step cost.  This is the
        workload whose batch dimension rides the idle HMX capacity.
        """
        token_arr = np.asarray(list(tokens), dtype=np.int64)[:, np.newaxis]
        with obs_trace.span("engine.decode_step", category="engine",
                            batch=token_arr.shape[0]) as sp:
            logits, cost = self.model.forward(token_arr, self.cache,
                                              sequences=sequences)
            sp.set(cpu_seconds=self._cpu_seconds(cost))
        self._step_latency.observe(self.step_seconds(cost))
        return logits[:, 0, :], cost

    # ------------------------------------------------------------------
    def generate(self, prompt: Sequence[int], max_new_tokens: int,
                 sampler: Optional[Sampler] = None,
                 n_candidates: Optional[int] = None,
                 eos_id: Optional[int] = None) -> GenerationResult:
        """Prefill once, fork, then batch-decode N candidate continuations."""
        if max_new_tokens <= 0:
            raise EngineError(f"max_new_tokens must be positive, got {max_new_tokens}")
        n = self.batch if n_candidates is None else n_candidates
        if n > self.batch:
            raise EngineError(f"{n} candidates exceed engine batch {self.batch}")
        if len(prompt) + max_new_tokens > self.max_context:
            raise EngineError(
                f"prompt {len(prompt)} + {max_new_tokens} new tokens exceed "
                f"context {self.max_context}")
        sampler = sampler if sampler is not None else Sampler(temperature=0.8)
        self.reset()

        with obs_trace.span("engine.generate", category="engine",
                            prompt_tokens=len(prompt),
                            max_new_tokens=max_new_tokens,
                            n_candidates=n):
            last_logits, prefill_cost = self.prefill(prompt, seq=0)
            prefill_seconds = self.step_seconds(prefill_cost)
            prefill_energy = self.step_energy(prefill_cost, prefill_seconds)
            if obs_timeline.timeline_enabled():
                obs_timeline.emit("prefill", prefill_seconds,
                                  seconds=prefill_seconds,
                                  n_tokens=len(prompt),
                                  joules=prefill_energy.joules)
            if n > 1:
                with obs_trace.span("engine.fork", category="engine",
                                    n_targets=n - 1):
                    self.fork_prompt(0, list(range(1, n)))

            sequences = list(range(n))
            current = [int(t) for t in sampler.sample_batch(
                np.tile(last_logits, (n, 1)))]
            outputs: List[List[int]] = [[t] for t in current]
            finished = [eos_id is not None and t == eos_id for t in current]
            result = GenerationResult(sequences=outputs,
                                      prefill_cost=prefill_cost,
                                      n_generated_tokens=[1] * n,
                                      prompt_tokens=len(prompt))

            decode_seconds = 0.0
            joules = prefill_energy.joules
            for step_index in range(max_new_tokens - 1):
                if all(finished):
                    break
                logits, cost = self.decode_step(current, sequences)
                step_seconds = self.step_seconds(cost)
                decode_seconds += step_seconds
                step_energy = self.step_energy(cost, step_seconds)
                joules += step_energy.joules
                if obs_timeline.timeline_enabled():
                    obs_timeline.emit(
                        "decode_step", prefill_seconds + decode_seconds,
                        step=step_index, seconds=step_seconds,
                        live_batch=sum(1 for f in finished if not f),
                        joules=step_energy.joules)
                result.decode_costs.append(cost)
                next_tokens = sampler.sample_batch(logits)
                for i in range(n):
                    if finished[i]:
                        continue
                    token = int(next_tokens[i])
                    outputs[i].append(token)
                    current[i] = token
                    result.n_generated_tokens[i] += 1
                    if eos_id is not None and token == eos_id:
                        finished[i] = True

            self._tokens_counter.inc(result.total_generated_tokens)
            result.sim_seconds = prefill_seconds + decode_seconds
            result.joules = joules
            if obs_timeline.timeline_enabled():
                for i in range(n):
                    obs_timeline.emit("complete", result.sim_seconds,
                                      request_id=i, reason="eos"
                                      if finished[i] else "length",
                                      tokens=result.n_generated_tokens[i])
            if decode_seconds > 0.0:
                decoded = result.total_generated_tokens - n
                self._tokens_per_second.set(max(decoded, 0) / decode_seconds)
        return result
