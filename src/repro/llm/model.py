"""Decoder-only transformer running on the NPU simulator.

The model instantiates the exact architectures of the evaluated
checkpoints (GQA attention, RoPE, RMSNorm, SwiGLU) with synthetic
Gaussian weights (substitution S2 in DESIGN.md) and runs the paper's
operator placement:

* all projection GEMMs through :class:`~repro.kernels.gemm.MixedPrecisionGemm`
  (Q4_0, Q8_0 for the FFN down projection — §7.1), with q/k/v and
  gate/up each fused into one product over their shared activations;
* attention through the FP16 FlashAttention of Algorithm 1;
* embeddings and the ``lm_head`` vocabulary projection on the CPU
  (§7.2.2) in FP16/FP32.

Every forward pass aggregates a :class:`StepCost` so the performance
models can translate one functional step into device latency.  A pure
FP32 reference path (:meth:`NPUTransformer.forward_reference`) provides
the accuracy baseline for Tables 1/4/5-style measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import EngineError, ModelConfigError
from ..kernels.flash_attention import (
    AttentionBreakdown,
    FlashAttention,
    attention_fp32_reference,
)
from ..obs import context as obs_context
from ..kernels.gemm import FusedWeight, MixedPrecisionGemm, PreparedWeight
from ..kernels.ops import (
    residual_add,
    rms_norm,
    rope_frequencies,
    rope_rotate,
    swiglu,
)
from ..npu.memory import TCM
from ..npu.timing import KernelCost
from .block_pool import PagedKVCache
from .config import ModelConfig
from .kv_cache import KVCache

__all__ = ["TransformerWeights", "StepCost", "NPUTransformer",
           "reference_forward"]

#: projections that multiply the same activations, prepared as one
#: fused weight each
_FUSED = {"qkv": ("wq", "wk", "wv"), "gate_up": ("w_gate", "w_up")}


@dataclass
class TransformerWeights:
    """Synthetic FP32 master weights for one model."""

    config: ModelConfig
    embedding: np.ndarray                 # (vocab, hidden)
    lm_head: np.ndarray                   # (hidden, vocab)
    final_norm: np.ndarray                # (hidden,)
    layers: List[Dict[str, np.ndarray]]   # per-layer projections + norms

    @classmethod
    def generate(cls, config: ModelConfig, seed: int = 0,
                 scale: Optional[float] = None,
                 outlier_fraction: float = 1e-3,
                 outlier_scale: float = 8.0,
                 channel_gain_sigma: float = 0.0,
                 embedding_std: float = 0.02) -> "TransformerWeights":
        """Zero-mean Gaussian weights with realistic magnitude structure.

        The paper's tile-quantization argument (§5.1.1) relies on
        pretrained weights being approximately zero-mean Gaussian.  The
        systematic magnitude outliers of real checkpoints ([27] in the
        paper) are reproduced via ``outlier_fraction`` entries scaled by
        ``outlier_scale``: a single outlier inflates the scale of every
        weight sharing it — an entire input column under per-channel
        quantization (the Table 1 collapse mechanism) but only one
        32-element group under fine-grained quantization, where tile
        groups and conventional groups are hit equally (the Table 4
        comparability mechanism).  ``channel_gain_sigma`` optionally adds
        a smooth log-normal magnitude envelope across input channels for
        heterogeneity studies; ``embedding_std`` controls output
        sharpness (larger values give the low self-perplexity the
        accuracy probes need).
        """
        rng = np.random.default_rng(seed)
        std = scale if scale is not None else 1.0 / np.sqrt(config.hidden_dim)
        embedding = rng.normal(0.0, embedding_std,
                               (config.vocab_size, config.hidden_dim))
        lm_head = embedding.T.copy() if config.tie_embeddings else \
            rng.normal(0.0, std, (config.hidden_dim, config.vocab_size))
        layers = []
        for _ in range(config.n_layers):
            layer: Dict[str, np.ndarray] = {}
            for name, (fan_in, fan_out) in config.projection_shapes().items():
                matrix = rng.normal(0.0, 1.0 / np.sqrt(fan_in), (fan_in, fan_out))
                if channel_gain_sigma > 0:
                    window = max(8, fan_in // 4)
                    noise = rng.normal(0.0, 1.0, fan_in)
                    smooth = np.convolve(noise, np.ones(window) / window,
                                         mode="same")
                    smooth = smooth / max(float(smooth.std()), 1e-8)
                    matrix *= np.exp(channel_gain_sigma * smooth)[:, None]
                if outlier_fraction > 0:
                    n_outliers = max(1, int(matrix.size * outlier_fraction))
                    idx = rng.choice(matrix.size, size=n_outliers, replace=False)
                    matrix.ravel()[idx] *= outlier_scale
                layer[name] = matrix
            layer["norm_attn"] = np.ones(config.hidden_dim)
            layer["norm_ffn"] = np.ones(config.hidden_dim)
            layers.append(layer)
        return cls(config=config,
                   embedding=embedding.astype(np.float32),
                   lm_head=np.asarray(lm_head, dtype=np.float32),
                   final_norm=np.ones(config.hidden_dim, dtype=np.float32),
                   layers=layers)


@dataclass
class StepCost:
    """Aggregated cost of one forward step.

    ``npu`` collects kernel costs executed on the NPU; ``cpu_gemms``
    lists the (m, k, n) shapes of GEMMs placed on the CPU (embedding
    lookup is negligible; the lm_head is not — §7.2.2).
    """

    npu: KernelCost = field(default_factory=KernelCost)
    cpu_gemms: List[Tuple[int, int, int]] = field(default_factory=list)

    def merge(self, other: "StepCost") -> "StepCost":
        """Accumulate ``other`` into ``self`` **in place** and return self.

        Because the return value *is* ``self``, using ``merge`` in
        expression position aliases the accumulator — merging the result
        into another record later double-counts.  Use :meth:`__add__` or
        :meth:`combined` when a fresh record is wanted.
        """
        self.npu.merge(other.npu)
        self.cpu_gemms.extend(other.cpu_gemms)
        return self

    def __add__(self, other: "StepCost") -> "StepCost":
        """Non-mutating sum: returns a fresh record, operands untouched."""
        if not isinstance(other, StepCost):
            return NotImplemented
        return StepCost(npu=self.npu + other.npu,
                        cpu_gemms=self.cpu_gemms + other.cpu_gemms)

    def combined(self, *others: "StepCost") -> "StepCost":
        """Fresh sum of ``self`` and ``others`` (alias-safe merge)."""
        total = self + StepCost()
        for other in others:
            total = total + other
        return total


class NPUTransformer:
    """A transformer whose projections run on the simulated NPU."""

    def __init__(self, weights: TransformerWeights, strategy: str = "ours",
                 attention_method: str = "lut", qfloat_mode: str = "qfloat",
                 down_bits: int = 8) -> None:
        self.config = weights.config
        self.weights = weights
        self.strategy = strategy
        self.attention_method = attention_method
        self.qfloat_mode = qfloat_mode
        self.tcm = TCM()
        self._attention = FlashAttention(method=attention_method, tcm=self.tcm,
                                         qfloat_mode=qfloat_mode)
        self._gemm_q4 = MixedPrecisionGemm(strategy=strategy, bits=4,
                                           qfloat_mode=qfloat_mode)
        self._gemm_down = MixedPrecisionGemm(strategy=strategy, bits=down_bits,
                                             qfloat_mode=qfloat_mode)
        self._prepared: List[Dict[str, "PreparedWeight | FusedWeight"]] = []
        for layer in weights.layers:
            self._prepared.append({
                "qkv": self._gemm_q4.prepare_fused(
                    [layer[name] for name in _FUSED["qkv"]]),
                "wo": self._gemm_q4.prepare_weight(layer["wo"]),
                "gate_up": self._gemm_q4.prepare_fused(
                    [layer[name] for name in _FUSED["gate_up"]]),
                "w_down": self._gemm_down.prepare_weight(layer["w_down"])})
        self._cos, self._sin = rope_frequencies(
            self.config.head_dim, self.config.max_position, self.config.rope_theta)
        # rms_norm reads its weight as FP16: cast once, here
        self._norms = [(layer["norm_attn"].astype(np.float16),
                        layer["norm_ffn"].astype(np.float16))
                       for layer in weights.layers]
        self._final_norm = weights.final_norm.astype(np.float16)

    # ------------------------------------------------------------------
    # cache construction
    # ------------------------------------------------------------------
    def new_cache(self, batch: int, capacity: int,
                  dtype: str = "fp16") -> KVCache:
        return KVCache(self.config.n_layers, batch, capacity,
                       self.config.n_kv_heads, self.config.head_dim,
                       dtype=dtype)

    def new_paged_cache(self, batch: int, capacity: int, dtype: str = "fp16",
                        block_size: int = 16, pool=None, heap=None):
        """Block-table KV cache over a shared pool (see ``block_pool``)."""
        return PagedKVCache(self.config.n_layers, batch, capacity,
                            self.config.n_kv_heads, self.config.head_dim,
                            dtype=dtype, block_size=block_size, pool=pool,
                            heap=heap)

    # ------------------------------------------------------------------
    # forward pass
    # ------------------------------------------------------------------
    def forward(self, tokens: np.ndarray, cache: KVCache,
                sequences: Optional[List[int]] = None,
                stable_lm_head: bool = False
                ) -> Tuple[np.ndarray, StepCost]:
        """Run one step for a batch of sequences.

        ``tokens`` is ``(batch, n_new)`` token ids; sequence ``i`` of the
        batch appends its ``n_new`` tokens to cache slot ``sequences[i]``
        (identity mapping by default).  Returns FP32 logits of shape
        ``(batch, n_new, vocab)`` and the aggregated step cost.

        ``stable_lm_head`` routes a single-row lm_head matmul through
        the same BLAS gemm kernel multi-row calls use (BLAS dispatches
        one-row products to gemv, whose accumulation order rounds
        differently).  Prefill paths enable it so a chunked prefill
        whose last chunk is one token stays bitwise identical to the
        monolithic forward.
        """
        tokens = np.atleast_2d(np.asarray(tokens, dtype=np.int64))
        batch, n_new = tokens.shape
        if sequences is None:
            sequences = list(range(batch))
        if len(sequences) != batch:
            raise EngineError(
                f"{batch} token rows but {len(sequences)} sequence slots")
        if tokens.size and int(tokens.max()) >= self.config.vocab_size:
            raise EngineError("token id out of vocabulary range")
        cost = StepCost()
        cfg = self.config
        n_heads, n_kv_heads, head_dim = (cfg.n_heads, cfg.n_kv_heads,
                                         cfg.head_dim)
        q_dim, kv_dim = cfg.q_dim, cfg.kv_dim

        start_positions = [cache.sequence_length(s) for s in sequences]
        positions = np.add.outer(start_positions, np.arange(n_new))
        if positions.size and max(start_positions) + n_new > cfg.max_position:
            raise EngineError("position exceeds the model's maximum context")
        # RoPE is elementwise, so one call per layer covers every (token,
        # head) row of q and k, each at its token's position
        rope_positions = np.repeat(positions.reshape(-1), n_heads + n_kv_heads)

        tracer = obs_context.current().tracer
        with tracer.span("model.forward", category="model",
                         batch=batch, n_new=n_new):
            # CPU-side embedding lookup (FP16 storage)
            hidden = self.weights.embedding[tokens].astype(np.float16)
            flat = hidden.reshape(batch * n_new, cfg.hidden_dim)

            for layer_idx in range(cfg.n_layers):
                prepared = self._prepared[layer_idx]
                norm_attn, norm_ffn = self._norms[layer_idx]

                with tracer.span("model.layer", category="model",
                                 layer=layer_idx):
                    # --- attention block -------------------------------
                    normed = rms_norm(flat, norm_attn)
                    qkv, c = self._gemm_q4(normed, prepared["qkv"])
                    cost.npu.merge(c)
                    qk = rope_rotate(
                        qkv[:, :q_dim + kv_dim].reshape(-1, head_dim),
                        rope_positions, self._cos, self._sin,
                    ).reshape(batch * n_new, n_heads + n_kv_heads, head_dim)
                    k = qk[:, n_heads:]
                    v = qkv[:, q_dim + kv_dim:].reshape(
                        batch * n_new, n_kv_heads, head_dim)

                    layer_cache = cache[layer_idx]
                    for b, seq in enumerate(sequences):
                        rows = slice(b * n_new, (b + 1) * n_new)
                        layer_cache.append(seq, k[rows], v[rows])
                    attn_flat, breakdown = self._attend(
                        qk[:, :n_heads], layer_cache, sequences, positions)
                    cost.npu.merge(breakdown.total())
                    o, c = self._gemm_q4(attn_flat, prepared["wo"])
                    cost.npu.merge(c)
                    flat = residual_add(o, flat)

                    # --- FFN block --------------------------------------
                    normed = rms_norm(flat, norm_ffn)
                    gate_up, c = self._gemm_q4(normed, prepared["gate_up"])
                    cost.npu.merge(c)
                    activated = swiglu(gate_up[:, :cfg.intermediate_dim],
                                       gate_up[:, cfg.intermediate_dim:])
                    down, c = self._gemm_down(activated, prepared["w_down"])
                    cost.npu.merge(c)
                    flat = residual_add(down, flat)

            # --- CPU-side lm_head (§7.2.2) -----------------------------
            with tracer.span("model.lm_head", category="model",
                             m=batch * n_new, k=cfg.hidden_dim,
                             n=cfg.vocab_size):
                final = rms_norm(flat, self._final_norm)
                final32 = final.astype(np.float32)
                if stable_lm_head and final32.shape[0] == 1:
                    logits = (np.concatenate([final32, final32], axis=0)
                              @ self.weights.lm_head)[:1]
                else:
                    logits = final32 @ self.weights.lm_head
            cost.cpu_gemms.append((batch * n_new, cfg.hidden_dim, cfg.vocab_size))
        return logits.reshape(batch, n_new, cfg.vocab_size), cost

    def _attend(self, q: np.ndarray, layer_cache, sequences: List[int],
                positions: np.ndarray) -> Tuple[np.ndarray, AttentionBreakdown]:
        """Causal attention of every (sequence, query head) in one call.

        ``q`` holds the rotated queries, ``(batch * n_new, n_heads,
        head_dim)`` in (sequence, token, head) order; ``layer_cache`` the
        layer's cache, already holding the step's keys and values, which
        it gathers for ``sequences`` as one stack; ``positions`` the
        ``(batch, n_new)`` query positions.  Each (sequence, KV head)
        cache is passed once, and the query heads of its GQA group read
        it.  Returns the ``(batch * n_new, q_dim)`` output and the summed
        breakdown.
        """
        cfg = self.config
        batch, n_new = positions.shape
        keys, values, lengths = layer_cache.gather(sequences)
        # one query per sequence sees every cached key: its kv_lengths
        # mask is the causal mask, so positions are passed only for
        # longer steps
        causal = {} if n_new == 1 else {
            "q_positions": np.repeat(positions, cfg.n_heads, axis=0),
            "k_positions": np.arange(keys.shape[1])}
        out, breakdown = self._attention(
            q.reshape(batch, n_new, cfg.n_heads, cfg.head_dim)
            .swapaxes(1, 2).reshape(batch * cfg.n_heads, n_new, cfg.head_dim),
            keys, values,
            kv_lengths=[n for n in lengths for _ in range(cfg.n_kv_heads)],
            **causal)
        out = out.reshape(batch, cfg.n_heads, n_new, cfg.head_dim)
        return out.swapaxes(1, 2).reshape(batch * n_new, cfg.q_dim), breakdown

    # ------------------------------------------------------------------
    # FP32 reference (accuracy baseline)
    # ------------------------------------------------------------------
    def forward_reference(self, tokens: np.ndarray,
                          effective_weights: Optional[List[Dict[str, np.ndarray]]]
                          = None) -> np.ndarray:
        """Full-precision forward over a prompt, no cache, no simulator.

        ``effective_weights`` substitutes per-layer projections (e.g. a
        dequantized weight set) while keeping everything else identical —
        the mechanism behind the quantization-accuracy experiments.
        Returns FP32 logits ``(n_tokens, vocab)``.
        """
        return reference_forward(self.weights, tokens, effective_weights)

    def dequantized_layer_weights(self) -> List[Dict[str, np.ndarray]]:
        """The effective (quantize-dequantize round-trip) projections."""
        out = []
        for prepared in self._prepared:
            out.append({
                part_name: part.dequantized_matrix.astype(np.float32)
                for name, weight in prepared.items()
                for part_name, part in zip(_FUSED.get(name, (name,)),
                                           weight.parts)})
        return out


def reference_forward(weights: TransformerWeights, tokens: np.ndarray,
                      effective_weights: Optional[List[Dict[str, np.ndarray]]]
                      = None) -> np.ndarray:
    """FP32 reference forward pass over a prompt (no simulator, no cache).

    Standalone so accuracy experiments can evaluate weight variants
    without paying the NPU weight-preparation cost.
    """
    tokens = np.asarray(tokens, dtype=np.int64).ravel()
    cfg = weights.config
    layers = effective_weights if effective_weights is not None \
        else weights.layers
    if len(layers) != cfg.n_layers:
        raise ModelConfigError(
            f"expected {cfg.n_layers} layers of weights, got {len(layers)}")
    cos, sin = rope_frequencies(cfg.head_dim, int(tokens.size), cfg.rope_theta)
    x = weights.embedding[tokens].astype(np.float32)
    pos = np.arange(tokens.size)
    for layer_idx in range(cfg.n_layers):
        layer = layers[layer_idx]
        master = weights.layers[layer_idx]
        normed = _rms_norm32(x, master["norm_attn"])
        q = normed @ np.asarray(layer["wq"], dtype=np.float32)
        k = normed @ np.asarray(layer["wk"], dtype=np.float32)
        v = normed @ np.asarray(layer["wv"], dtype=np.float32)
        q = q.reshape(tokens.size, cfg.n_heads, cfg.head_dim)
        k = k.reshape(tokens.size, cfg.n_kv_heads, cfg.head_dim)
        v = v.reshape(tokens.size, cfg.n_kv_heads, cfg.head_dim)
        for h in range(cfg.n_heads):
            q[:, h] = _rope32(q[:, h], pos, cos, sin)
        for h in range(cfg.n_kv_heads):
            k[:, h] = _rope32(k[:, h], pos, cos, sin)
        attn = np.empty((tokens.size, cfg.n_heads, cfg.head_dim),
                        dtype=np.float32)
        for kv_head in range(cfg.n_kv_heads):
            for h in range(kv_head * cfg.gqa_group,
                           (kv_head + 1) * cfg.gqa_group):
                attn[:, h] = attention_fp32_reference(
                    q[:, h], k[:, kv_head], v[:, kv_head],
                    q_positions=pos, k_positions=pos)
        x = x + attn.reshape(tokens.size, cfg.q_dim) \
            @ np.asarray(layer["wo"], dtype=np.float32)
        normed = _rms_norm32(x, master["norm_ffn"])
        gate = normed @ np.asarray(layer["w_gate"], dtype=np.float32)
        up = normed @ np.asarray(layer["w_up"], dtype=np.float32)
        with np.errstate(over="ignore"):
            act = gate / (1.0 + np.exp(-gate)) * up
        x = x + act @ np.asarray(layer["w_down"], dtype=np.float32)
    final = _rms_norm32(x, weights.final_norm)
    return final @ weights.lm_head


def _rms_norm32(x: np.ndarray, weight: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    mean_sq = np.mean(x * x, axis=-1, keepdims=True)
    return x / np.sqrt(mean_sq + eps) * np.asarray(weight, dtype=np.float32)


def _rope32(x: np.ndarray, positions: np.ndarray, cos_table: np.ndarray,
            sin_table: np.ndarray) -> np.ndarray:
    cos = cos_table[positions]
    sin = sin_table[positions]
    out = np.empty_like(x)
    even, odd = x[:, 0::2], x[:, 1::2]
    out[:, 0::2] = even * cos - odd * sin
    out[:, 1::2] = even * sin + odd * cos
    return out
