"""Shared scaled-down model harness for the accuracy experiments.

Tables 1, 4 and 5 compare model quality under different quantization and
attention implementations.  The full checkpoints cannot run here, so the
accuracy experiments use scaled-down transformers with the real
architecture (GQA + RoPE + RMSNorm + SwiGLU), synthetic weights with the
realistic magnitude structure of :meth:`TransformerWeights.generate`,
and *self-generated* token streams (the model's own samples play the
role of in-distribution evaluation text, so quantization damage shows up
as a perplexity increase, as it does on Wikitext-2).

Two probe sizes:

* :data:`QUANT_PROBE_CONFIG` — wide (hidden 1024) and shallow, for the
  quantization experiments: per-channel scales must span input columns
  that are 32x larger than a quantization group, as on real models,
  for the Table 1 failure mode to appear;
* :data:`ACCURACY_MODEL_CONFIG` — small enough to push the evaluation
  stream through the *full functional NPU path* (Table 5's FP16 LUT
  FlashAttention versus FP32 attention).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..llm.config import ModelConfig, tiny_config
from ..llm.model import NPUTransformer, TransformerWeights, reference_forward
from ..llm.perplexity import mean_kl_divergence, perplexity, top1_agreement

__all__ = ["SmallModelHarness", "ACCURACY_MODEL_CONFIG", "QUANT_PROBE_CONFIG",
           "EvalMetrics"]

# Full-NPU-path probe (FlashAttention comparison, engine integration).
ACCURACY_MODEL_CONFIG = tiny_config(
    name="accuracy-probe", n_layers=4, hidden_dim=256, n_heads=8,
    n_kv_heads=4, intermediate_dim=512, vocab_size=512, max_position=256)

# Quantization probe: wide hidden dimension so one per-channel scale
# spans 32 quantization groups, as on the evaluated checkpoints.
QUANT_PROBE_CONFIG = tiny_config(
    name="quant-probe", n_layers=2, hidden_dim=1024, n_heads=8,
    n_kv_heads=4, intermediate_dim=2048, vocab_size=512, max_position=256)


@dataclass
class EvalMetrics:
    """Quality metrics of one weight/attention variant."""

    ppl: float
    kl_vs_reference: float
    top1_agreement: float


class SmallModelHarness:
    """One synthetic model + token stream, evaluated under variants."""

    def __init__(self, config: Optional[ModelConfig] = None, seed: int = 0,
                 n_eval_tokens: int = 160, embedding_std: float = 0.12) -> None:
        self.config = config if config is not None else ACCURACY_MODEL_CONFIG
        self.weights = TransformerWeights.generate(self.config, seed=seed,
                                                   embedding_std=embedding_std)
        self.tokens = self._generate_stream(seed + 1, n_eval_tokens)
        self._npu_model: Optional[NPUTransformer] = None
        self._reference_logits: Optional[np.ndarray] = None

    def _generate_stream(self, seed: int, n_tokens: int) -> np.ndarray:
        """Sample an evaluation stream *from the reference model itself*.

        Self-generated text is the synthetic analogue of in-distribution
        evaluation data: the reference model assigns it low perplexity,
        so quantization damage shows up as a PPL increase, exactly as on
        Wikitext-2 with a trained checkpoint.
        """
        rng = np.random.default_rng(seed)
        tokens = [int(rng.integers(0, self.config.vocab_size))]
        while len(tokens) < n_tokens:
            logits = reference_forward(self.weights, np.array(tokens))[-1]
            sharpened = logits / 0.8
            probs = np.exp(sharpened - sharpened.max())
            probs /= probs.sum()
            tokens.append(int(rng.choice(probs.size, p=probs)))
        return np.array(tokens, dtype=np.int64)

    # ------------------------------------------------------------------
    @property
    def reference_logits(self) -> np.ndarray:
        """FP32 full-precision logits over the evaluation stream."""
        if self._reference_logits is None:
            self._reference_logits = reference_forward(self.weights, self.tokens)
        return self._reference_logits

    def _metrics(self, logits: np.ndarray) -> EvalMetrics:
        targets = self.tokens[1:]
        return EvalMetrics(
            ppl=perplexity(logits[:-1], targets),
            kl_vs_reference=mean_kl_divergence(self.reference_logits, logits),
            top1_agreement=top1_agreement(self.reference_logits, logits),
        )

    # ------------------------------------------------------------------
    def evaluate_reference(self) -> EvalMetrics:
        """The F16/FP32 baseline row."""
        return self._metrics(self.reference_logits)

    def evaluate_weights(self, layer_weights: List[Dict[str, np.ndarray]]
                         ) -> EvalMetrics:
        """Evaluate an alternative projection-weight set (FP32 attention)."""
        logits = reference_forward(self.weights, self.tokens, layer_weights)
        return self._metrics(logits)

    def evaluate_npu_forward(self, attention_method: str = "lut",
                             strategy: str = "ours") -> EvalMetrics:
        """Evaluate the full NPU path (quantized weights + FP16 attention)."""
        model = NPUTransformer(self.weights, strategy=strategy,
                               attention_method=attention_method)
        cache = model.new_cache(1, self.tokens.size + 1)
        logits, _ = model.forward(self.tokens[np.newaxis, :], cache)
        return self._metrics(logits[0])

    def quantized_projection_weights(self, scheme: str,
                                     default_bits: int = 4
                                     ) -> List[Dict[str, np.ndarray]]:
        """Quantize-dequantize every projection with one scheme.

        Schemes: ``tile_group`` (§5.1.1), ``conventional_group`` (llama.cpp
        column groups), ``per_channel`` (QNN-style), ``awq_group`` (AWQ
        scale search on top of tile groups).
        """
        from ..quant.awq import awq_quantize
        from ..quant.schemes import quantize_per_channel
        from ..quant.tile_quant import (
            dequantize_weight,
            quantize_conventional_group,
            tile_groups,
        )

        rng = np.random.default_rng(7)
        out: List[Dict[str, np.ndarray]] = []
        for layer in self.weights.layers:
            variant: Dict[str, np.ndarray] = {}
            for name, matrix in layer.items():
                if name.startswith("norm"):
                    continue
                # the system keeps the FFN down projection in Q8_0 (§7.1);
                # QNN-style per-channel is W4 throughout (Table 1)
                bits = default_bits
                if name == "w_down" and scheme != "per_channel":
                    bits = 8
                if scheme == "tile_group":
                    variant[name] = tile_groups(
                        matrix, bits=bits).dequantized().astype(np.float32)
                elif scheme == "conventional_group":
                    variant[name] = dequantize_weight(
                        quantize_conventional_group(matrix, bits=bits)
                    ).astype(np.float32)
                elif scheme == "per_channel":
                    dequantized, _ = quantize_per_channel(matrix, bits=bits)
                    variant[name] = dequantized.astype(np.float32)
                elif scheme == "awq_group":
                    calibration = rng.normal(0.0, 1.0, (32, matrix.shape[0]))
                    result = awq_quantize(matrix, calibration, bits=bits)
                    variant[name] = result.dequantized_weight().astype(np.float32)
                else:
                    raise ValueError(f"unknown quantization scheme {scheme!r}")
            out.append(variant)
        return out
