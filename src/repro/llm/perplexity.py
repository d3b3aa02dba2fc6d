"""Perplexity and distribution-divergence metrics.

The paper reports Wikitext-2 perplexity via ``llama-perplexity`` for its
quantization-accuracy tables (Tables 1, 4, 5).  With synthetic weights we
measure the same quantities on synthetic token streams: next-token
perplexity of the model under each weight variant, and the KL divergence
of the quantized model's predictive distribution from the full-precision
reference — the direct measure of quantization damage.
"""

from __future__ import annotations

import numpy as np

from ..errors import ModelConfigError
from .sampler import softmax_logits

__all__ = ["perplexity", "mean_kl_divergence", "top1_agreement"]


def perplexity(logits: np.ndarray, targets: np.ndarray) -> float:
    """Perplexity of next-token predictions.

    ``logits`` is ``(n_tokens, vocab)`` predicting ``targets``
    ``(n_tokens,)``; rows align (logits row ``i`` predicts target ``i``).
    """
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64).ravel()
    if logits.ndim != 2 or logits.shape[0] != targets.size:
        raise ModelConfigError(
            f"logits {logits.shape} do not align with targets {targets.shape}")
    probs = softmax_logits(logits)
    picked = probs[np.arange(targets.size), targets]
    picked = np.maximum(picked, 1e-300)
    return float(np.exp(-np.mean(np.log(picked))))


def mean_kl_divergence(reference_logits: np.ndarray,
                       candidate_logits: np.ndarray) -> float:
    """Mean KL(reference || candidate) over rows, in nats."""
    p = softmax_logits(np.asarray(reference_logits, dtype=np.float64))
    q = softmax_logits(np.asarray(candidate_logits, dtype=np.float64))
    if p.shape != q.shape:
        raise ModelConfigError(f"logit shapes differ: {p.shape} vs {q.shape}")
    q = np.maximum(q, 1e-300)
    per_row = np.sum(p * (np.log(np.maximum(p, 1e-300)) - np.log(q)), axis=-1)
    return float(per_row.mean())


def top1_agreement(reference_logits: np.ndarray,
                   candidate_logits: np.ndarray) -> float:
    """Fraction of rows whose argmax token matches the reference."""
    a = np.asarray(reference_logits).argmax(axis=-1)
    b = np.asarray(candidate_logits).argmax(axis=-1)
    if a.shape != b.shape:
        raise ModelConfigError(f"logit shapes differ: {a.shape} vs {b.shape}")
    return float(np.mean(a == b))
