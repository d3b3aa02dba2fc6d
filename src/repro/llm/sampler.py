"""Token samplers: greedy, temperature, top-k and nucleus (top-p).

Parallel test-time scaling draws *independent* samples per candidate, so
the sampler owns its RNG and exposes a vectorized batch interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import EngineError

__all__ = ["Sampler", "softmax_logits"]


def softmax_logits(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis (float64 internals)."""
    arr = np.asarray(logits, dtype=np.float64)
    shifted = arr - arr.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


@dataclass
class Sampler:
    """Sampling policy applied to every row of a logits batch.

    ``temperature = 0`` means greedy; ``top_k``/``top_p`` restrict the
    candidate set before renormalization.
    """

    temperature: float = 1.0
    top_k: Optional[int] = None
    top_p: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise EngineError(f"temperature must be >= 0, got {self.temperature}")
        if self.top_k is not None and self.top_k <= 0:
            raise EngineError(f"top_k must be positive, got {self.top_k}")
        if self.top_p is not None and not 0 < self.top_p <= 1:
            raise EngineError(f"top_p must be in (0, 1], got {self.top_p}")
        self._rng = np.random.default_rng(self.seed)

    def reseed(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)

    def sample(self, logits: np.ndarray) -> int:
        """Draw one token id from a single logits vector."""
        row = np.asarray(logits, dtype=np.float64).ravel()
        return int(self.sample_batch(row[np.newaxis])[0])

    def sample_batch(self, logits: np.ndarray) -> np.ndarray:
        """Draw one token per row of a ``(batch, vocab)`` logits matrix.

        Every row is filtered along the last axis at once.  Rows that
        keep some probability draw through one ``rng.random(k)`` in row
        order and pick by the ``searchsorted(side="right")`` rule of
        ``Generator.choice``, so a batch draws the tokens, and leaves the
        RNG state, of one ``choice`` call per row.  Greedy rows, and rows
        left with no probability, take the argmax and draw nothing.
        """
        matrix = np.atleast_2d(np.asarray(logits, dtype=np.float64))
        if matrix.shape[-1] == 0:
            raise EngineError("cannot sample from empty logits")
        finite = np.isfinite(matrix)
        if not finite.all():
            row, col = np.argwhere(~finite)[0]
            raise EngineError(f"logits row {row} holds {matrix[row, col]} "
                              f"at token {col}; logits must be finite")
        tokens = matrix.argmax(axis=-1)
        if self.temperature == 0.0:
            return tokens
        probs = softmax_logits(matrix / self.temperature)
        if self.top_k is not None and self.top_k < probs.shape[-1]:
            cutoff = np.partition(probs, -self.top_k, axis=-1)[:, [-self.top_k]]
            probs = np.where(probs >= cutoff, probs, 0.0)
        if self.top_p is not None:
            order = np.argsort(probs, axis=-1)[:, ::-1]
            ranked = np.take_along_axis(probs, order, axis=-1)
            keep = np.cumsum(ranked, axis=-1) - ranked < self.top_p
            mask = np.zeros(probs.shape, dtype=bool)
            np.put_along_axis(mask, order, keep, axis=-1)
            probs = np.where(mask, probs, 0.0)
        total = probs.sum(axis=-1)
        drawn = total > 0
        if drawn.any():
            cdf = np.cumsum(probs[drawn] / total[drawn, np.newaxis], axis=-1)
            cdf /= cdf[:, -1:]
            uniform = self._rng.random(int(drawn.sum()))
            tokens[drawn] = (cdf <= uniform[:, np.newaxis]).sum(axis=-1)
        return tokens
