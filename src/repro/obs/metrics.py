"""Counters, gauges and fixed-bucket histograms for the simulator.

Metric names follow the convention ``repro.<layer>.<name>`` —
``repro.llm.tokens_generated``, ``repro.npu.dma_bytes``,
``repro.kernels.gemm_flops`` — so snapshots group naturally by subsystem.

Instrumented code records into the registry of the current
observability context (:func:`repro.obs.context.current`); code that
wants isolated measurement constructs its own registry and installs it
with :func:`repro.obs.context.scope` (the ``repro profile`` CLI does
exactly this so a profiled run starts from zero).

Histograms use fixed buckets so recording is O(log buckets) with no
stored samples; quantiles (p50/p95/p99) are estimated by linear
interpolation within the landing bucket — the standard
Prometheus-histogram trade-off, plenty for per-step latency summaries.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ObservabilityError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "EMPTY_PERCENTILE",
    "labeled_name",
    "parse_labels",
]

#: Sentinel returned by :meth:`Histogram.percentile`/:meth:`Histogram.quantile`
#: on a histogram with no observations.  0.0 (not NaN) so summaries stay
#: JSON-clean and comparisons stay total; callers that must distinguish
#: "no data" from "zero latency" check ``count`` first.
EMPTY_PERCENTILE = 0.0


def labeled_name(name: str, labels: Optional[Mapping[str, Any]] = None) -> str:
    """Canonical instrument name for a (base name, labels) pair.

    Labels render as ``name{k=v,k2=v2}`` with keys sorted, so the same
    label set always produces the same instrument.  Label keys/values
    may not contain the ``{ } = ,`` delimiters or whitespace.
    """
    if not labels:
        return name
    parts = []
    for key in sorted(labels):
        value = str(labels[key])
        for token in (key, value):
            if any(c in token for c in "{}=, \t\n") or not token:
                raise ObservabilityError(
                    f"invalid metric label {key}={value!r} on {name}: labels "
                    "may not be empty or contain '{', '}', '=', ',' or "
                    "whitespace")
        parts.append(f"{key}={value}")
    return f"{name}{{{','.join(parts)}}}"


def parse_labels(full_name: str) -> "Tuple[str, Dict[str, str]]":
    """Split a canonical instrument name back into (base name, labels)."""
    if not full_name.endswith("}") or "{" not in full_name:
        return full_name, {}
    base, _, body = full_name[:-1].partition("{")
    labels: Dict[str, str] = {}
    for part in body.split(","):
        key, sep, value = part.partition("=")
        if not sep or not key or not value:
            raise ObservabilityError(
                f"malformed labeled metric name {full_name!r}")
        labels[key] = value
    return base, labels


def _default_buckets() -> List[float]:
    """Exponential buckets covering 1 microsecond .. ~70 seconds."""
    return [1e-6 * (2.0 ** i) for i in range(27)]


class Counter:
    """A monotonically increasing sum."""

    __slots__ = ("name", "base_name", "labels", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.base_name, self.labels = parse_labels(name)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name} cannot decrease (inc {amount})")
        self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"type": "counter", "value": self.value}
        if self.labels:
            out["labels"] = dict(self.labels)
        return out


class Gauge:
    """A point-in-time value; tracks the maximum it has seen."""

    __slots__ = ("name", "base_name", "labels", "value", "max_value", "_seen")

    def __init__(self, name: str) -> None:
        self.name = name
        self.base_name, self.labels = parse_labels(name)
        self.value = 0.0
        self.max_value = 0.0
        self._seen = False

    def set(self, value: float) -> None:
        self.value = float(value)
        self.max_value = value if not self._seen else max(self.max_value, value)
        self._seen = True

    def snapshot(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"type": "gauge", "value": self.value,
                               "max": self.max_value}
        if self.labels:
            out["labels"] = dict(self.labels)
        return out


class Histogram:
    """Fixed-bucket histogram with interpolated quantile summaries.

    Values above the last bucket bound land in an implicit +inf bucket
    and are additionally counted in ``overflow`` — a saturated histogram
    is visible in every snapshot instead of silently degrading its upper
    quantiles to a single ``max``-anchored estimate.
    """

    __slots__ = ("name", "base_name", "labels", "buckets", "counts", "count",
                 "total", "min", "max", "overflow")

    def __init__(self, name: str,
                 buckets: Optional[Sequence[float]] = None) -> None:
        bounds = list(buckets) if buckets is not None else _default_buckets()
        if not bounds or sorted(bounds) != bounds or len(set(bounds)) != len(bounds):
            raise ObservabilityError(
                f"histogram {name} needs strictly increasing bucket bounds, "
                f"got {bounds}")
        self.name = name
        self.base_name, self.labels = parse_labels(name)
        self.buckets = bounds                    # upper bounds; +inf implicit
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.overflow = 0

    def observe(self, value: float) -> None:
        self.observe_many(value, 1)

    def observe_many(self, value: float, n: int) -> None:
        """Record ``n`` identical observations in O(log buckets).

        The fleet layer records one value per generated token; folding
        a request's tokens in one call keeps million-token simulations
        linear in *requests*, not tokens.
        """
        if n <= 0:
            raise ObservabilityError(
                f"histogram {self.name} needs a positive observation "
                f"count, got {n}")
        index = bisect.bisect_left(self.buckets, value)
        self.counts[index] += n
        if index == len(self.buckets):
            self.overflow += n
        self.count += n
        self.total += value * n
        # min()/max() keep their first argument unless the second is
        # strictly smaller/larger; these comparisons do the same (NaN
        # and signed zeros included) without two builtin calls
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other``'s observations into this histogram, in place.

        Identical bucket bounds fold count-for-count.  Differing bounds
        — per-device SLO trackers use resolution matched to the device
        generation (:func:`~repro.obs.slo.hdr_buckets` bit widths) —
        re-bucket each of ``other``'s buckets by its **upper bound**
        into this histogram: finer-resolution observations land exactly
        when the coarse bounds are a subset of the fine bounds (the
        hdr_buckets family over a shared range), and conservatively (at
        most one bucket high) otherwise.  ``other``'s overflow bucket
        merges by its +inf bound, so overflow counts are preserved, not
        dropped.  Merging an empty histogram is a no-op; names and
        labels may differ — this is the cross-window and cross-device
        aggregation primitive of :class:`~repro.obs.stream.MetricStream`
        and the fleet layer.  Returns ``self`` so merges chain like
        :meth:`~repro.npu.timing.KernelCost.merge`.
        """
        if not isinstance(other, Histogram):
            raise ObservabilityError(
                f"cannot merge {type(other).__name__} into histogram "
                f"{self.name}")
        if other.buckets == self.buckets:
            for i, n in enumerate(other.counts):
                self.counts[i] += n
            self.overflow += other.overflow
        else:
            overflow_index = len(self.buckets)
            for i, n in enumerate(other.counts):
                if n == 0:
                    continue
                bound = (other.buckets[i] if i < len(other.buckets)
                         else math.inf)
                index = bisect.bisect_left(self.buckets, bound)
                self.counts[index] += n
                if index == overflow_index:
                    self.overflow += n
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile by intra-bucket interpolation.

        Edge behavior (documented, never raising for ``q`` in range):

        * an **empty** histogram returns :data:`EMPTY_PERCENTILE` (0.0)
          — check ``count`` to distinguish "no data" from "zero";
        * an **overflow-only** histogram (every observation beyond the
          last bucket bound) interpolates between the observed ``min``
          and ``max``, clamped to that range.
        """
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return EMPTY_PERCENTILE
        rank = q * self.count
        # land in the lowest non-empty bucket whose cumulative count
        # reaches rank, walking down from the highest non-empty one (not
        # max's: a mixed-resolution merge can put counts above it); seen
        # is the integer count below bucket i, as an upward walk sums it
        counts = self.counts
        seen = self.count
        for i in range(len(counts) - 1, -1, -1):
            n = counts[i]
            if n:
                seen -= n
                if seen < rank or not seen:
                    break
        else:
            return self.max
        lo = self.buckets[i - 1] if i > 0 else self.min
        hi = self.buckets[i] if i < len(self.buckets) else self.max
        lo = max(lo, self.min)
        hi = min(hi, self.max)
        if hi <= lo:
            return lo
        fraction = (rank - seen) / n
        return lo + fraction * (hi - lo)

    def percentile(self, p: float) -> float:
        """Estimate the ``p``-th percentile (``p`` in [0, 100]).

        Accuracy caveat: with fixed buckets the estimate interpolates
        linearly inside the landing bucket, so the error is bounded by
        that bucket's width (relative error bounded by the bucket ratio
        for geometric schemes such as :func:`~repro.obs.slo.hdr_buckets`).
        Percentiles that land in the overflow bucket (beyond the last
        bound) interpolate between the last bound and the observed
        ``max`` — check ``overflow`` before trusting the tail.  An empty
        histogram returns :data:`EMPTY_PERCENTILE` instead of raising
        (see :meth:`quantile` for the full edge-case contract).
        """
        if not 0.0 <= p <= 100.0:
            raise ObservabilityError(
                f"percentile must be in [0, 100], got {p}")
        return self.quantile(p / 100.0)

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "overflow": self.overflow,
        }

    def snapshot(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"type": "histogram"}
        out.update(self.summary())
        return out


class MetricsRegistry:
    """Named instrument registry with get-or-create semantics.

    Instruments may carry **labels** (``labels={"kind": "dma"}``): the
    registry canonicalizes the (name, labels) pair via
    :func:`labeled_name`, so ``counter("faults", labels={"kind": "dma"})``
    always returns the same instrument, and :meth:`labeled` returns
    every instrument sharing a base name without any string parsing at
    the consumer.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, Any] = {}

    def _get_or_create(self, name: str,
                       labels: Optional[Mapping[str, Any]], kind, *args):
        if not name or " " in name or "{" in name or "}" in name:
            raise ObservabilityError(f"invalid metric name {name!r}")
        name = labeled_name(name, labels)
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = kind(name, *args)
                self._metrics[name] = metric
            elif not isinstance(metric, kind):
                raise ObservabilityError(
                    f"metric {name} already registered as "
                    f"{type(metric).__name__}, not {kind.__name__}")
            return metric

    def counter(self, name: str,
                labels: Optional[Mapping[str, Any]] = None) -> Counter:
        return self._get_or_create(name, labels, Counter)

    def gauge(self, name: str,
              labels: Optional[Mapping[str, Any]] = None) -> Gauge:
        return self._get_or_create(name, labels, Gauge)

    def histogram(self, name: str,
                  buckets: Optional[Sequence[float]] = None,
                  labels: Optional[Mapping[str, Any]] = None) -> Histogram:
        return self._get_or_create(name, labels, Histogram, buckets)

    def labeled(self, base_name: str) -> List[Any]:
        """Every instrument registered under ``base_name``, sorted by
        full name (the unlabeled instrument first, when present)."""
        with self._lock:
            return [metric for name, metric in sorted(self._metrics.items())
                    if metric.base_name == base_name]

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Plain-value snapshot of every instrument, sorted by name."""
        with self._lock:
            items = sorted(self._metrics.items())
        return {name: metric.snapshot() for name, metric in items}

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()
