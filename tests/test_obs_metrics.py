"""Tests for the metrics registry (repro.obs.metrics)."""

from __future__ import annotations

import bisect
import random
import struct

import pytest

from repro.errors import ObservabilityError
from repro.fleet.health import HedgePolicy
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.slo import hdr_buckets


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("repro.test.count")
        assert c.value == 0.0
        c.inc()
        c.inc(4.5)
        assert c.value == pytest.approx(5.5)

    def test_rejects_negative_increment(self):
        c = Counter("repro.test.count")
        with pytest.raises(ObservabilityError):
            c.inc(-1)
        assert c.value == 0.0

    def test_snapshot(self):
        c = Counter("repro.test.count")
        c.inc(3)
        assert c.snapshot() == {"type": "counter", "value": 3.0}


class TestGauge:
    def test_set_tracks_last_and_max(self):
        g = Gauge("repro.test.gauge")
        g.set(10)
        g.set(3)
        assert g.value == 3.0
        assert g.max_value == 10

    def test_max_of_negative_values_is_first_seen(self):
        g = Gauge("repro.test.gauge")
        g.set(-5)
        assert g.max_value == -5  # not the 0.0 initializer
        g.set(-2)
        assert g.max_value == -2

    def test_snapshot(self):
        g = Gauge("repro.test.gauge")
        g.set(7)
        assert g.snapshot() == {"type": "gauge", "value": 7.0, "max": 7}


class TestHistogram:
    def test_rejects_bad_buckets(self):
        for bad in ([], [2.0, 1.0], [1.0, 1.0]):
            with pytest.raises(ObservabilityError):
                Histogram("repro.test.h", buckets=bad)

    def test_count_mean_min_max(self):
        h = Histogram("repro.test.h", buckets=[1.0, 10.0, 100.0])
        for v in (0.5, 5.0, 50.0, 51.0):
            h.observe(v)
        assert h.count == 4
        assert h.mean == pytest.approx((0.5 + 5.0 + 50.0 + 51.0) / 4)
        assert h.min == 0.5
        assert h.max == 51.0

    def test_quantiles_of_uniform_samples(self):
        h = Histogram("repro.test.h",
                      buckets=[float(b) for b in range(10, 101, 10)])
        for v in range(1, 101):
            h.observe(float(v))
        # interpolated quantiles land within one bucket of the true value
        assert h.quantile(0.50) == pytest.approx(50.0, abs=10.0)
        assert h.quantile(0.95) == pytest.approx(95.0, abs=10.0)
        assert h.quantile(0.99) == pytest.approx(99.0, abs=10.0)
        assert h.quantile(0.0) == pytest.approx(h.min, abs=10.0)
        assert h.quantile(1.0) == pytest.approx(h.max)

    def test_quantile_single_sample(self):
        h = Histogram("repro.test.h", buckets=[1.0, 2.0])
        h.observe(1.5)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert h.quantile(q) == pytest.approx(1.5)

    def test_quantile_bounds_checked(self):
        h = Histogram("repro.test.h", buckets=[1.0])
        with pytest.raises(ObservabilityError):
            h.quantile(1.5)

    def test_empty_histogram_summary(self):
        h = Histogram("repro.test.h", buckets=[1.0])
        summary = h.summary()
        assert summary["count"] == 0
        assert summary["mean"] == 0.0
        assert summary["p99"] == 0.0

    def test_values_beyond_last_bucket_counted(self):
        h = Histogram("repro.test.h", buckets=[1.0])
        h.observe(100.0)
        assert h.count == 1
        assert h.quantile(0.5) == pytest.approx(100.0)

    def test_overflow_counted_and_snapshotted(self):
        h = Histogram("repro.test.h", buckets=[1.0, 2.0])
        h.observe(0.5)
        h.observe(1.5)
        assert h.overflow == 0
        h.observe(2.5)   # beyond the last bucket edge
        h.observe(999.0)
        assert h.overflow == 2
        assert h.count == 4
        assert h.snapshot()["overflow"] == 2
        # the boundary value itself lands in the last real bucket
        h2 = Histogram("repro.test.h2", buckets=[1.0, 2.0])
        h2.observe(2.0)
        assert h2.overflow == 0

    def test_saturated_tail_quantile_anchored_to_max(self):
        """Beyond the last edge, quantiles interpolate up to the observed
        max instead of silently clamping to the bucket bound."""
        h = Histogram("repro.test.h", buckets=[1.0])
        for v in (10.0, 20.0, 30.0):
            h.observe(v)
        assert h.overflow == 3
        assert h.quantile(1.0) == pytest.approx(30.0)
        assert 1.0 <= h.quantile(0.5) <= 30.0

    def test_percentile_is_quantile_in_percent_units(self):
        h = Histogram("repro.test.h",
                      buckets=[float(b) for b in range(10, 101, 10)])
        for v in range(1, 101):
            h.observe(float(v))
        for p in (0.0, 50.0, 95.0, 99.0, 100.0):
            assert h.percentile(p) == pytest.approx(h.quantile(p / 100.0))
        # bucket-boundary error is bounded by one bucket width
        assert h.percentile(95.0) == pytest.approx(95.0, abs=10.0)

    def test_percentile_bounds_checked(self):
        h = Histogram("repro.test.h", buckets=[1.0])
        with pytest.raises(ObservabilityError):
            h.percentile(101.0)
        with pytest.raises(ObservabilityError):
            h.percentile(-0.1)

    def test_default_buckets_cover_latency_range(self):
        h = Histogram("repro.test.h")
        h.observe(3e-6)
        h.observe(2.0)
        assert h.count == 2
        assert h.quantile(1.0) == pytest.approx(2.0)


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        reg = MetricsRegistry()
        assert reg.counter("repro.a.x") is reg.counter("repro.a.x")
        assert reg.gauge("repro.a.y") is reg.gauge("repro.a.y")
        assert reg.histogram("repro.a.z") is reg.histogram("repro.a.z")

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("repro.a.x")
        with pytest.raises(ObservabilityError):
            reg.gauge("repro.a.x")

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ObservabilityError):
            reg.counter("")
        with pytest.raises(ObservabilityError):
            reg.counter("has space")

    def test_snapshot_sorted_and_typed(self):
        reg = MetricsRegistry()
        reg.counter("repro.b.count").inc(2)
        reg.gauge("repro.a.gauge").set(1)
        snap = reg.snapshot()
        assert list(snap) == ["repro.a.gauge", "repro.b.count"]
        assert snap["repro.b.count"]["type"] == "counter"
        assert snap["repro.a.gauge"]["type"] == "gauge"

    def test_reset_clears(self):
        reg = MetricsRegistry()
        reg.counter("repro.a.x").inc()
        reg.reset()
        assert reg.snapshot() == {}
        assert reg.counter("repro.a.x").value == 0.0


class TestHistogramObserveMany:
    def test_weighted_observation_equals_repeats(self):
        a = Histogram("repro.test.many_a", buckets=[1.0, 2.0, 4.0])
        b = Histogram("repro.test.many_b", buckets=[1.0, 2.0, 4.0])
        for _ in range(5):
            a.observe(1.5)
        b.observe_many(1.5, 5)
        assert a.snapshot() == b.snapshot()

    @pytest.mark.parametrize("values", [
        (0.0, -0.0, 1.0), (-0.0, 0.0, -1.0), (float("nan"), 2.0, -2.0),
        (2.0, float("nan"), 0.5), (float("inf"), -0.0, float("-inf")),
    ])
    def test_min_max_fold_like_builtins(self, values):
        """``min``/``max`` keep their first argument unless the second is
        strictly smaller/larger; the histogram folds the same way, NaN and
        signed zeros included."""
        h = Histogram("repro.test.extremes", buckets=[1.0])
        low, high = h.min, h.max
        for value in values:
            h.observe_many(value, 2)
            low, high = min(low, value), max(high, value)
            assert (repr(h.min), repr(h.max)) == (repr(low), repr(high))

    def test_rejects_non_positive_count(self):
        h = Histogram("repro.test.many", buckets=[1.0])
        with pytest.raises(ObservabilityError):
            h.observe_many(0.5, 0)
        with pytest.raises(ObservabilityError):
            h.observe_many(0.5, -3)


class TestHistogramMerge:
    def test_same_buckets_merge_exact(self):
        a = Histogram("repro.test.ma", buckets=[1.0, 2.0, 4.0])
        b = Histogram("repro.test.mb", buckets=[1.0, 2.0, 4.0])
        for v in (0.5, 1.5, 3.0):
            a.observe(v)
        for v in (1.7, 9.0):
            b.observe(v)
        a.merge(b)
        assert a.count == 5
        assert a.overflow == 1
        assert a.total == pytest.approx(0.5 + 1.5 + 3.0 + 1.7 + 9.0)
        assert a.max == 9.0

    def test_mixed_resolution_hdr_merge_is_exact(self):
        """Fine-resolution HDR buckets re-bucket exactly into coarse
        ones over the same range (subset-aligned bounds): counts,
        quantile estimates, overflow all survive the merge."""
        from repro.obs.slo import hdr_buckets

        lo, hi = 1e-4, 134.0
        coarse = Histogram("repro.test.coarse",
                           buckets=hdr_buckets(lo, hi, precision_bits=1))
        fine = Histogram("repro.test.fine",
                         buckets=hdr_buckets(lo, hi, precision_bits=3))
        reference = Histogram("repro.test.ref",
                              buckets=hdr_buckets(lo, hi, precision_bits=1))
        values = [2e-4, 1e-3, 7e-3, 0.04, 0.041, 1.9, 133.0, 500.0, 900.0]
        for v in values:
            fine.observe(v)
            reference.observe(v)
        coarse.merge(fine)
        assert coarse.counts == reference.counts
        assert coarse.overflow == reference.overflow == 2
        assert coarse.count == len(values)
        assert coarse.total == pytest.approx(sum(values))
        assert coarse.min == reference.min
        assert coarse.max == reference.max
        for q in (0.5, 0.95, 0.99):
            assert coarse.quantile(q) == reference.quantile(q)

    def test_merge_preserves_other_overflow(self):
        wide = Histogram("repro.test.wide", buckets=[1.0, 1000.0])
        narrow = Histogram("repro.test.narrow", buckets=[1.0, 2.0])
        narrow.observe(500.0)   # overflow for narrow, in-range for wide
        assert narrow.overflow == 1
        wide.merge(narrow)
        # the overflowed sample's value is unknown beyond "> 2.0", so it
        # must stay counted past narrow's last bound, never dropped
        assert wide.count == 1
        assert wide.counts[1] + wide.overflow == 1
        assert wide.counts[0] == 0

    def test_merge_rejects_non_histogram(self):
        h = Histogram("repro.test.h", buckets=[1.0])
        with pytest.raises(ObservabilityError):
            h.merge(Counter("repro.test.c"))

    def test_generation_bit_widths_all_merge_exact(self):
        """The fleet's per-generation resolutions (1/2/3 bits) all fold
        into the 2-bit fleet aggregate without losing a sample."""
        from repro.obs.slo import hdr_buckets

        lo, hi = 1e-4, 134.0
        values = [3e-4, 2e-3, 0.015, 0.11, 0.9, 7.0, 55.0, 900.0]
        fleet = Histogram("repro.test.fleet",
                          buckets=hdr_buckets(lo, hi, precision_bits=2))
        for bits in (1, 2, 3):
            device = Histogram(f"repro.test.dev{bits}",
                               buckets=hdr_buckets(lo, hi,
                                                   precision_bits=bits))
            for v in values:
                device.observe(v)
            fleet.merge(device)
        assert fleet.count == 3 * len(values)
        assert fleet.overflow == 3
        assert fleet.total == pytest.approx(3 * sum(values))


# ----------------------------------------------------------------------
# the top-down quantile walk against the bottom-up reference
# ----------------------------------------------------------------------
def _reference_quantile(h: Histogram, q: float) -> float:
    """The quantile walk up from bucket 0: the reference every result of
    ``Histogram.quantile`` must match bit for bit."""
    if h.count == 0:
        return obs_metrics.EMPTY_PERCENTILE
    rank = q * h.count
    seen = 0
    for i, n in enumerate(h.counts):
        if seen + n >= rank and n > 0:
            lo = h.buckets[i - 1] if i > 0 else h.min
            hi = h.buckets[i] if i < len(h.buckets) else h.max
            lo = max(lo, h.min)
            hi = min(hi, h.max)
            if hi <= lo:
                return lo
            fraction = (rank - seen) / n
            return lo + fraction * (hi - lo)
        seen += n
    return h.max


def _bits(value: float) -> bytes:
    """The IEEE-754 bits of ``value``, which tell -0.0 from 0.0."""
    return struct.pack("<d", value)


_QS = (0.0, 0.5, 0.95, 0.99, 1.0)


def _seeded_histogram(rng: random.Random, lo: float = 1e-4,
                      hi: float = 134.0) -> Histogram:
    """An HDR histogram (1-3 bits) holding zeros of both signs, NaN,
    values past the last bound and weighted observations (``n > 1``)."""
    bits = rng.choice((1, 2, 3))
    h = Histogram(f"repro.test.hdr{bits}",
                  buckets=hdr_buckets(lo, hi, precision_bits=bits))
    special = (0.0, -0.0, float("nan"), lo, hi, 500.0, 1e4)
    for _ in range(rng.randint(1, 40)):
        draw = rng.random()
        if draw < 0.25:
            value = rng.choice(special)
        elif draw < 0.6:
            value = 10.0 ** rng.uniform(-4.5, 2.5)
        else:
            value = rng.expovariate(20.0)
        h.observe_many(value, rng.choice((1, 1, 2, 7, 1000)))
    return h


def _assert_walks_agree(h: Histogram, rng: random.Random) -> None:
    for q in _QS + (rng.random(),):
        assert _bits(h.quantile(q)) == _bits(_reference_quantile(h, q)), (
            q, h.counts, h.min, h.max)


class TestQuantileWalk:
    def test_matches_the_bottom_up_walk_bit_for_bit(self):
        rng = random.Random(2024)
        for _ in range(300):
            _assert_walks_agree(_seeded_histogram(rng), rng)

    def test_edge_histograms_match(self):
        rng = random.Random(5)
        buckets = hdr_buckets(1e-4, 134.0, precision_bits=2)
        for values in ([], [-0.0], [0.0, -0.0], [-0.0, 0.0],
                       [float("nan")], [float("nan"), 0.5], [900.0],
                       [900.0, 1e6], [134.0], [1e-4, 1e-4]):
            h = Histogram("repro.test.edge", buckets=buckets)
            for value in values:
                h.observe(value)
            _assert_walks_agree(h, rng)

    def test_matches_after_mixed_resolution_merges(self):
        rng = random.Random(77)
        for _ in range(200):
            into = (_seeded_histogram(rng) if rng.random() < 0.8 else
                    Histogram("repro.test.empty",
                              buckets=hdr_buckets(1e-4, 134.0,
                                                  precision_bits=2)))
            for _ in range(rng.randint(1, 3)):
                # shifted ranges re-bucket onto bounds that are not a
                # subset of the target's
                lo = rng.choice((1e-4, 1e-4, 3e-4, 1e-3))
                into.merge(_seeded_histogram(rng, lo=lo, hi=lo * 2e6))
            _assert_walks_agree(into, rng)

    def test_counts_above_max_bucket_read_above_max(self):
        """A coarse histogram merged into a finer one re-buckets each
        count at its coarse upper bound, so the highest non-empty bucket
        can sit above the one ``max`` falls in, and the top quantiles
        read above ``max``.  That is how the bottom-up walk behaved, and
        it is pinned here: the top-down walk starts from the highest
        non-empty bucket, not from ``max``'s."""
        lo, hi = 1e-4, 134.0
        fine = Histogram("repro.test.fine",
                         buckets=hdr_buckets(lo, hi, precision_bits=3))
        coarse = Histogram("repro.test.coarse",
                           buckets=hdr_buckets(lo, hi, precision_bits=1))
        for value in (0.0011, 0.0011, 0.02):
            coarse.observe(value)
        fine.merge(coarse)
        top = max(i for i, n in enumerate(fine.counts) if n)
        assert top > bisect.bisect_left(fine.buckets, fine.max)
        assert fine.quantile(1.0) > fine.max
        assert fine.quantile(1.0) == _reference_quantile(fine, 1.0)
        _assert_walks_agree(fine, random.Random(0))


# ----------------------------------------------------------------------
# the hedge rule reads the tail estimate only for a positive wait
# ----------------------------------------------------------------------
class _CountingHistogram(Histogram):
    """A histogram that counts the percentile estimates asked of it."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.percentile_calls = 0

    def percentile(self, p: float) -> float:
        self.percentile_calls += 1
        return super().percentile(p)


def _reference_should_hedge(policy: HedgePolicy, wait_seconds: float,
                            queue_wait: Histogram) -> bool:
    """The hedge rule estimating the tail for every wait, zero and
    negative ones included: the reference ``should_hedge`` must match."""
    if policy.threshold_seconds is not None:
        return wait_seconds >= policy.threshold_seconds
    if queue_wait.count < policy.min_samples:
        return False
    tail = queue_wait.percentile(policy.quantile)
    if tail <= 0.0:
        return False
    return wait_seconds >= tail


class TestHedgeTailEstimate:
    def test_no_percentile_for_a_wait_that_is_not_positive(self):
        policy = HedgePolicy(min_samples=4)
        waits = _CountingHistogram(
            "repro.test.waits",
            buckets=hdr_buckets(1e-4, 100.0, precision_bits=2))
        for value in (0.0, 0.5, 1.0, 2.0, 3.0):
            waits.observe(value)
        for wait in (0.0, -0.0, -1e-9, -5.0, float("nan"), float("-inf")):
            assert policy.should_hedge(wait, waits) is False
        assert waits.percentile_calls == 0
        assert policy.should_hedge(3.0, waits) is True
        assert waits.percentile_calls == 1

    def test_matches_the_rule_that_always_estimated(self):
        rng = random.Random(11)
        for _ in range(400):
            policy = HedgePolicy(
                quantile=rng.choice((50.0, 90.0, 99.0, 100.0)),
                min_samples=rng.choice((1, 4, 32)),
                threshold_seconds=rng.choice((None, None, None, 0.0,
                                              0.25)))
            waits = Histogram(
                "repro.test.waits",
                buckets=hdr_buckets(1e-4, 100.0, precision_bits=2))
            for _ in range(rng.randint(0, 60)):
                waits.observe(0.0 if rng.random() < 0.5
                              else rng.expovariate(5.0))
            tail = waits.percentile(policy.quantile)
            for wait in (0.0, -0.0, -1.0, float("nan"), float("inf"),
                         1e-12, tail, rng.expovariate(5.0)):
                assert policy.should_hedge(wait, waits) == \
                    _reference_should_hedge(policy, wait, waits), (
                        policy, wait, tail)
