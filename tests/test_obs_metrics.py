"""Tests for the metrics registry (repro.obs.metrics)."""

from __future__ import annotations

import pytest

from repro.errors import ObservabilityError
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


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


class TestGlobalDefault:
    def test_set_metrics_swaps_and_returns_previous(self):
        mine = MetricsRegistry()
        previous = obs_metrics.set_metrics(mine)
        try:
            assert obs_metrics.get_metrics() is mine
            obs_metrics.counter("repro.test.global").inc()
            assert mine.snapshot()["repro.test.global"]["value"] == 1.0
        finally:
            assert obs_metrics.set_metrics(previous) is mine

    def test_module_level_helpers_use_default(self):
        mine = MetricsRegistry()
        previous = obs_metrics.set_metrics(mine)
        try:
            obs_metrics.gauge("repro.test.g").set(2)
            obs_metrics.histogram("repro.test.h").observe(1.0)
            snap = mine.snapshot()
            assert snap["repro.test.g"]["value"] == 2.0
            assert snap["repro.test.h"]["count"] == 1
        finally:
            obs_metrics.set_metrics(previous)


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
