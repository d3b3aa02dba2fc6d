"""Tests for the SLO histograms (repro.obs.slo) and their scheduler wiring."""

from __future__ import annotations

import pytest

from repro.errors import ObservabilityError
from repro.obs import MetricsRegistry, scope
from repro.obs.slo import MAX_TRACKED_WAVES, SLOTracker, hdr_buckets, slo_summary


class TestHdrBuckets:
    def test_bounds_strictly_increasing(self):
        bounds = hdr_buckets(1e-6, 10.0, precision_bits=2)
        assert bounds == sorted(bounds)
        assert len(set(bounds)) == len(bounds)
        assert bounds[-1] >= 10.0

    def test_relative_width_bounded_by_precision(self):
        for bits in (1, 2, 4):
            bounds = hdr_buckets(1e-3, 1.0, precision_bits=bits)
            max_rel = 1.0 / 2 ** bits
            for lo, hi in zip(bounds, bounds[1:]):
                assert (hi - lo) / lo <= max_rel + 1e-12

    def test_precision_zero_is_pure_powers_of_two(self):
        bounds = hdr_buckets(1.0, 16.0, precision_bits=0)
        assert bounds == [2.0, 4.0, 8.0, 16.0]

    def test_rejects_bad_ranges(self):
        with pytest.raises(ObservabilityError):
            hdr_buckets(0.0, 1.0)
        with pytest.raises(ObservabilityError):
            hdr_buckets(2.0, 1.0)
        with pytest.raises(ObservabilityError):
            hdr_buckets(1e-6, 1.0, precision_bits=9)

    def test_histogram_quantile_error_bounded(self):
        from repro.obs.metrics import Histogram

        h = Histogram("repro.test.hdr", buckets=hdr_buckets(1e-6, 100.0,
                                                            precision_bits=4))
        values = [1e-5 * (1.17 ** i) for i in range(100)]  # stays < 100.0
        for v in values:
            h.observe(v)
        exact = sorted(values)[int(0.95 * len(values)) - 1]
        assert h.percentile(95.0) == pytest.approx(exact, rel=1.0 / 16 + 0.02)


class TestSLOTracker:
    def test_records_step_token_wave_candidate(self):
        reg = MetricsRegistry()
        tracker = SLOTracker(reg, engine_batch=4)
        tracker.fold("decode_step", {"seconds": 1e-3,
                                     "live_ids": [0, 1, 4, 5]})  # waves 0, 1
        tracker.fold("decode_step", {"seconds": 2e-3, "live_ids": [4, 5]})
        tracker.fold("complete", {"latency_seconds": 5e-3})
        tracker.fold("prefill_chunk", {"seconds": 3e-3})
        # kinds without an SLO fold nothing, charged or not
        tracker.fold("queue", {"wave": 0})
        tracker.fold("retry", {"backoff_seconds": 1e-3, "joules": 1e-6})
        summary = slo_summary(reg)
        assert len(summary) == 6
        assert summary["repro.slo.prefill_chunk_seconds"]["count"] == 1
        assert summary["repro.slo.step_latency_seconds"]["count"] == 2
        assert summary["repro.slo.token_latency_seconds"]["count"] == 6
        assert summary["repro.slo.wave0.token_latency_seconds"]["count"] == 2
        assert summary["repro.slo.wave1.token_latency_seconds"]["count"] == 4
        assert summary["repro.slo.candidate_latency_seconds"]["count"] == 1
        assert (summary["repro.slo.candidate_latency_seconds"]["p50"]
                == pytest.approx(5e-3, rel=0.3))

    def test_wave_cardinality_capped(self):
        reg = MetricsRegistry()
        tracker = SLOTracker(reg, engine_batch=1)
        for candidate in range(2 * MAX_TRACKED_WAVES):
            tracker.fold("decode_step", {"seconds": 1e-4,
                                         "live_ids": [candidate]})
        wave_names = [n for n in reg.snapshot() if ".wave" in n]
        assert len(wave_names) <= MAX_TRACKED_WAVES
        last = f"repro.slo.wave{MAX_TRACKED_WAVES - 1}.token_latency_seconds"
        assert reg.snapshot()[last]["count"] == MAX_TRACKED_WAVES + 1

    def test_rejects_bad_batch(self):
        with pytest.raises(ObservabilityError):
            SLOTracker(MetricsRegistry(), engine_batch=0)

    def test_summary_skips_empty_and_non_slo(self):
        reg = MetricsRegistry()
        SLOTracker(reg, engine_batch=2)  # instruments exist but are empty
        reg.histogram("repro.other.h").observe(1.0)
        reg.counter("repro.slo.not_a_histogram").inc()
        assert slo_summary(reg) == {}


class TestSchedulerIntegration:
    def _run(self, registry, n_candidates=6, batch=2):
        from repro.llm import (
            ContinuousBatchingScheduler,
            InferenceEngine,
            NPUTransformer,
            Sampler,
            TransformerWeights,
        )
        from repro.llm.config import tiny_config

        with scope(metrics=registry):
            weights = TransformerWeights.generate(tiny_config(), seed=0)
            engine = InferenceEngine(NPUTransformer(weights), batch=batch,
                                     max_context=32, kv_backend="paged")
            scheduler = ContinuousBatchingScheduler(engine)
            return scheduler.generate(
                [1, 2, 3], n_candidates=n_candidates, max_new_tokens=4,
                sampler=Sampler(temperature=0.8, seed=0))

    def test_scheduler_populates_slo_histograms(self):
        reg = MetricsRegistry()
        result = self._run(reg)
        summary = slo_summary(reg)
        steps = summary["repro.slo.step_latency_seconds"]
        assert steps["count"] == result.n_steps
        assert steps["p50"] > 0.0
        assert steps["p99"] >= steps["p50"]
        # one candidate-latency observation per candidate
        assert (summary["repro.slo.candidate_latency_seconds"]["count"]
                == len(result.candidates))
        # one token observation per live candidate per step
        assert (summary["repro.slo.token_latency_seconds"]["count"]
                == sum(result.live_batch_per_step))
        # N=6 over batch 2 spans three lock-step waves
        waves = [n for n in summary if ".wave" in n]
        assert len(waves) == 3

    def test_candidate_latency_matches_sim_clock(self):
        reg = MetricsRegistry()
        result = self._run(reg, n_candidates=2, batch=2)
        hist = slo_summary(reg)["repro.slo.candidate_latency_seconds"]
        # a candidate cannot live longer than the whole run
        assert hist["max"] <= result.sim_seconds + 1e-12
