"""Serving metrics: histogram bucketing, percentile bounds, thread safety."""

import threading

import pytest

from repro.serve import LatencyHistogram, ServeMetrics


class TestLatencyHistogram:
    def test_empty(self):
        histogram = LatencyHistogram()
        assert histogram.count == 0
        assert histogram.percentile(0.5) == 0.0
        assert histogram.mean() == 0.0
        assert histogram.max_seconds == 0.0

    def test_counts_and_moments(self):
        histogram = LatencyHistogram()
        for value in (1e-5, 2e-5, 3e-5, 4e-4):
            histogram.record(value)
        assert histogram.count == 4
        assert histogram.total_seconds == pytest.approx(4.6e-4)
        assert histogram.mean() == pytest.approx(4.6e-4 / 4)
        assert histogram.max_seconds == pytest.approx(4e-4)

    def test_percentile_upper_bound_quantization(self):
        # Buckets grow by 2**0.25, so the estimate is within [x, x*ratio).
        histogram = LatencyHistogram()
        for _ in range(100):
            histogram.record(1e-3)
        for q in (0.5, 0.9, 0.99, 1.0):
            estimate = histogram.percentile(q)
            assert 1e-3 <= estimate <= 1e-3 * 2**0.25

    def test_percentile_rank_selection(self):
        histogram = LatencyHistogram()
        # 99 fast samples, 1 slow: p50 must see the fast bucket, p99+ the slow.
        for _ in range(99):
            histogram.record(1e-5)
        histogram.record(1.0)
        assert histogram.percentile(0.5) <= 1e-5 * 2**0.25
        assert histogram.percentile(0.995) >= 1.0

    def test_overflow_bucket_reports_exact_max(self):
        histogram = LatencyHistogram(max_seconds=1.0)
        histogram.record(5.0)
        assert histogram.percentile(0.99) == pytest.approx(5.0)

    def test_underflow_lands_in_first_bucket(self):
        histogram = LatencyHistogram(min_seconds=1e-6)
        histogram.record(1e-9)
        assert histogram.count == 1
        assert histogram.percentile(0.5) == pytest.approx(1e-6)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            LatencyHistogram(min_seconds=0.0)
        with pytest.raises(ValueError):
            LatencyHistogram(growth=1.0)
        with pytest.raises(ValueError):
            LatencyHistogram().percentile(0.0)

    def test_concurrent_records_lose_nothing(self):
        histogram = LatencyHistogram()

        def hammer():
            for _ in range(1000):
                histogram.record(1e-4)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert histogram.count == 4000
        assert histogram.total_seconds == pytest.approx(0.4)

    def test_as_dict_keys(self):
        histogram = LatencyHistogram()
        histogram.record(1e-4)
        summary = histogram.as_dict()
        assert summary["count"] == 1
        assert set(summary) == {
            "count",
            "mean_seconds",
            "max_seconds",
            "p50_seconds",
            "p90_seconds",
            "p99_seconds",
        }


class TestServeMetrics:
    def test_query_counters(self):
        metrics = ServeMetrics()
        metrics.record_query("posterior", 1e-5)
        metrics.record_query("posterior", 2e-5)
        metrics.record_query("top_conflicts", 5e-5)
        assert metrics.query_count == 3
        assert metrics.query_counts == {"posterior": 2, "top_conflicts": 1}

    def test_ingest_counters(self):
        metrics = ServeMetrics()
        metrics.record_ingest(64)
        metrics.record_ingest(32)
        metrics.record_ingest_error()
        assert metrics.ingest_batches == 2
        assert metrics.ingest_observations == 96
        assert metrics.ingest_errors == 1

    def test_publish_counters_and_age(self):
        metrics = ServeMetrics()
        assert metrics.snapshot_age_seconds() is None
        metrics.record_publish(1e-3)
        assert metrics.swap_count == 1
        age = metrics.snapshot_age_seconds()
        assert age is not None and age >= 0.0
        assert metrics.publish_latency.count == 1

    def test_as_dict_structure(self):
        metrics = ServeMetrics()
        metrics.record_query("value", 1e-5)
        metrics.record_ingest(8)
        metrics.record_publish(1e-3)
        report = metrics.as_dict()
        assert report["queries"]["total"] == 1
        assert report["queries"]["by_kind"] == {"value": 1}
        assert report["ingest"] == {"batches": 1, "observations": 8, "errors": 0}
        assert report["snapshots"]["swaps"] == 1
        assert report["snapshots"]["age_seconds"] >= 0.0
        assert report["query_latency"]["count"] == 1
