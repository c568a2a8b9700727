"""Tests for the metrics registry (:mod:`repro.obs.metrics`)."""

import os
import sys
import threading

import pytest

from repro.obs.metrics import (
    METRICS_SCHEMA_VERSION,
    MetricsRegistry,
    global_registry,
    histogram_summary,
    reset_global_registry,
)


class TestCounters:
    def test_inc_creates_and_accumulates(self):
        registry = MetricsRegistry()
        registry.inc("cache.hits")
        registry.inc("cache.hits", 4)
        assert registry.counter("cache.hits") == 5

    def test_untouched_counter_reads_zero(self):
        assert MetricsRegistry().counter("nope") == 0

    def test_concurrent_inc_loses_no_update(self):
        registry = MetricsRegistry()
        threads = [
            threading.Thread(
                target=lambda: [
                    registry.inc("replication.plan.solves")
                    for _ in range(2000)
                ]
            )
            for _ in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert registry.counter("replication.plan.solves") == 8 * 2000

    def test_set_counter_overwrites(self):
        registry = MetricsRegistry()
        registry.inc("cache.hits", 3)
        registry.set_counter("cache.hits", 11)
        assert registry.counter("cache.hits") == 11


class TestHistograms:
    def test_summary_fields(self):
        summary = histogram_summary([1.0, 2.0, 3.0, 4.0])
        assert summary["count"] == 4
        assert summary["sum"] == 10.0
        assert summary["mean"] == 2.5
        assert summary["max"] == 4.0
        assert summary["p50"] == 2.0
        assert summary["p95"] == 4.0

    def test_empty_summary_is_all_zero(self):
        summary = histogram_summary([])
        assert summary["count"] == 0
        assert summary["p95"] == 0.0

    def test_single_observation(self):
        summary = histogram_summary([0.5])
        assert summary["p50"] == 0.5 == summary["p95"] == summary["max"]

    def test_observe_feeds_aggregate(self):
        registry = MetricsRegistry()
        registry.observe("experiment.E1.seconds", 0.2)
        registry.observe("experiment.E1.seconds", 0.4)
        summary = registry.aggregate_histograms()["experiment.E1.seconds"]
        assert summary["count"] == 2
        assert summary["sum"] == pytest.approx(0.6)


class TestCrossProcessPayloads:
    def _payload(self, pid, counters, histograms=None):
        return {
            "schema": METRICS_SCHEMA_VERSION,
            "pid": pid,
            "counters": counters,
            "histograms": histograms or {},
        }

    def test_payload_is_a_snapshot_of_local_state(self):
        registry = MetricsRegistry()
        registry.inc("cache.hits", 2)
        registry.observe("experiment.E1.seconds", 0.1)
        payload = registry.payload()
        assert payload["pid"] == os.getpid()
        assert payload["counters"] == {"cache.hits": 2}
        assert payload["histograms"] == {"experiment.E1.seconds": [0.1]}

    def test_aggregate_sums_parent_and_workers(self):
        registry = MetricsRegistry()
        registry.inc("cache.hits", 1)
        registry.ingest(self._payload(101, {"cache.hits": 3}))
        registry.ingest(self._payload(102, {"cache.hits": 5}))
        assert registry.aggregate_counters()["cache.hits"] == 9
        assert registry.process_pids() == [101, 102]
        assert registry.process_counters(101) == {"cache.hits": 3}

    def test_reingesting_a_pid_replaces_not_adds(self):
        # Payloads are cumulative snapshots: a pool worker that runs
        # five jobs reports its counters once, not five times.
        registry = MetricsRegistry()
        registry.ingest(self._payload(101, {"cache.hits": 3}))
        registry.ingest(self._payload(101, {"cache.hits": 7}))
        assert registry.aggregate_counters()["cache.hits"] == 7

    def test_aggregate_histograms_merge_observations(self):
        registry = MetricsRegistry()
        registry.observe("experiment.E1.seconds", 0.1)
        registry.ingest(
            self._payload(
                101, {}, {"experiment.E1.seconds": [0.3, 0.5]}
            )
        )
        summary = registry.aggregate_histograms()["experiment.E1.seconds"]
        assert summary["count"] == 3
        assert summary["max"] == 0.5


class TestJsonDocument:
    def test_layout(self, tmp_path):
        registry = MetricsRegistry()
        registry.inc("cache.hits", 2)
        registry.ingest(
            {
                "schema": METRICS_SCHEMA_VERSION,
                "pid": 101,
                "counters": {"cache.hits": 3},
                "histograms": {"experiment.E1.seconds": [0.2]},
            }
        )
        document = registry.to_json_dict()
        assert document["schema"] == METRICS_SCHEMA_VERSION
        assert document["parent_pid"] == os.getpid()
        assert document["aggregate"]["counters"]["cache.hits"] == 5
        assert document["parent"]["counters"]["cache.hits"] == 2
        assert document["processes"]["101"]["counters"]["cache.hits"] == 3
        histogram = document["processes"]["101"]["histograms"][
            "experiment.E1.seconds"
        ]
        assert histogram["count"] == 1  # summarized, not raw samples

    def test_write_json_round_trips(self, tmp_path):
        import json

        registry = MetricsRegistry()
        registry.inc("runner.retries")
        path = tmp_path / "metrics.json"
        registry.write_json(path)
        document = json.loads(path.read_text())
        assert document["aggregate"]["counters"]["runner.retries"] == 1

    def test_clear_drops_everything(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.observe("h", 1.0)
        registry.ingest(
            {"pid": 101, "counters": {"a": 1}, "histograms": {}}
        )
        registry.clear()
        assert registry.aggregate_counters() == {}
        assert registry.process_pids() == []


class TestGlobalRegistry:
    def test_reset_swaps_the_instance(self):
        first = global_registry()
        first.inc("marker")
        fresh = reset_global_registry()
        try:
            assert fresh is global_registry()
            assert fresh is not first
            assert fresh.counter("marker") == 0
        finally:
            reset_global_registry()


class TestReservoirHistograms:
    def test_samples_are_bounded_but_aggregates_exact(self):
        from repro.obs.metrics import HISTOGRAM_RESERVOIR_SIZE

        registry = MetricsRegistry()
        total = HISTOGRAM_RESERVOIR_SIZE + 500
        for value in range(total):
            registry.observe("big.series", float(value))
        payload = registry.payload()
        samples = payload["histograms"]["big.series"]
        stats = payload["histogram_stats"]["big.series"]
        assert len(samples) == HISTOGRAM_RESERVOIR_SIZE
        assert stats["count"] == total
        assert stats["sum"] == pytest.approx(sum(range(total)))
        assert stats["max"] == float(total - 1)
        summary = registry.to_json_dict()["parent"]["histograms"][
            "big.series"
        ]
        # Exact aggregates survive sampling; percentiles come from the
        # reservoir and stay within the observed range.
        assert summary["count"] == total
        assert summary["max"] == float(total - 1)
        assert 0.0 <= summary["p50"] <= float(total - 1)
        assert summary["p50"] <= summary["p99"] <= summary["max"]

    def test_p99_reported_and_exact_below_capacity(self):
        registry = MetricsRegistry()
        for value in range(1, 101):
            registry.observe("small.series", float(value))
        summary = registry.to_json_dict()["parent"]["histograms"][
            "small.series"
        ]
        assert summary["p99"] == 99.0  # nearest-rank on 1..100
        assert summary["p95"] == 95.0

    def test_reservoir_is_deterministic_per_name(self):
        first = MetricsRegistry()
        second = MetricsRegistry()
        for value in range(10_000):
            first.observe("det.series", float(value))
            second.observe("det.series", float(value))
        assert (
            first.payload()["histograms"]["det.series"]
            == second.payload()["histograms"]["det.series"]
        )

    def test_legacy_payload_without_stats_still_aggregates(self):
        registry = MetricsRegistry()
        registry.ingest(
            {
                "pid": 4242,
                "counters": {},
                "histograms": {"old.series": [1.0, 3.0]},
            }
        )
        merged = registry.aggregate_histograms()
        assert merged["old.series"]["count"] == 2
        assert merged["old.series"]["sum"] == pytest.approx(4.0)
        assert merged["old.series"]["max"] == 3.0
        doc = registry.to_json_dict()
        assert doc["processes"]["4242"]["histograms"]["old.series"][
            "count"
        ] == 2

    def test_worker_stats_fold_into_aggregate_exactly(self):
        from repro.obs.metrics import HISTOGRAM_RESERVOIR_SIZE

        registry = MetricsRegistry()
        registry.observe("shared.series", 1.0)
        cap = HISTOGRAM_RESERVOIR_SIZE
        worker_samples = [float(v) for v in range(cap)]
        registry.ingest(
            {
                "pid": 77,
                "counters": {},
                "histograms": {"shared.series": worker_samples},
                "histogram_stats": {
                    "shared.series": {
                        "count": cap + 1000,
                        "sum": 123456789.0,
                        "max": 99999.0,
                    }
                },
            }
        )
        doc = registry.to_json_dict()
        merged = doc["aggregate"]["histograms"]["shared.series"]
        assert merged["count"] == cap + 1000 + 1
        assert merged["sum"] == pytest.approx(123456789.0 + 1.0)
        assert merged["max"] == 99999.0
