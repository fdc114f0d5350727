"""The unified metrics registry and hot-path profiler (repro.obs).

Covers the handle contract (one object per ``(component, name,
labels)``), the zero-allocation disabled mode, both export formats, the
adapters that absorb the stack's existing telemetry blocks, and the
wall-clock profiler the PR-8 hot paths are wired through.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.kv import StoreStats
from repro.obs import MetricsRegistry, profile
from repro.obs.registry import (
    DISABLED,
    _NOOP_COUNTER,
    _NOOP_GAUGE,
    _NOOP_HISTOGRAM,
)
from repro.serve.telemetry import ServingTelemetry


class TestHandles:
    def test_same_key_returns_same_handle(self):
        registry = MetricsRegistry()
        a = registry.counter("serve", "requests", tier="hot")
        b = registry.counter("serve", "requests", tier="hot")
        assert a is b
        a.inc(3)
        assert b.value == 3

    def test_label_order_does_not_split_handles(self):
        registry = MetricsRegistry()
        a = registry.gauge("kv", "lag", shard=0, replica=1)
        b = registry.gauge("kv", "lag", replica=1, shard=0)
        assert a is b

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("serve", "requests")
        with pytest.raises(ValueError):
            registry.gauge("serve", "requests")

    def test_counter_is_monotonic(self):
        counter = MetricsRegistry().counter("serve", "requests")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_histogram_buckets_and_summary(self):
        hist = MetricsRegistry().histogram("kv", "batch_seconds")
        for value in (1e-5, 1e-3, 0.1):
            hist.observe(value)
        summary = hist.summary()
        assert summary["count"] == 3
        assert summary["min"] == 1e-5
        assert summary["max"] == 0.1
        assert sum(hist.bucket_counts) == 3
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("kv", "bad", bounds=(2.0, 1.0))

    def test_namespace_scopes_the_component(self):
        registry = MetricsRegistry()
        serve = registry.namespace("serve")
        serve.counter("requests").inc()
        assert registry.counter("serve", "requests").value == 1


class TestDisabledMode:
    def test_disabled_registry_hands_out_shared_noops(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("a", "b") is _NOOP_COUNTER
        assert registry.gauge("a", "b") is _NOOP_GAUGE
        assert registry.histogram("a", "b") is _NOOP_HISTOGRAM
        assert DISABLED.counter("x", "y") is _NOOP_COUNTER

    def test_noop_handles_absorb_updates_without_state(self):
        counter = DISABLED.counter("a", "b")
        counter.inc(10)
        assert counter.value == 0.0
        DISABLED.gauge("a", "b").set(5)
        DISABLED.histogram("a", "c").observe(1.0)
        assert DISABLED.to_json() == {}

    def test_disabled_adapters_are_noops(self):
        DISABLED.absorb_store_stats("kv", StoreStats())
        DISABLED.absorb_serving_telemetry("serve", ServingTelemetry())
        DISABLED.absorb_replication_health("kv", {"failovers": 3})
        assert DISABLED.to_json() == {}


class TestExport:
    def _populated(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.counter("serve", "requests").inc(7)
        registry.gauge("kv", "lag", shard=0).set(2)
        registry.histogram("kv", "batch_seconds").observe(1e-3)
        return registry

    def test_json_tree_shape(self):
        tree = self._populated().to_json()
        assert tree["serve"]["requests"] == 7
        assert tree["kv"]["lag{shard=0}"] == 2
        assert tree["kv"]["batch_seconds"]["count"] == 1
        json.dumps(tree)  # must be serializable as-is

    def test_prometheus_text_format(self):
        text = self._populated().to_prometheus()
        assert "# TYPE repro_serve_requests counter" in text
        assert "repro_serve_requests 7" in text
        assert 'repro_kv_lag{shard="0"} 2' in text
        assert "# TYPE repro_kv_batch_seconds histogram" in text
        assert "repro_kv_batch_seconds_count 1" in text
        # Cumulative le buckets: the +Inf bucket equals the count.
        assert 'le="+Inf"} 1' in text

    def test_prometheus_sanitizes_metric_names(self):
        registry = MetricsRegistry()
        registry.counter("kv.shard-0", "ops").inc()
        assert "repro_kv_shard_0_ops 1" in registry.to_prometheus()


class TestAdapters:
    def test_absorb_store_stats(self):
        registry = MetricsRegistry()
        stats = StoreStats()
        stats.gets, stats.hits, stats.misses = 10, 7, 3
        stats.extra["shard_ops"] = [4, 6]
        registry.absorb_store_stats("kv", stats)
        tree = registry.to_json()["kv"]
        assert tree["store_gets"] == 10
        assert tree["store_hit_ratio"] == pytest.approx(0.7)
        assert tree["shard_ops{shard=1}"] == 6

    def test_absorb_replication_health_via_store_stats(self):
        registry = MetricsRegistry()
        stats = StoreStats()
        stats.extra.update(
            {
                "failovers": 2,
                "catchup_keys": 40,
                "replica_lag": [[0, 3], [1, 0]],
                "hints_outstanding": [[0, 5], [0, 0]],
            }
        )
        registry.absorb_store_stats("kv", stats)
        tree = registry.to_json()["kv"]
        assert tree["replication_failovers"] == 2
        assert tree["replication_catchup_keys"] == 40
        assert tree["replication_max_lag"] == 3
        assert tree["replication_hints_outstanding"] == 5

    def test_absorb_serving_telemetry(self):
        registry = MetricsRegistry()
        telemetry = ServingTelemetry()
        telemetry.record_requests(np.array([0.0]), 1e-3)
        telemetry.record_requests(np.array([0.0]), 2e-3)
        telemetry.record_batch(2, 0)
        registry.absorb_serving_telemetry("serve", telemetry)
        tree = registry.to_json()["serve"]
        assert tree["requests_completed"] == 2
        assert tree["batches_served"] == 1
        assert tree["latency_seconds{quantile=p99}"] > 0
        assert tree["latency_seconds{quantile=max}"] == pytest.approx(2e-3)

    def test_absorb_tenant_report(self):
        registry = MetricsRegistry()
        report = {
            "tenants": {
                "gold": {
                    "latency": {"p99": 120e-6},
                    "slo_attainment": 0.99,
                    "admitted": 400,
                    "shed_rate": 0,
                    "shed_queue": 0,
                },
                "bronze": {
                    "latency": {"p99": 3e-3},
                    "slo_attainment": 0.7,
                    "admitted": 900,
                    "shed_rate": 100,
                    "shed_queue": 7,
                },
            },
            "hedged_reads": 12,
            "autoscaler": {"splits_completed": 1, "replicas_added": 2},
        }
        registry.absorb_tenant_report("serve", report)
        tree = registry.to_json()["serve"]
        assert tree["tenant_p99_seconds{tenant=gold}"] == pytest.approx(120e-6)
        assert tree["tenant_slo_attainment{tenant=bronze}"] == pytest.approx(0.7)
        assert tree["tenant_shed_rate{tenant=bronze}"] == 100
        assert tree["hedged_reads"] == 12
        assert tree["autoscale_splits_completed"] == 1
        assert tree["autoscale_replicas_added"] == 2


class TestProfiler:
    def setup_method(self):
        profile.disable()
        profile.reset()

    def teardown_method(self):
        profile.disable()
        profile.reset()

    def test_disabled_begin_skips_the_clock_entirely(self):
        assert not profile.is_enabled()
        token = profile.begin()
        assert token == 0.0
        profile.end("phase", token, units=100)
        assert profile.snapshot() == {}

    def test_enabled_profiler_accumulates_phases(self):
        profile.enable()
        for _ in range(3):
            token = profile.begin()
            profile.end("codec.encode", token, units=10)
        snap = profile.snapshot()
        assert snap["codec.encode"]["calls"] == 3
        assert snap["codec.encode"]["units"] == 30
        assert snap["codec.encode"]["seconds"] >= 0.0

    def test_reset_clears_accumulators(self):
        profile.enable()
        profile.end("phase", profile.begin(), units=1)
        assert profile.snapshot()
        profile.reset()
        assert profile.snapshot() == {}

    def test_hot_paths_report_through_the_profiler(self):
        import numpy as np

        from repro.kv.common.serialization import (
            decode_values,
            encode_records,
            encode_values,
            encode_vectors,
        )

        profile.enable()
        rows = encode_vectors(np.ones((8, 4), dtype=np.float32))
        encode_records(list(range(8)), rows)
        decode_values(encode_values([bytes(row) for row in rows]), 8)
        snap = profile.snapshot()
        assert snap["codec.encode_records"]["units"] == 8
        assert snap["codec.encode_values"]["units"] == 8
        assert snap["codec.decode_values"]["units"] == 8
