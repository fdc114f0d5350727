"""Unified metrics: labeled counters/gauges/histograms in one tree.

A :class:`MetricsRegistry` hands out metric *handles* keyed by
``(component, name, labels)``; components are namespaces (``"serve"``,
``"kv.shard0"``, ``"train.ps"``), so the whole stack's counters land in
one exportable tree instead of each layer's ad-hoc dict.  Two exports:

* :meth:`MetricsRegistry.to_json` — nested ``{component: {metric:
  value}}`` tree, the shape reports and benches persist;
* :meth:`MetricsRegistry.to_prometheus` — the Prometheus text
  exposition format (counters/gauges/histograms with labels), so a
  future serving endpoint can expose the same registry unchanged.

A registry constructed with ``enabled=False`` (and the module-level
:data:`DISABLED` singleton) returns shared no-op handles: every
``counter()/gauge()/histogram()`` call hands back the *same*
preallocated object and every ``inc()/set()/observe()`` is a single
method dispatch — instrumented hot paths allocate nothing when
observability is off.

Adapters absorb the telemetry the stack already produces.  They
duck-type their inputs (``StoreStats``-shaped counter objects,
``ServingTelemetry``-shaped reporters, replication-health ``extra``
dicts) so this module imports nothing from the layers it observes.
"""

from __future__ import annotations

import bisect
import math
from typing import Optional

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonic counter handle."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add a non-negative amount (counters only increase)."""
        if amount < 0:
            raise ValueError(f"counters only increase, got {amount}")
        self.value += amount


class Gauge:
    """Last-value-wins gauge handle."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self.value = value

    def add(self, amount: float) -> None:
        """Adjust the gauge by a signed amount."""
        self.value += amount


#: Default histogram bucket upper bounds: geometric, 1 µs .. 100 s —
#: wide enough for both wall-clock phase times and simulated latencies.
_DEFAULT_BOUNDS = tuple(10.0 ** (exponent / 2.0) for exponent in range(-12, 5))


class Histogram:
    """Fixed-bound histogram handle (Prometheus ``le`` semantics)."""

    __slots__ = ("bounds", "bucket_counts", "count", "total", "min_seen", "max_seen")

    def __init__(self, bounds: Optional[tuple] = None) -> None:
        chosen = tuple(bounds) if bounds is not None else _DEFAULT_BOUNDS
        if list(chosen) != sorted(chosen) or len(set(chosen)) != len(chosen):
            raise ValueError("histogram bounds must be strictly increasing")
        self.bounds = chosen
        self.bucket_counts = [0] * (len(chosen) + 1)  # + overflow (+Inf)
        self.count = 0
        self.total = 0.0
        self.min_seen = math.inf
        self.max_seen = 0.0

    def observe(self, value: float) -> None:
        """Record one value into its bucket and the summary stats."""
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min_seen:
            self.min_seen = value
        if value > self.max_seen:
            self.max_seen = value

    def summary(self) -> dict[str, float]:
        """The count/min/max/sum summary block."""
        return {
            "count": self.count,
            "sum": self.total,
            "mean": (self.total / self.count) if self.count else 0.0,
            "min": self.min_seen if self.count else 0.0,
            "max": self.max_seen,
        }


class _NoopCounter:
    __slots__ = ()
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NoopGauge:
    __slots__ = ()
    value = 0.0

    def set(self, value: float) -> None:
        pass

    def add(self, amount: float) -> None:
        pass


class _NoopHistogram:
    __slots__ = ()
    count = 0
    total = 0.0

    def observe(self, value: float) -> None:
        pass

    def summary(self) -> dict[str, float]:
        return {"count": 0, "sum": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0}


_NOOP_COUNTER = _NoopCounter()
_NOOP_GAUGE = _NoopGauge()
_NOOP_HISTOGRAM = _NoopHistogram()


class MetricsRegistry:
    """The tree of every handle, keyed ``(component, name, labels)``."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: (component, name, labels) -> handle
        self._metrics: dict[tuple[str, str, _LabelKey], object] = {}

    # ------------------------------------------------------------------
    # handles
    # ------------------------------------------------------------------
    def _handle(self, kind, component: str, name: str, labels: dict, **kwargs):
        key = (component, name, _label_key(labels))
        handle = self._metrics.get(key)
        if handle is None:
            handle = self._metrics[key] = kind(**kwargs)
        elif not isinstance(handle, kind):
            raise ValueError(
                f"metric {component}/{name}{dict(labels)} already registered "
                f"as {type(handle).__name__}, requested {kind.__name__}"
            )
        return handle

    def counter(self, component: str, name: str, **labels) -> Counter:
        """The counter handle for ``(component, name, labels)``."""
        if not self.enabled:
            return _NOOP_COUNTER  # type: ignore[return-value]
        return self._handle(Counter, component, name, labels)

    def gauge(self, component: str, name: str, **labels) -> Gauge:
        """The gauge handle for ``(component, name, labels)``."""
        if not self.enabled:
            return _NOOP_GAUGE  # type: ignore[return-value]
        return self._handle(Gauge, component, name, labels)

    def histogram(
        self, component: str, name: str, bounds: Optional[tuple] = None, **labels
    ) -> Histogram:
        """The histogram handle for ``(component, name, labels)``."""
        if not self.enabled:
            return _NOOP_HISTOGRAM  # type: ignore[return-value]
        return self._handle(Histogram, component, name, labels, bounds=bounds)

    def namespace(self, component: str) -> "Namespace":
        """A registry view with ``component`` pre-bound."""
        return Namespace(self, component)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        """Nested ``{component: {metric: value-or-summary}}`` tree."""
        tree: dict[str, dict] = {}
        for (component, name, labels) in sorted(self._metrics):
            handle = self._metrics[(component, name, labels)]
            leaf_name = name
            if labels:
                rendered = ",".join(f"{k}={v}" for k, v in labels)
                leaf_name = f"{name}{{{rendered}}}"
            leaf = (
                handle.summary()
                if isinstance(handle, Histogram)
                else handle.value  # type: ignore[union-attr]
            )
            tree.setdefault(component, {})[leaf_name] = leaf
        return tree

    @staticmethod
    def _prom_name(component: str, name: str) -> str:
        raw = f"repro_{component}_{name}"
        return "".join(ch if (ch.isalnum() or ch == "_") else "_" for ch in raw)

    @staticmethod
    def _prom_labels(labels: _LabelKey, extra: str = "") -> str:
        rendered = [f'{k}="{v}"' for k, v in labels]
        if extra:
            rendered.append(extra)
        return "{" + ",".join(rendered) + "}" if rendered else ""

    def to_prometheus(self) -> str:
        """Prometheus text exposition of the whole tree."""
        lines: list[str] = []
        typed: set[str] = set()
        for (component, name, labels) in sorted(self._metrics):
            handle = self._metrics[(component, name, labels)]
            metric = self._prom_name(component, name)
            if isinstance(handle, Counter):
                if metric not in typed:
                    lines.append(f"# TYPE {metric} counter")
                    typed.add(metric)
                lines.append(f"{metric}{self._prom_labels(labels)} {handle.value}")
            elif isinstance(handle, Gauge):
                if metric not in typed:
                    lines.append(f"# TYPE {metric} gauge")
                    typed.add(metric)
                lines.append(f"{metric}{self._prom_labels(labels)} {handle.value}")
            else:
                histogram = handle
                if metric not in typed:
                    lines.append(f"# TYPE {metric} histogram")
                    typed.add(metric)
                cumulative = 0
                for bound, bucket in zip(
                    histogram.bounds, histogram.bucket_counts  # type: ignore[union-attr]
                ):
                    cumulative += bucket
                    label = self._prom_labels(labels, f'le="{bound!r}"')
                    lines.append(f"{metric}_bucket{label} {cumulative}")
                label = self._prom_labels(labels, 'le="+Inf"')
                lines.append(f"{metric}_bucket{label} {histogram.count}")
                lines.append(
                    f"{metric}_sum{self._prom_labels(labels)} {histogram.total}"
                )
                lines.append(
                    f"{metric}_count{self._prom_labels(labels)} {histogram.count}"
                )
        return "\n".join(lines) + ("\n" if lines else "")

    # ------------------------------------------------------------------
    # adapters for the stack's existing telemetry blocks
    # ------------------------------------------------------------------
    def absorb_store_stats(self, component: str, stats) -> None:
        """Fold a ``StoreStats``-shaped counter object into the tree.

        Duck-typed: needs ``gets/puts/deletes/hits/misses`` attributes
        and optionally ``hit_ratio()`` and an ``extra`` dict.  A
        replication-health ``extra`` block (``failovers`` present) is
        absorbed via :meth:`absorb_replication_health`.
        """
        if not self.enabled:
            return
        for field in ("gets", "puts", "deletes", "hits", "misses"):
            value = getattr(stats, field, None)
            if value is not None:
                self.gauge(component, f"store_{field}").set(value)
        ratio = getattr(stats, "hit_ratio", None)
        if callable(ratio):
            self.gauge(component, "store_hit_ratio").set(ratio())
        extra = getattr(stats, "extra", None) or {}
        shard_ops = extra.get("shard_ops")
        if shard_ops is not None:
            for shard, ops in enumerate(shard_ops):
                self.gauge(component, "shard_ops", shard=shard).set(ops)
        if "failovers" in extra:
            self.absorb_replication_health(component, extra)

    def absorb_replication_health(self, component: str, extra: dict) -> None:
        """Fold a replicated store's health block (``stats.extra``) in."""
        if not self.enabled:
            return
        for field in ("failovers", "catchup_keys", "resyncs"):
            if field in extra:
                self.gauge(component, f"replication_{field}").set(extra[field])
        lags = extra.get("replica_lag")
        if lags:
            flat = [lag for group in lags for lag in group]
            self.gauge(component, "replication_max_lag").set(max(flat, default=0))
        hints = extra.get("hints_outstanding")
        if hints:
            flat = [count for group in hints for count in group]
            self.gauge(component, "replication_hints_outstanding").set(
                max(flat, default=0)
            )

    def absorb_serving_telemetry(self, component: str, telemetry) -> None:
        """Fold a ``ServingTelemetry``-shaped reporter into the tree.

        Duck-typed: ``requests_completed``, ``batches_served``,
        ``refreshes``, ``throughput()``, and a ``latency`` histogram
        with ``percentile(p)``/``mean``/``max_seen``.
        """
        if not self.enabled:
            return
        for field in ("requests_completed", "batches_served", "refreshes"):
            value = getattr(telemetry, field, None)
            if value is not None:
                self.gauge(component, field).set(value)
        throughput = getattr(telemetry, "throughput", None)
        if callable(throughput):
            self.gauge(component, "throughput_rps").set(throughput())
        latency = getattr(telemetry, "latency", None)
        if latency is not None and getattr(latency, "count", 0):
            for quantile in (50, 95, 99):
                self.gauge(
                    component, "latency_seconds", quantile=f"p{quantile}"
                ).set(latency.percentile(quantile))
            self.gauge(component, "latency_seconds", quantile="mean").set(latency.mean)
            self.gauge(component, "latency_seconds", quantile="max").set(
                latency.max_seen
            )


    def absorb_tenant_report(self, component: str, report: dict) -> None:
        """Fold a serving-loop report's tenants matrix into the tree.

        Duck-typed on the dict :meth:`ServingLoop.report
        <repro.serve.loop.ServingLoop.report>` builds: the
        ``tenants`` block becomes per-tenant labeled gauges (p99,
        attainment, admitted/shed counters), and the autoscaler's
        completion counters ride along when present.
        """
        if not self.enabled:
            return
        for name, block in (report.get("tenants") or {}).items():
            latency = block.get("latency") or {}
            if "p99" in latency:
                self.gauge(component, "tenant_p99_seconds", tenant=name).set(
                    latency["p99"]
                )
            for field in ("slo_attainment", "admitted", "shed_rate", "shed_queue"):
                if field in block:
                    self.gauge(component, f"tenant_{field}", tenant=name).set(
                        block[field]
                    )
        if "hedged_reads" in report:
            self.gauge(component, "hedged_reads").set(report["hedged_reads"])
        autoscaler = report.get("autoscaler") or {}
        for field in (
            "splits_completed",
            "migrations_completed",
            "replicas_added",
            "replicas_removed",
        ):
            if field in autoscaler:
                self.gauge(component, f"autoscale_{field}").set(autoscaler[field])


class Namespace:
    """A component-scoped view of a registry (saves repeating the name)."""

    __slots__ = ("_registry", "component")

    def __init__(self, registry: MetricsRegistry, component: str) -> None:
        self._registry = registry
        self.component = component

    def counter(self, name: str, **labels) -> Counter:
        """Counter handle under the bound component."""
        return self._registry.counter(self.component, name, **labels)

    def gauge(self, name: str, **labels) -> Gauge:
        """Gauge handle under the bound component."""
        return self._registry.gauge(self.component, name, **labels)

    def histogram(self, name: str, bounds: Optional[tuple] = None, **labels) -> Histogram:
        """Histogram handle under the bound component."""
        return self._registry.histogram(self.component, name, bounds=bounds, **labels)


#: A shared always-off registry: handles from it are the no-op
#: singletons, so a module can keep one metric attribute unconditionally.
DISABLED = MetricsRegistry(enabled=False)


__all__ = [
    "Counter",
    "DISABLED",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Namespace",
]
