"""Serving-side metrics: latency percentiles, distributions, SLO report.

Latencies are recorded into a log-bucketed histogram (constant relative
error, like HdrHistogram's philosophy at a fraction of the machinery) so
recording is O(1) and memory is independent of request count — the load
generator models millions of users, and the telemetry must not be the
thing that doesn't scale.  Batch sizes and queue depths use the same
structure over a linear domain.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

#: Fewer samples than this never become an array: NumPy's per-call cost
#: (~30 us a batch) pays off from here; per-request serving records ones.
ARRAY_MIN = 32


class LatencyHistogram:
    """Log-spaced latency histogram with percentile estimation.

    Buckets grow geometrically between ``min_latency`` and
    ``max_latency`` (defaults: 100 ns .. 100 s, ~4.6% relative width),
    so p50/p95/p99 come back with bounded relative error at any scale
    from cache hits to deep overload queueing.
    """

    def __init__(
        self,
        min_latency: float = 100e-9,
        max_latency: float = 100.0,
        buckets_per_decade: int = 50,
    ) -> None:
        if min_latency <= 0 or max_latency <= min_latency:
            raise ValueError("need 0 < min_latency < max_latency")
        self._min = min_latency
        self._log_min = math.log(min_latency)
        decades = math.log10(max_latency / min_latency)
        self._bucket_count = max(1, int(math.ceil(decades * buckets_per_decade)))
        self._log_width = (math.log(max_latency) - self._log_min) / self._bucket_count
        self._counts = [0] * (self._bucket_count + 2)  # + underflow/overflow
        self.count = 0
        self.total = 0.0
        self.max_seen = 0.0

    def _bucket(self, latency: float) -> int:
        if latency < self._min:
            return 0
        index = int((math.log(latency) - self._log_min) / self._log_width) + 1
        return min(index, self._bucket_count + 1)

    def _bucket_upper(self, index: int) -> float:
        if index <= 0:
            return self._min
        return math.exp(self._log_min + index * self._log_width)

    def record(self, latency: float) -> None:
        """Record one non-negative latency sample."""
        if latency < 0:
            raise ValueError(f"negative latency {latency!r}")
        self._counts[self._bucket(latency)] += 1
        self.count += 1
        self.total += latency
        if latency > self.max_seen:
            self.max_seen = latency

    def _buckets_of(self, latencies: np.ndarray) -> np.ndarray:
        """``_bucket`` of every sample; within 1e-9 of a bucket edge, where
        NumPy's ``log`` and libm's may truncate differently, by ``_bucket``."""
        position = (np.log(np.maximum(latencies, self._min)) - self._log_min) / self._log_width
        buckets = np.minimum(position.astype(np.int64) + 1, self._bucket_count + 1)
        buckets[latencies < self._min] = 0
        on_edge = np.abs(position - np.rint(position)) < 1e-9
        for index in np.flatnonzero(on_edge).tolist():
            buckets[index] = self._bucket(float(latencies[index]))
        return buckets

    def record_many(self, latencies, *mirrors: "LatencyHistogram") -> None:
        """Record a batch of samples exactly as :meth:`record` would, one
        by one in order — here and in ``mirrors`` (histograms of this
        geometry; buckets are computed once).  A negative sample raises
        before anything is recorded."""
        if len(latencies) and min(latencies) < 0:
            raise ValueError(f"negative latency {min(latencies)!r}")
        targets = (self, *mirrors)
        if len(latencies) < ARRAY_MIN:
            for latency in latencies:
                for histogram in targets:
                    histogram.record(latency)
            return
        samples = np.asarray(latencies, dtype=np.float64)
        binned = np.bincount(self._buckets_of(samples))
        occupied = np.flatnonzero(binned)
        increments = list(zip(occupied.tolist(), binned[occupied].tolist()))
        largest = float(samples.max())
        for histogram in targets:
            for bucket, count in increments:
                histogram._counts[bucket] += count
            histogram.count += len(samples)
            # Sequential like ``total +=`` (``sum`` is pairwise): reports pin the mean.
            running = np.cumsum(np.concatenate(((histogram.total,), samples)))
            histogram.total = float(running[-1])
            histogram.max_seen = max(histogram.max_seen, largest)

    def percentile(self, p: float) -> float:
        """Upper bound of the bucket holding the ``p``-th percentile.

        Returns 0 for an empty histogram.  ``p`` is in [0, 100].  The
        target rank is clamped to at least one sample so ``p=0`` reports
        the smallest occupied bucket (not the histogram floor), and the
        bucket's upper edge is clamped to ``max_seen`` so a sparse
        histogram (one sample, or all samples maximal) never reports a
        latency larger than any it actually saw.
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if self.count == 0:
            return 0.0
        target = max(1, math.ceil(self.count * p / 100.0))
        seen = 0
        for index, bucket_count in enumerate(self._counts):
            seen += bucket_count
            if seen >= target:
                if index == len(self._counts) - 1:
                    return self.max_seen  # overflow bucket: exact max
                return min(self._bucket_upper(index), self.max_seen)
        return self.max_seen

    def fraction_below(self, threshold: float) -> float:
        """Fraction of recorded samples whose bucket lies at or below
        ``threshold`` — the SLO *attainment* of a latency target.

        Resolution is one bucket (~4.6% relative width at the default
        geometry): a bucket counts as attained when its upper edge is
        within the threshold.  Returns 1.0 for an empty histogram (no
        request has missed an SLO nobody asked to meet).
        """
        if threshold < 0:
            raise ValueError(f"threshold must be non-negative, got {threshold}")
        if self.count == 0:
            return 1.0
        attained = 0
        for index, bucket_count in enumerate(self._counts):
            if bucket_count and self._bucket_upper(index) <= threshold:
                attained += bucket_count
        return attained / self.count

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold ``other``'s samples into this histogram (in place).

        Only histograms with identical bucketing merge exactly; anything
        else would silently smear counts across bucket boundaries, so a
        geometry mismatch raises instead.  Returns ``self`` so merges
        chain: ``total.merge(a).merge(b)``.
        """
        if not isinstance(other, LatencyHistogram):
            raise TypeError(f"cannot merge {type(other).__name__} into LatencyHistogram")
        if (
            other._min != self._min
            or other._bucket_count != self._bucket_count
            or other._log_width != self._log_width
        ):
            raise ValueError("cannot merge histograms with different bucket geometry")
        for index, bucket_count in enumerate(other._counts):
            self._counts[index] += bucket_count
        self.count += other.count
        self.total += other.total
        if other.max_seen > self.max_seen:
            self.max_seen = other.max_seen
        return self

    @property
    def mean(self) -> float:
        """Mean of the recorded samples; 0.0 when empty."""
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict[str, float]:
        """The count/mean/percentile block reports embed."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": self.max_seen,
        }


class Distribution:
    """Linear-bucketed distribution for small integer-ish domains
    (batch sizes, queue depths)."""

    def __init__(self, bucket_width: float = 1.0) -> None:
        if bucket_width <= 0:
            raise ValueError("bucket_width must be positive")
        self._width = bucket_width
        self._counts: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.max_seen = 0.0

    def record(self, value: float) -> None:
        """Record one non-negative sample."""
        if value < 0:
            raise ValueError(f"negative value {value!r}")
        self._counts[int(value / self._width)] = (
            self._counts.get(int(value / self._width), 0) + 1
        )
        self.count += 1
        self.total += value
        if value > self.max_seen:
            self.max_seen = value

    @property
    def mean(self) -> float:
        """Mean of the recorded samples; 0.0 when empty."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Lower edge of the bucket holding the ``p``-th percentile.

        With the default ``bucket_width=1`` over integer-valued domains
        (batch sizes, queue depths) every value sits on its bucket's
        lower edge, so this is exact — not a one-bucket overstatement.
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if self.count == 0:
            return 0.0
        target = math.ceil(self.count * p / 100.0)
        seen = 0
        for bucket in sorted(self._counts):
            seen += self._counts[bucket]
            if seen >= target:
                return bucket * self._width
        return self.max_seen

    def summary(self) -> dict[str, float]:
        """The count/mean/percentile block reports embed."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
            "max": self.max_seen,
        }


class ServingTelemetry:
    """Everything the serving tier measures, in one place.

    The serving loop records each served batch once (latencies, shape);
    the server records refreshes (stall-handler settlements of the
    staleness clock) and wires in the store's aggregated
    :class:`~repro.kv.api.StoreStats` — including the summed-counter
    ``hit_ratio`` a :class:`~repro.kv.sharded.ShardedKVStore` derives
    across shards — when the report is built.
    """

    #: Phase requests record into before any chaos event fires.
    STEADY_PHASE = "steady"

    def __init__(self) -> None:
        self.latency = LatencyHistogram()
        self.batch_sizes = Distribution()
        self.queue_depths = Distribution()
        self.requests_completed = 0
        self.batches_served = 0
        self.refreshes = 0  # stall-handler write-backs settling the clock
        self.first_arrival: Optional[float] = None
        self.last_completion: Optional[float] = None
        # Phase segmentation: chaos events (replica kills, slow shards)
        # switch the current phase, so before/after SLO comparisons fall
        # out of one run instead of needing two.
        self.phase = self.STEADY_PHASE
        self.phase_latency: dict[str, LatencyHistogram] = {}
        self.events: list[dict] = []  # fired chaos events (label, time)

    def set_phase(self, name: str, at: Optional[float] = None) -> None:
        """Start attributing request latencies to phase ``name``.

        ``at`` (simulated seconds) is recorded with the transition so
        reports can show when the phase began.
        """
        self.phase = name
        self.events.append({"phase": name, "at": at})

    def record_requests(self, arrivals: list[float], completed_at: float) -> None:
        """Record the requests one batch completed at ``completed_at``
        (arrival times in batch order), credited to the current phase."""
        histogram = self.phase_latency.get(self.phase)
        if histogram is None:
            histogram = self.phase_latency[self.phase] = LatencyHistogram()
        self.latency.record_many([completed_at - arrival for arrival in arrivals], histogram)
        self.requests_completed += len(arrivals)
        first = min(arrivals)
        if self.first_arrival is None or first < self.first_arrival:
            self.first_arrival = first
        if self.last_completion is None or completed_at > self.last_completion:
            self.last_completion = completed_at

    def record_batch(self, size: int, queue_depth: int) -> None:
        """Record one served batch's size and the queue depth behind it."""
        self.batch_sizes.record(size)
        self.queue_depths.record(queue_depth)
        self.batches_served += 1

    def throughput(self) -> float:
        """Completed requests per simulated second, first arrival to last
        completion (the sustained rate, queueing included)."""
        if self.first_arrival is None or self.last_completion is None:
            return 0.0
        elapsed = self.last_completion - self.first_arrival
        return self.requests_completed / elapsed if elapsed > 0 else 0.0

    def slo_report(self, target_p99: float, server=None) -> dict:
        """Throughput-vs-SLO summary the benchmarks persist.

        ``server`` (an :class:`~repro.serve.server.EmbeddingServer`)
        contributes tier hit ratios and the store's own counters.
        """
        report = {
            "requests": self.requests_completed,
            "batches": self.batches_served,
            "throughput_rps": self.throughput(),
            "latency": self.latency.summary(),
            "batch_size": self.batch_sizes.summary(),
            "queue_depth": self.queue_depths.summary(),
            "refreshes": self.refreshes,
            "slo_target_p99": target_p99,
            "slo_met": bool(
                self.latency.count > 0 and self.latency.percentile(99) <= target_p99
            ),
        }
        # Any phase transition (chaos event) makes the breakdown worth
        # reporting — even when every completed request landed in one
        # phase (an event firing before the first completion must not
        # silently drop the block the feature exists to produce).
        if self.events or len(self.phase_latency) > 1:
            report["phases"] = {
                name: histogram.summary()
                for name, histogram in self.phase_latency.items()
            }
            report["events"] = list(self.events)
        if server is not None:
            stats = server.store.stats
            report["tiers"] = server.cache.tiers.ratios()
            report["store"] = {
                "gets": stats.gets,
                "hits": stats.hits,
                "misses": stats.misses,
                "hit_ratio": stats.hit_ratio(),
            }
            extra = stats.extra
            if "failovers" in extra:
                # One replica group or a router of them: the same keys.
                report["replication"] = {
                    "failovers": extra["failovers"],
                    "catchup_keys": extra["catchup_keys"],
                    "hints_outstanding": list(extra["hints_outstanding"]),
                }
        return report
