"""Cost model of an NVMe SSD.

The paper's eBay machines use SSDs with 1024 MB/s bandwidth; the defaults
here match that, with a random 4 KiB read latency typical of NVMe drives.
The model exposes the three access patterns the storage engines need:

* ``random_read``  — a point lookup that misses the buffer pool (pays the
  per-I/O latency plus transfer),
* ``sequential_read`` — bulk reads such as look-ahead prefetch batches,
  compaction inputs, or recovery scans (bandwidth-bound),
* ``sequential_write`` — log appends, page flushes, SSTable writes.

Each call either blocks the caller (``blocking=True``, advancing the
simulated clock) or runs in the background (device busy time only), which
is how look-ahead prefetching hides disk accesses in the figures.
"""

from __future__ import annotations

from repro.device.clock import SimClock
from repro.obs.trace import active_tracer
from repro.obs.trace import span as obs_span

#: Bytes per simulated I/O page; transfers are rounded up to whole pages.
PAGE_BYTES = 4096


class SSDModel:
    """Latency/bandwidth model for a local NVMe SSD.

    Parameters
    ----------
    clock:
        The simulated clock charges are applied to.
    random_read_latency:
        Seconds per random I/O (seek + queue + 4 KiB transfer), default 80 µs.
    read_bandwidth:
        Sequential read bandwidth in bytes/second (default 1024 MB/s, the
        figure quoted for the eBay machines).
    write_bandwidth:
        Sequential write bandwidth in bytes/second.
    """

    def __init__(
        self,
        clock: SimClock,
        random_read_latency: float = 80e-6,
        read_bandwidth: float = 1024e6,
        write_bandwidth: float = 800e6,
        queue_depth: int = 32,
    ) -> None:
        if random_read_latency <= 0:
            raise ValueError("random_read_latency must be positive")
        if read_bandwidth <= 0 or write_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")
        if queue_depth < 1:
            raise ValueError("queue_depth must be at least 1")
        self.clock = clock
        self.random_read_latency = random_read_latency
        self.read_bandwidth = read_bandwidth
        self.write_bandwidth = write_bandwidth
        self.queue_depth = queue_depth
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self._background_depth = 0
        self._background_parallelism = queue_depth

    def _pages(self, nbytes: int) -> int:
        return max(1, -(-int(nbytes) // PAGE_BYTES))

    def random_read(self, nbytes: int, blocking: bool = True) -> float:
        """Charge a random point read of ``nbytes`` and return its cost.

        A *blocking* read (a data stall: the trainer waits for the value)
        pays the full per-I/O latency.  A background read — issued by a
        prefetcher with no consumer waiting — overlaps with its siblings
        in the device queue, so its device-time share is latency divided
        by the queue depth.  This asymmetry is exactly why hiding disk
        accesses (the paper's whole program) pays off on NVMe.
        """
        return self.random_read_many(nbytes, 1, blocking)

    def random_read_many(self, nbytes: int, count: int, blocking: bool = True) -> float:
        """Charge ``count`` random reads of ``nbytes`` each, one after the
        other, and return the cost of one.

        Books exactly what ``count`` :meth:`random_read` calls book — the
        same additions to the clock in the same order, the same counters,
        one ``device.io`` span per read while a tracer is installed — for
        a batched engine path that has ``count`` cold records to fetch.
        """
        pages = self._pages(nbytes)
        effective_blocking = blocking and self._background_depth == 0
        latency = self.random_read_latency
        if not effective_blocking:
            latency /= min(self.queue_depth, self._background_parallelism)
        cost = latency + (pages * PAGE_BYTES) / self.read_bandwidth
        if active_tracer() is not None:
            for _ in range(count):
                self._charge(cost, blocking, op="random_read")
        elif effective_blocking:
            self.clock.advance_each(cost, count, component="ssd")
        else:
            self.clock.charge_background_each(cost, count, component="ssd")
        self.reads += count
        self.bytes_read += count * pages * PAGE_BYTES
        return cost

    def sequential_read(self, nbytes: int, blocking: bool = True) -> float:
        """Charge a bandwidth-bound bulk read of ``nbytes``."""
        pages = self._pages(nbytes)
        cost = self.random_read_latency + (pages * PAGE_BYTES) / self.read_bandwidth
        # Bulk reads amortize the per-I/O latency over the whole transfer,
        # so only one latency term is paid regardless of size.
        self._charge(cost, blocking, op="sequential_read")
        self.reads += 1
        self.bytes_read += pages * PAGE_BYTES
        return cost

    def sequential_write(self, nbytes: int, blocking: bool = True) -> float:
        """Charge a bandwidth-bound bulk write of ``nbytes``."""
        pages = self._pages(nbytes)
        cost = (pages * PAGE_BYTES) / self.write_bandwidth
        self._charge(cost, blocking, op="sequential_write")
        self.writes += 1
        self.bytes_written += pages * PAGE_BYTES
        return cost

    def _charge(self, cost: float, blocking: bool, op: str = "io") -> None:
        foreground = blocking and self._background_depth == 0
        with obs_span(
            "device.io",
            clock=self.clock,
            op=op,
            blocking=foreground,
            cost_s=cost,
        ):
            if foreground:
                self.clock.advance(cost, component="ssd")
            else:
                self.clock.charge_background(cost, component="ssd")

    def background(self, parallelism: int | None = None) -> "_BackgroundScope":
        """Context manager: I/O issued inside is overlapped, not blocking.

        Prefetchers run off the training critical path; their device time
        still counts toward SSD busy time and is settled by
        ``SimClock.drain`` if the device saturates.  ``parallelism`` caps
        how many of these I/Os overlap in the device queue: a framework
        prefetching through a *synchronous* Get API on a handful of
        dataloader workers gets only that much overlap, while an in-store
        async prefetcher drives the full queue depth.
        """
        if parallelism is not None and parallelism < 1:
            raise ValueError("parallelism must be at least 1")
        return _BackgroundScope(self, parallelism)

    def stats(self) -> dict[str, int]:
        """I/O counters, mainly for assertions in tests and ablations."""
        return {
            "reads": self.reads,
            "writes": self.writes,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
        }


class _BackgroundScope:
    def __init__(self, ssd: SSDModel, parallelism: int | None = None) -> None:
        self._ssd = ssd
        self._parallelism = parallelism
        self._previous = ssd.queue_depth

    def __enter__(self) -> SSDModel:
        self._ssd._background_depth += 1
        self._previous = self._ssd._background_parallelism
        if self._parallelism is not None:
            self._ssd._background_parallelism = self._parallelism
        return self._ssd

    def __exit__(self, exc_type, exc, tb) -> None:
        self._ssd._background_depth -= 1
        self._ssd._background_parallelism = self._previous
