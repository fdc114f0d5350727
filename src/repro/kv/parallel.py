"""Process-parallel children for the shard router.

:class:`ParallelShardStore` is the shard router
(:class:`~repro.kv.sharded.ShardedKVStore`) with its children living in
**shared-nothing worker processes**: each worker owns a disjoint subset
of the child stores (built inside the worker after fork, so no file
descriptor or page cache is shared), and the router's children are small
proxies that forward one call over the owning worker's pipe.  It
overrides the router's two hooks and nothing else about routing:

* *how a child is built* — a forked worker builds it and the router
  keeps a proxy;
* *how one partitioned batched operation is dispatched* — each worker
  gets exactly one request (all its shards' sub-batches as a single
  encoded buffer from :mod:`repro.kv.common.serialization`), every
  request is sent before any reply is read, and each worker sends back
  exactly one reply buffer.  Eight shards on eight cores then decode,
  probe and re-encode their sub-batches genuinely concurrently, which is
  what the wall-clock fan-out benchmark measures.

Everything else — slot-table routing, live split/migrate, stats, the
coordinated checkpoint manifest — is inherited, so a parallel store
splits live, restores migrated slot tables, and can host replica groups
in its workers; it and the serial router restore each other's
checkpoints.

This is deliberately an *opt-in, wall-clock* layer: engines inside the
workers keep their own private simulated clocks (a shared simulated
timeline across processes would serialize them again), so a parallel
store's ``clock`` and ``ssd`` are ``None`` — its proxies declare none —
and the serving tier's simulated-time paths refuse it; a stall handler
does not cross the process boundary either (a proxy ignores it, as every
store without a staleness bound does).  Use :func:`create_sharded_store`
to get a :class:`ParallelShardStore` when the platform allows it and a
plain serial :class:`~repro.kv.sharded.ShardedKVStore` otherwise.

Protocol invariants (the deadlock-freedom argument):

* The parent sends at most one in-flight request per worker, and a
  request is at most two pipe messages (a pickled header, then an
  optional raw payload buffer).  A worker is always blocked in ``recv``
  when a request arrives, drains both messages before replying, and
  replies with the same header(+payload) shape.  Pipes therefore never
  carry more than one logical message per direction.
* Worker replies are read in worker order after all requests are sent,
  so independent workers overlap while the parent never waits on a
  worker it has not fed.
* A pipe error or a dead worker can leave another worker's reply unread,
  so it marks the whole store broken: every later operation raises
  :class:`~repro.errors.StorageError` rather than mistaking a stale
  reply for its own, and ``close()`` still works.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import sys
from operator import attrgetter, methodcaller
from typing import Callable, Iterator, Optional

import numpy as np

from repro.errors import ConfigError, StorageError
from repro.kv.api import KVStore, StoreStats
from repro.kv.common.serialization import (
    decode_records,
    decode_values,
    encode_records,
    encode_values,
)
from repro.kv.sharded import (
    ShardedKVStore,
    child_type,
    record_count,
)
from repro.obs.trace import span as obs_span, uninstall_tracer

#: Framed batched ops whose reply carries one value per key, as one
#: encoded buffer; the others (``multi_put``, ``lookahead``) reply with
#: one plain result per batch in the header.
_VALUE_OPS = frozenset(
    {"multi_get", "snapshot_read_many", "read_current_many", "multi_rmw"}
)


def fork_available() -> bool:
    """Whether shared-nothing fork workers are supported on this platform."""
    return sys.platform != "win32" and "fork" in multiprocessing.get_all_start_methods()


def create_sharded_store(
    factory: Callable[[int], KVStore],
    num_shards: int,
    directory: Optional[str] = None,
    processes: Optional[int] = None,
):
    """Build a sharded store, process-parallel when the platform allows.

    Returns a :class:`ParallelShardStore` fanning ``num_shards`` engines
    out over ``processes`` workers, or the serial
    :class:`~repro.kv.sharded.ShardedKVStore` when parallelism cannot
    help or cannot be used:

    * ``processes`` (defaulting to ``min(num_shards, cpu_count)``)
      resolves to 1 — one worker would only add pipe hops;
    * fork start method unavailable (no cheap shared-nothing workers);
    * ``REPRO_SANITIZE=1`` — the runtime invariant sanitizer wraps store
      objects in-process, which cannot reach engines living in worker
      processes, so sanitized runs always exercise the serial path.
    """
    if processes is None:
        processes = min(num_shards, os.cpu_count() or 1)
    if (
        processes <= 1
        or not fork_available()
        or os.environ.get("REPRO_SANITIZE") == "1"
    ):
        return ShardedKVStore(factory, num_shards, directory=directory)
    return ParallelShardStore(factory, num_shards, directory=directory, processes=processes)


# ----------------------------------------------------------------------
# framing of a batched op: one buffer per worker and direction
# ----------------------------------------------------------------------
def _frame(op: str, batches: list) -> bytes:
    """Encode the column slices of one worker's batches into one buffer."""
    keys = [key for columns in batches for key in columns[0]]
    if op == "multi_put":
        values = [value for columns in batches for value in columns[1]]
        return bytes(encode_records(keys, values))
    return np.asarray(keys, dtype=np.uint64).tobytes()


def _unframe(op: str, counts: list[int], payload: bytes) -> Iterator[tuple]:
    """Inverse of :func:`_frame`: one column tuple per batch."""
    if op == "multi_put":
        records = decode_records(payload, copy=True)
        for count in counts:
            pairs = list(itertools.islice(records, count))
            yield [key for key, _ in pairs], [value for _, value in pairs]
    else:
        keys = np.frombuffer(payload, dtype=np.uint64)
        offset = 0
        for count in counts:
            yield (keys[offset : offset + count].tolist(),)
            offset += count


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _scan_list(store: KVStore) -> list:
    return list(store.scan())


def _freeze(store: KVStore) -> None:
    store.freeze()  # returns the store itself, which must not be pickled back


def _worker_main(factory, conn) -> None:
    """Own a set of child stores; serve one request at a time until close.

    Three kinds of request: ``build`` a child from the factory this
    worker was forked with, ``call`` an arbitrary picklable function on
    one child (every non-batched verb), and the framed batched ops —
    ``(op, [(child, count), ...], pickled_args)`` plus one payload buffer
    — which run ``child.op(*columns, *args)`` for each of the worker's
    batches.

    A tracer the parent had installed at fork time is dropped first: the
    worker's copy would collect spans no one can ever read.
    """
    uninstall_tracer()
    stores: dict[int, KVStore] = {}
    while True:
        try:
            message = conn.recv()
        except EOFError:
            break
        op = message[0]
        try:
            if op == "call":
                _, child, function, args = message
                conn.send(("ok", function(stores[child], *args)))
            elif op == "build":
                _, child, index = message
                store = stores[child] = factory(index)
                conn.send(("ok", (child_type(store), store.directory)))
            elif op == "close":
                for store in stores.values():
                    store.close()
                conn.send(("ok", None))
                break
            else:
                _, entries, pickled_args = message
                payload = conn.recv_bytes()
                try:
                    args = pickle.loads(pickled_args)
                except Exception as exc:  # repro: lint-ignore[REP004]
                    # Unpickling can raise nearly anything (a __main__
                    # function defined after the fork surfaces as
                    # AttributeError).  Not swallowed: replied to the
                    # parent before touching any store, so it can safely
                    # run the op itself.
                    conn.send(("nopickle", exc))
                    continue
                counts = [count for _, count in entries]
                outputs = [
                    getattr(stores[child], op)(*columns, *args)
                    for (child, _), columns in zip(entries, _unframe(op, counts, payload))
                ]
                if op in _VALUE_OPS:
                    values = [value for output in outputs for value in output]
                    reply = bytes(encode_values(values))
                    conn.send(("ok", len(values)))
                    conn.send_bytes(reply)
                else:
                    conn.send(("ok", outputs))
        except Exception as exc:  # repro: lint-ignore[REP004]
            # Not swallowed: every failure is relayed to the parent, which
            # re-raises it on the calling thread.
            try:
                conn.send(("err", exc))
            except Exception:  # repro: lint-ignore[REP004]
                # The exception object itself would not pickle; relay a
                # picklable stand-in instead of dying silently.
                conn.send(("err", StorageError(f"worker failed: {exc!r}")))
    conn.close()


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class _Worker:
    """One forked worker process and the parent's end of its pipe.

    Any pipe error, or finding the process dead, marks the owning store
    broken (see the module docstring) and surfaces as ``StorageError``.
    """

    def __init__(self, store: "ParallelShardStore", factory) -> None:
        self.store = store
        self.factory = factory
        context = multiprocessing.get_context("fork")
        self.conn, child_conn = context.Pipe()
        self.process = context.Process(
            target=_worker_main, args=(factory, child_conn), daemon=True
        )
        self.process.start()
        child_conn.close()

    def send(self, header: tuple, payload: Optional[bytes] = None) -> None:
        """Ship one request: a pickled header, then an optional raw buffer."""
        self.store._check_open()
        try:
            if not self.process.is_alive():
                raise EOFError("worker process exited")
            self.conn.send(header)
            if payload is not None:
                self.conn.send_bytes(payload)
        except (EOFError, OSError) as exc:
            self.store._mark_broken(exc)

    def recv(self, with_payload: bool = False) -> tuple:
        """Read one reply: ``(status, meta, payload-or-None)``."""
        try:
            status, meta = self.conn.recv()
            payload = self.conn.recv_bytes() if with_payload and status == "ok" else None
        except (EOFError, OSError) as exc:
            self.store._mark_broken(exc)
        return status, meta, payload

    def request(self, header: tuple):
        """One request, one reply; a relayed worker exception is re-raised."""
        self.send(header)
        status, meta, _ = self.recv()
        if status != "ok":
            raise meta
        return meta

    def stop(self, graceful: bool) -> None:
        """End the process — after it closed its stores, when ``graceful``."""
        try:
            if graceful:
                self.conn.send(("close",))
                self.conn.recv()
        except (EOFError, OSError):
            pass  # already gone: nothing left to close
        self.conn.close()
        self.process.join(timeout=10 if graceful else 0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=10)


class _ShardProxy(KVStore):  # repro: lint-ignore[REP002] a proxy is reopened by its router, it has no restore of its own
    """A child store living in a worker process.

    Satisfies the :class:`KVStore` contract by forwarding each call as
    one request over the owning worker's pipe, which is all the router,
    a :class:`~repro.kv.sharded.ShardMigration` or a caller reaching
    through ``store.shards`` needs.  (The router's batched fan-out does
    not come through here: it frames one message per *worker*.)
    """

    def __init__(self, worker: _Worker, child: int, index: int) -> None:
        self.worker = worker
        self.child = child  # this store's key inside its worker
        #: What a manifest records for the fronted store.
        self.store_type, self.directory = worker.request(("build", child, index))

    def call(self, function: Callable, *args):
        """Run picklable ``function(store, *args)`` in the worker."""
        return self.worker.request(("call", self.child, function, args))

    def get(self, key: int) -> Optional[bytes]:
        """Forward ``get``."""
        return self.call(methodcaller("get", key))

    def snapshot_read(self, key: int) -> Optional[bytes]:
        """Forward ``snapshot_read``."""
        return self.call(methodcaller("snapshot_read", key))

    def put(self, key: int, value: bytes) -> None:
        """Forward ``put``."""
        self.call(methodcaller("put", key, bytes(value)))

    def delete(self, key: int) -> bool:
        """Forward ``delete``."""
        return self.call(methodcaller("delete", key))

    def rmw(self, key: int, update: Callable[[Optional[bytes]], bytes]) -> bytes:
        """Transform in this process (``update`` may not ship), reading the
        value it will write back through :meth:`read_current_many`."""
        new_value = update(self.read_current_many([key])[0])
        self.put(key, new_value)
        return new_value

    def multi_get(self, keys) -> list:
        """Forward ``multi_get``."""
        return self.call(methodcaller("multi_get", list(keys)))

    def snapshot_read_many(self, keys) -> list:
        """Forward ``snapshot_read_many``."""
        return self.call(methodcaller("snapshot_read_many", list(keys)))

    def read_current_many(self, keys) -> list:
        """Forward ``read_current_many`` (so the inherited ``multi_rmw``
        folds its update over write-back-safe values)."""
        return self.call(methodcaller("read_current_many", list(keys)))

    def multi_put(self, keys, values) -> None:
        """Forward ``multi_put``."""
        keys, values = self._normalize_pairs(keys, values)
        self.call(methodcaller("multi_put", keys, [bytes(value) for value in values]))

    def scan(self) -> Iterator[tuple[int, bytes]]:
        """All live records, collected in the worker then yielded."""
        return iter(self.call(_scan_list))

    def __len__(self) -> int:
        return self.call(record_count)

    @property
    def stats(self) -> StoreStats:
        """The fronted store's counters (a snapshot, not live)."""
        return self.call(attrgetter("stats"))

    def freeze(self) -> "_ShardProxy":
        """Freeze the fronted store and the proxy."""
        self.call(_freeze)
        self.read_only = True
        return self

    def checkpoint(self) -> None:
        """Forward ``checkpoint``."""
        self.call(methodcaller("checkpoint"))

    def close(self) -> None:
        """Close the fronted store (its worker lives until the router closes)."""
        self.call(methodcaller("close"))


class ParallelShardStore(ShardedKVStore):
    """The shard router with its children in worker processes.

    Routing is the router's (same splitmix64 slot table), so a data set
    written through one reads back identically through the other.

    Parameters
    ----------
    factory, num_shards, directory:
        As for :class:`~repro.kv.sharded.ShardedKVStore`; ``factory``
        runs inside the workers, after fork.
    processes:
        Worker processes to spread the initial shards over (round-robin
        by shard index); defaults to ``min(num_shards, cpu_count)``.
        Migration targets built from a different factory fork workers of
        their own.
    """

    def __init__(
        self,
        factory: Callable[[int], KVStore],
        num_shards: int,
        directory: Optional[str] = None,
        processes: Optional[int] = None,
    ) -> None:
        if not fork_available():
            raise ConfigError(
                "ParallelShardStore needs the fork start method; use "
                "create_sharded_store() for a portable fallback"
            )
        if processes is None:
            processes = min(num_shards, os.cpu_count() or 1)
        if processes <= 0:
            raise ConfigError(f"processes must be positive, got {processes}")
        self.processes = min(processes, num_shards)
        self._workers: list[_Worker] = []
        self._child_ids = itertools.count()
        #: Why the store stopped trusting its pipes (``None``: healthy).
        self._broken: Optional[str] = None
        # Final merged counter snapshot: close() takes one before tearing
        # the workers down, so `stats` stays faithful (and readable)
        # after the engines' processes are gone.
        self._final_stats: Optional[StoreStats] = None
        try:
            super().__init__(factory, num_shards, directory=directory)
        except BaseException:
            # A child failed to build: do not leave the workers already
            # forked for its siblings behind.
            for worker in self._workers:
                worker.stop(graceful=False)
            raise

    # ------------------------------------------------------------------
    # the two router hooks
    # ------------------------------------------------------------------
    def _build_child(self, factory: Callable[[int], KVStore], index: int) -> _ShardProxy:
        """Hook 1: build the child inside a worker forked with ``factory``.

        A fork is the only way an arbitrary (closure) factory reaches a
        worker, so workers are pooled per factory object: up to
        ``processes`` of them, children assigned round-robin by index.
        """
        pool = [worker for worker in self._workers if worker.factory is factory]
        if len(pool) < self.processes:
            worker = _Worker(self, factory)
            self._workers.append(worker)
        else:
            worker = pool[index % self.processes]
        return _ShardProxy(worker, next(self._child_ids), index)

    get_rows = KVStore.get_rows  # the array verbs cross the pipes as the list verbs' frames
    put_rows = KVStore.put_rows

    def _dispatch(self, op: str, batches: list, *args) -> list:
        """Hook 2: one framed message per worker, all sent before any
        reply is read, so the workers run their sub-batches concurrently.

        Arguments that cannot ship (a closure ``update`` for
        ``multi_rmw``) fall back to the router's per-shard dispatch over
        the proxies, which transform in this process.
        """
        self._check_open()
        try:
            pickled_args = pickle.dumps(args)
        except Exception:  # repro: lint-ignore[REP004]
            # Pickling a closure over live state can raise nearly
            # anything.  Not swallowed: nothing has been sent yet, so the
            # per-shard path runs the whole op instead.
            return super()._dispatch(op, batches, *args)
        total = sum(len(columns[0]) for _, columns in batches)
        with obs_span("kv.parallel_fanout", op=op, keys=total):
            with obs_span("parallel.dispatch", keys=total):
                by_worker: dict[_Worker, list[int]] = {}
                for number, (shard, _) in enumerate(batches):
                    by_worker.setdefault(self.shards[shard].worker, []).append(number)
                # Frame everything before sending anything: a key that will
                # not encode must fail while every pipe is still idle.
                requests = []
                for worker, numbers in by_worker.items():
                    entries = [
                        (self.shards[batches[n][0]].child, len(batches[n][1][0]))
                        for n in numbers
                    ]
                    payload = _frame(op, [batches[n][1] for n in numbers])
                    requests.append((worker, numbers, (op, entries, pickled_args), payload))
                for worker, _, header, payload in requests:
                    worker.send(header, payload)
            results: list = [None] * len(batches)
            failures = []
            with obs_span("parallel.collect", keys=total):
                # Every reply is read — even after a failure — so the pipes
                # stay in lockstep for the next operation.
                for worker, numbers, _, _ in requests:
                    status, meta, payload = worker.recv(with_payload=op in _VALUE_OPS)
                    if status != "ok":
                        failures.append((status, meta))
                    elif payload is None:  # one plain result per batch
                        for n, output in zip(numbers, meta):
                            results[n] = output
                    else:  # one value per key: re-split the flat reply per batch
                        values = decode_values(payload, meta)
                        cursor = 0
                        for n in numbers:
                            count = len(batches[n][1][0])
                            results[n] = values[cursor : cursor + count]
                            cursor += count
        if failures:
            if len(failures) == len(requests) and all(
                status == "nopickle" for status, _ in failures
            ):
                # The arguments pickled here but no worker could load
                # them (a __main__ function defined after the fork).
                # Nothing was applied, so the per-shard path is safe.
                return super()._dispatch(op, batches, *args)
            raise failures[0][1]
        return results

    # ------------------------------------------------------------------
    # health, stats, lifecycle
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise StorageError("parallel store is closed")
        if self._broken is not None:
            raise StorageError(
                f"parallel store is broken ({self._broken}); close it and "
                "restore from a checkpoint"
            )

    def _mark_broken(self, exc: BaseException) -> None:
        """A pipe failed: stop trusting every pipe and raise ``StorageError``."""
        self._broken = f"worker pipe failed: {exc!r}"
        raise StorageError(f"parallel store lost a worker: {exc!r}") from exc

    @property
    def stats(self) -> StoreStats:
        """Aggregated snapshot of all worker-side counters.

        A closed store answers from the final snapshot :meth:`close` took
        before tearing the workers down, so the counters a run
        accumulated are never lost with the worker processes.
        """
        if not self._closed:
            return super().stats
        if self._final_stats is None:
            raise StorageError(
                "parallel store is closed and its workers died before a "
                "final stats snapshot could be taken"
            )
        return self._final_stats

    def close(self) -> None:
        """Close every child store and shut the worker processes down."""
        if self._closed:
            return
        try:
            self._final_stats = self.stats
        except StorageError:
            pass  # a dead worker forfeits its final counters, not close()
        self._closed = True
        for worker in self._workers:
            worker.stop(graceful=self._broken is None)

    @classmethod
    def restore(
        cls,
        directory: str,
        factory: Optional[Callable[[int, str], KVStore]] = None,
        processes: Optional[int] = None,
        **kwargs,
    ) -> "ParallelShardStore":
        """Reopen a coordinated checkpoint with worker-process children.

        Accepts the manifests :meth:`ShardedKVStore.checkpoint` writes,
        migrated slot tables included.  ``factory(index, shard_dir)``
        rebuilds one child inside its worker; when omitted each child's
        recorded class is imported and restored with ``kwargs``.
        """
        return cls._reopen(directory, factory, kwargs, processes=processes)
