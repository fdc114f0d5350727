"""Runtime invariant sanitizer for the simulated train/serve stack.

The static linter (:mod:`repro.analysis.lint`) proves structural
properties; this module checks the *dynamic* ones — the protocol
invariants that only hold while the system is actually running:

* **Replica clock sanity** — a group's version never decreases, no
  replica's applied version decreases or overtakes the group version
  (:class:`~repro.device.clock.ReplicaVersionClock`).
* **Current reads** — every read a replica group serves comes from a
  live replica with lag 0 (``pick_reader``, the group's one read
  route), and no live replica lags when one is routed.
* **Sound donors** — revives and scans source only from live lag-0
  peers (``_complete_peer``), because the scalar clock cannot name
  *which* writes a lagging replica missed.
* **Fan-out accounting** — each group write advances the version by
  exactly the write count, advances every live replica's applied version
  with it, and leaves dead replicas untouched.
* **Exactly-once deltas** — the parameter server never folds one batch's
  gradient delta into storage twice, even across ledger corruption
  (a shadow ledger inside the sanitizer outlives the server's own).
* **SSP bounds** — a successful ``pull_rows`` leaves the worker's lead
  within the staleness bound; worker progress never moves backwards.
* **Durable manifests** — a committed checkpoint epoch references only
  objects that exist in the bucket with the recorded sizes.

Enable with ``REPRO_SANITIZE=1`` (the test conftest installs it for the
whole run) or programmatically::

    from repro.analysis import sanitized

    with sanitized():
        run_workload()

Violations raise :class:`~repro.errors.SanitizerError` carrying the tail
of a ring-buffer event trace (:mod:`repro.analysis.trace`), so the
report shows the operations leading up to the bad state.  Instrumenting
is class-level method patching — the ThreadSanitizer mold: originals are
kept and ``disable_sanitizer`` restores them exactly.
"""

from __future__ import annotations

import functools
import os
import weakref
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

from repro.analysis.trace import EventTrace
from repro.errors import SanitizerError

#: Events included in a violation report (the freshest tail of the ring).
REPORT_TAIL = 16


def _tag(obj: Any) -> str:
    """Short stable-ish label for one instrumented object."""
    return f"{type(obj).__name__}@{id(obj) & 0xFFFF:04x}"


class Sanitizer:
    """Installs the runtime checks; one instance owns all shadow state."""

    def __init__(self, capacity: int = 256) -> None:
        self.trace = EventTrace(capacity)
        self.violations = 0
        self.installed = False
        self._patched: list[tuple[type, str, Callable]] = []
        # Shadow copies of protocol state, keyed weakly so instrumented
        # objects die normally.  The shadows are the sanitizer's memory:
        # they let it notice when the system's own bookkeeping is rolled
        # back (a cleared ledger, a rewound clock).
        self._clock_shadow: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._ledger_shadow: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._progress_shadow: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _fail(self, message: str) -> None:
        self.violations += 1
        raise SanitizerError(message, trace=self.trace.tail(REPORT_TAIL))

    def _patch(self, cls: type, name: str, make_wrapper: Callable) -> None:
        original = getattr(cls, name)
        wrapper = functools.wraps(original)(make_wrapper(original))
        self._patched.append((cls, name, original))
        setattr(cls, name, wrapper)

    def install(self) -> None:
        if self.installed:
            return
        self._install_clock_checks()
        self._install_group_checks()
        self._install_server_checks()
        self._install_checkpoint_checks()
        self.installed = True

    def uninstall(self) -> None:
        # Restore in reverse so stacked patches (there are none today,
        # but the order costs nothing) unwind correctly.
        for cls, name, original in reversed(self._patched):
            setattr(cls, name, original)
        self._patched.clear()
        self.installed = False

    # ------------------------------------------------------------------
    # replica version clocks
    # ------------------------------------------------------------------
    def _check_clock(self, clock: Any, op: str) -> None:
        """Version monotone, applied monotone, applied within version."""
        shadow = self._clock_shadow.get(clock)
        version = clock.version
        applied = list(clock.applied)
        if shadow is not None:
            old_version, old_applied = shadow
            if version < old_version:
                self._fail(
                    f"{_tag(clock)}.{op}: group version moved backwards "
                    f"({old_version} -> {version})"
                )
            for index, (was, now) in enumerate(zip(old_applied, applied)):
                if now < was:
                    self._fail(
                        f"{_tag(clock)}.{op}: replica {index} applied version "
                        f"moved backwards ({was} -> {now})"
                    )
        for index, now in enumerate(applied):
            if now < 0 or now > version:
                self._fail(
                    f"{_tag(clock)}.{op}: replica {index} applied={now} "
                    f"outside [0, version={version}] — a replica cannot "
                    "have applied writes that were never acknowledged"
                )
        self._clock_shadow[clock] = (version, applied)

    def _install_clock_checks(self) -> None:
        from repro.device.clock import ReplicaVersionClock

        sanitizer = self

        def wrap(op: str) -> Callable[[Callable], Callable]:
            def make(original: Callable) -> Callable:
                def checked(self: Any, *args: Any, **kwargs: Any) -> Any:
                    result = original(self, *args, **kwargs)
                    sanitizer.trace.record(
                        f"clock.{op}",
                        f"{_tag(self)} args={args} version={self.version} "
                        f"applied={self.applied}",
                    )
                    sanitizer._check_clock(self, op)
                    return result
                return checked
            return make

        for op in ("advance", "ack"):
            self._patch(ReplicaVersionClock, op, wrap(op))

    # ------------------------------------------------------------------
    # replica groups: routing + fan-out
    # ------------------------------------------------------------------
    def _install_group_checks(self) -> None:
        from repro.kv.replicated import ReplicaGroup

        sanitizer = self

        def make_pick_reader(original: Callable) -> Callable:
            def checked(self: Any) -> int:
                choice = original(self)
                sanitizer.trace.record(
                    "group.pick_reader",
                    f"{_tag(self)} -> replica {choice} "
                    f"(lag {self.versions.lag(choice)})",
                )
                if not self.alive[choice]:
                    sanitizer._fail(
                        f"{_tag(self)}.pick_reader routed a read to dead "
                        f"replica {choice}"
                    )
                for index in self.live_indices():
                    if self.versions.lag(index) != 0:
                        sanitizer._fail(
                            f"{_tag(self)}.pick_reader: live replica {index} "
                            f"lags by {self.versions.lag(index)} writes; every "
                            "live replica must hold every acknowledged write"
                        )
                return choice
            return checked

        def make_complete_peer(original: Callable) -> Callable:
            def checked(self: Any, exclude: int) -> int:
                donor = original(self, exclude=exclude)
                sanitizer.trace.record(
                    "group.complete_peer",
                    f"{_tag(self)} exclude={exclude} -> donor {donor} "
                    f"(lag {self.versions.lag(donor)})",
                )
                if donor == exclude:
                    sanitizer._fail(
                        f"{_tag(self)}._complete_peer returned the excluded "
                        f"replica {exclude} as its own donor"
                    )
                if not self.alive[donor]:
                    sanitizer._fail(
                        f"{_tag(self)}._complete_peer chose dead replica "
                        f"{donor} as a donor"
                    )
                if self.versions.lag(donor) != 0:
                    sanitizer._fail(
                        f"{_tag(self)}._complete_peer chose replica {donor} "
                        f"with lag {self.versions.lag(donor)} as a donor; only "
                        "a lag-0 peer holds every acknowledged write"
                    )
                return donor
            return checked

        def make_fanout(op: str, count_of: Callable) -> Callable[[Callable], Callable]:
            def make(original: Callable) -> Callable:
                def checked(self: Any, *args: Any, **kwargs: Any) -> Any:
                    count = count_of(*args, **kwargs)
                    pre_version = self.versions.version
                    pre_applied = list(self.versions.applied)
                    pre_alive = list(self.alive)
                    result = original(self, *args, **kwargs)
                    sanitizer.trace.record(
                        f"group.{op}",
                        f"{_tag(self)} count={count} "
                        f"version {pre_version}->{self.versions.version}",
                    )
                    if self.versions.version != pre_version + count:
                        sanitizer._fail(
                            f"{_tag(self)}.{op} acknowledged {count} writes "
                            f"but the group version moved {pre_version} -> "
                            f"{self.versions.version}"
                        )
                    for index, was in enumerate(pre_applied):
                        now = self.versions.applied[index]
                        if pre_alive[index] and now != was + count:
                            sanitizer._fail(
                                f"{_tag(self)}.{op}: live replica {index} "
                                f"applied {was} -> {now}, expected "
                                f"{was + count} — a live replica must apply "
                                "every fanned-out write"
                            )
                        if not pre_alive[index] and now != was:
                            sanitizer._fail(
                                f"{_tag(self)}.{op}: dead replica {index} "
                                f"applied version moved {was} -> {now}"
                            )
                    return result
                return checked
            return make

        self._patch(ReplicaGroup, "pick_reader", make_pick_reader)
        self._patch(ReplicaGroup, "_complete_peer", make_complete_peer)
        self._patch(
            ReplicaGroup, "fanout_put",
            make_fanout("fanout_put", lambda key, value: 1),
        )
        self._patch(
            ReplicaGroup, "fanout_delete",
            make_fanout("fanout_delete", lambda key: 1),
        )
        self._patch(
            ReplicaGroup, "fanout_multi_put",
            make_fanout("fanout_multi_put", lambda keys, values: len(keys)),
        )

    # ------------------------------------------------------------------
    # parameter server: exactly-once ledger + SSP bounds
    # ------------------------------------------------------------------
    def _ledger_for(self, server: Any) -> set:
        ledger = self._ledger_shadow.get(server)
        if ledger is None:
            ledger = set()
            self._ledger_shadow[server] = ledger
        return ledger

    def _check_new_applications(self, server: Any, pre_keys: set, op: str) -> None:
        shadow = self._ledger_for(server)
        fresh = set(server.applied_batches) - pre_keys
        for batch in sorted(fresh):
            if batch in shadow:
                self._fail(
                    f"{_tag(server)}.{op} applied batch {batch} a second "
                    "time — its delta is now folded into storage twice"
                )
            shadow.add(batch)

    def _install_server_checks(self) -> None:
        from repro.train.dist.server import ParameterServer, WorkerProgressClock

        sanitizer = self

        def make_push_deltas(original: Callable) -> Callable:
            def checked(self: Any, packet: Any) -> bool:
                pre_keys = set(self.applied_batches)
                result = original(self, packet)
                sanitizer.trace.record(
                    "ps.push_deltas",
                    f"{_tag(self)} worker={packet.worker_id} "
                    f"batch={packet.batch_index} applied={result}",
                )
                sanitizer._check_new_applications(self, pre_keys, "push_deltas")
                return result
            return checked

        def make_apply_round(original: Callable) -> Callable:
            def checked(self: Any, packets: Any) -> int:
                pre_keys = set(self.applied_batches)
                result = original(self, packets)
                sanitizer.trace.record(
                    "ps.apply_round",
                    f"{_tag(self)} packets={len(packets)} applied={result}",
                )
                sanitizer._check_new_applications(self, pre_keys, "apply_round")
                return result
            return checked

        def make_pull_rows(original: Callable) -> Callable:
            def checked(self: Any, worker_id: int, unique_keys: Any) -> Any:
                result = original(self, worker_id, unique_keys)
                lead = self.progress.lead(worker_id)
                sanitizer.trace.record(
                    "ps.pull_rows",
                    f"{_tag(self)} worker={worker_id} lead={lead} "
                    f"bound={self.staleness_bound}",
                )
                if (
                    self.staleness_bound is not None
                    and lead > self.staleness_bound
                ):
                    sanitizer._fail(
                        f"{_tag(self)}.pull_rows admitted worker {worker_id} "
                        f"with lead {lead} beyond the staleness bound "
                        f"{self.staleness_bound}"
                    )
                return result
            return checked

        def make_complete(original: Callable) -> Callable:
            def checked(self: Any, worker_id: int, count: int = 1) -> Any:
                shadow = sanitizer._progress_shadow.get(self)
                if shadow is None:
                    shadow = {}
                    sanitizer._progress_shadow[self] = shadow
                was = shadow.get(worker_id, self.completed.get(worker_id, 0))
                result = original(self, worker_id, count)
                now = self.completed[worker_id]
                sanitizer.trace.record(
                    "progress.complete",
                    f"{_tag(self)} worker={worker_id} {was}->{now}",
                )
                if now < was:
                    sanitizer._fail(
                        f"{_tag(self)}.complete moved worker {worker_id} "
                        f"backwards ({was} -> {now}); completed-step counts "
                        "are monotone"
                    )
                shadow[worker_id] = now
                return result
            return checked

        self._patch(ParameterServer, "push_deltas", make_push_deltas)
        self._patch(ParameterServer, "apply_round", make_apply_round)
        self._patch(ParameterServer, "pull_rows", make_pull_rows)
        self._patch(WorkerProgressClock, "complete", make_complete)

    # ------------------------------------------------------------------
    # cloud checkpoints: committed manifests reference durable objects
    # ------------------------------------------------------------------
    def _install_checkpoint_checks(self) -> None:
        from repro.core.checkpoint import CloudCheckpointer

        sanitizer = self

        def make_checkpoint(original: Callable) -> Callable:
            def checked(self: Any) -> Optional[int]:
                epoch = original(self)
                manifest = self._load_manifest(epoch)
                sanitizer.trace.record(
                    "ckpt.checkpoint",
                    f"{_tag(self)} epoch={epoch} "
                    f"files={0 if manifest is None else len(manifest['files'])}",
                )
                if manifest is None:
                    sanitizer._fail(
                        f"{_tag(self)}.checkpoint returned epoch {epoch} but "
                        "committed no manifest for it"
                    )
                for rel, entry in manifest["files"].items():
                    path = os.path.join(self._objects_dir, entry["sha256"])
                    if not os.path.exists(path):
                        sanitizer._fail(
                            f"{_tag(self)}.checkpoint committed epoch {epoch} "
                            f"whose manifest references missing object "
                            f"{entry['sha256']} for {rel} — the epoch is "
                            "unrestorable"
                        )
                    size = os.path.getsize(path)
                    if size != entry["bytes"]:
                        sanitizer._fail(
                            f"{_tag(self)}.checkpoint committed epoch {epoch} "
                            f"whose object for {rel} is {size} bytes, "
                            f"manifest says {entry['bytes']} — torn upload"
                        )
                return epoch
            return checked

        self._patch(CloudCheckpointer, "checkpoint", make_checkpoint)


# ----------------------------------------------------------------------
# module-level lifecycle: one process-wide sanitizer
# ----------------------------------------------------------------------
_ACTIVE: Optional[Sanitizer] = None


def enable_sanitizer(capacity: int = 256) -> Sanitizer:
    """Install the runtime checks process-wide (idempotent)."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = Sanitizer(capacity)
        _ACTIVE.install()
    return _ACTIVE


def disable_sanitizer() -> None:
    """Remove the checks and restore every patched method."""
    global _ACTIVE
    if _ACTIVE is not None:
        _ACTIVE.uninstall()
        _ACTIVE = None


def active_sanitizer() -> Optional[Sanitizer]:
    """The installed sanitizer, or ``None`` when not enabled."""
    return _ACTIVE


@contextmanager
def sanitized(capacity: int = 256) -> Iterator[Sanitizer]:
    """Run one block under the sanitizer.

    If a sanitizer is already active (e.g. installed for the whole test
    run via ``REPRO_SANITIZE=1``), the block reuses it and the exit
    leaves it installed; otherwise the checks are removed on exit.
    """
    owned = _ACTIVE is None
    sanitizer = enable_sanitizer(capacity)
    try:
        yield sanitizer
    finally:
        if owned:
            disable_sanitizer()
