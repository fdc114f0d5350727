"""Runtime invariant sanitizer for the simulated train/serve stack.

The static linter (:mod:`repro.analysis.lint`) proves structural
properties; this module checks the *dynamic* ones — the protocol
invariants that only hold while the system is actually running:

* **Current reads and sound donors** — every read a replica group
  serves (``pick_reader``, the group's one read route) and every donor
  a revive or scan copies from (``_complete_peer``) is a live replica
  that owes no hints, and a donor is never the replica it repairs.
* **The hint ledger** — after each group write every live replica
  still owes nothing, each dead replica's hint set has grown by exactly
  the written keys (or overflowed to ``None``) and never shrinks, and
  no replica's liveness changed.
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
    # replica groups: routing + fan-out
    # ------------------------------------------------------------------
    def _install_group_checks(self) -> None:
        from repro.kv.replicated import ReplicaGroup

        sanitizer = self

        def check_source(group: Any, replica: int, op: str, exclude: int = -1) -> None:
            """A read or a donor must be live, owe no hints and not be
            the replica being repaired."""
            hints = group._hints[replica]
            sanitizer.trace.record(
                f"group.{op}",
                f"{_tag(group)} exclude={exclude} -> replica {replica} "
                f"(hints {group.hints_outstanding(replica)})",
            )
            if replica == exclude:
                sanitizer._fail(
                    f"{_tag(group)}.{op} returned the excluded replica "
                    f"{exclude} as its own donor"
                )
            if not group.alive[replica]:
                sanitizer._fail(f"{_tag(group)}.{op} chose dead replica {replica}")
            if hints != set():
                sanitizer._fail(
                    f"{_tag(group)}.{op} chose replica {replica}, which owes "
                    f"{group.hints_outstanding(replica)} hinted writes; only a "
                    "replica owing none holds every acknowledged write"
                )

        def make_pick_reader(original: Callable) -> Callable:
            def checked(self: Any) -> int:
                choice = original(self)
                check_source(self, choice, "pick_reader")
                return choice
            return checked

        def make_complete_peer(original: Callable) -> Callable:
            def checked(self: Any, exclude: int) -> int:
                donor = original(self, exclude=exclude)
                check_source(self, donor, "_complete_peer", exclude)
                return donor
            return checked

        def make_fanout(op: str, keys_of: Callable) -> Callable[[Callable], Callable]:
            def make(original: Callable) -> Callable:
                def checked(self: Any, *args: Any, **kwargs: Any) -> Any:
                    written = set(keys_of(*args, **kwargs))
                    pre_alive = list(self.alive)
                    # A dead replica's expected size: its hints plus the
                    # written keys it did not owe yet (no copy of the set).
                    expected = [
                        None if hints is None else len(hints) + len(written - hints)
                        for hints in self._hints
                    ]
                    result = original(self, *args, **kwargs)
                    sanitizer.trace.record(
                        f"group.{op}",
                        f"{_tag(self)} keys={len(written)} alive={self.alive} "
                        f"hints={[self.hints_outstanding(i) for i in range(self.replication)]}",
                    )
                    if self.alive != pre_alive:
                        sanitizer._fail(
                            f"{_tag(self)}.{op} changed liveness "
                            f"{pre_alive} -> {self.alive}"
                        )
                    for index, now in enumerate(self._hints):
                        if pre_alive[index]:
                            if now != set():
                                sanitizer._fail(
                                    f"{_tag(self)}.{op}: live replica {index} "
                                    f"owes {self.hints_outstanding(index)} hinted "
                                    "writes; a live replica applies every write"
                                )
                        elif now is None:
                            continue  # overflowed: a revive rebuilds it whole
                        elif expected[index] != len(now) or not written <= now:
                            sanitizer._fail(
                                f"{_tag(self)}.{op}: dead replica {index} owes "
                                f"{len(now)} hinted keys, expected {expected[index]}"
                                " — its hints must grow by exactly the written keys"
                            )
                    return result
                return checked
            return make

        self._patch(ReplicaGroup, "pick_reader", make_pick_reader)
        self._patch(ReplicaGroup, "_complete_peer", make_complete_peer)
        self._patch(
            ReplicaGroup, "fanout_put",
            make_fanout("fanout_put", lambda key, value: [key]),
        )
        self._patch(
            ReplicaGroup, "fanout_delete",
            make_fanout("fanout_delete", lambda key: [key]),
        )
        self._patch(
            ReplicaGroup, "fanout_multi_put",
            make_fanout("fanout_multi_put", lambda keys, values: keys),
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
