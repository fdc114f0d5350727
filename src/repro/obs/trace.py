"""Dual-clock tracing: causal spans over simulated *and* wall time.

A span records four timestamps — simulated start/end (from whatever
:class:`~repro.device.clock.SimClock` the call site lives on) and wall
start/end (``time.perf_counter``) — plus a parent link, so one served
request renders as a single causal tree from the serving loop down
through batcher, shard/replica fan-out, engine batch ops, and device
I/O charges, on both timelines at once.  The simulated timeline is the
primary axis (it is deterministic and what the paper's figures are in);
wall durations ride along in ``args`` for real-time attribution.

Usage::

    tracer = install_tracer(clock=clock)     # enable
    with span("serve.batch", batch=16):      # module-level, hot-path safe
        ...
    tracer.dump("trace.json")                # Chrome trace_event JSON
    uninstall_tracer()

While no tracer is installed, :func:`span` returns a shared no-op
context manager — one global read, no span allocation — so permanently
instrumented hot paths cost nothing in ordinary runs.  Causality uses a
single span stack per tracer: the stack matches the stack discipline of
the simulated single-threaded execution model, where nested work *is*
the caller's callee.

Export is the Chrome ``trace_event`` format (open ``chrome://tracing``
or https://ui.perfetto.dev and load the file).  Spans are also the
repository's only timer: :meth:`Tracer.ledger` sums them per name —
calls, keys, total and self seconds on both clocks — and ``python -m
repro.obs.trace view FILE`` prints that same ledger, plus the critical
path, from a dump without leaving the terminal.
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Optional


class Span:
    """One completed (or in-flight) traced region."""

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "sim_start",
        "sim_end",
        "wall_start",
        "wall_end",
        "args",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        args: Optional[dict] = None,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.sim_start: Optional[float] = None
        self.sim_end: Optional[float] = None
        self.wall_start = 0.0
        self.wall_end = 0.0
        self.args = args or {}


class _NoopSpan:
    """Shared do-nothing context manager handed out while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NOOP = _NoopSpan()


class _LiveSpan:
    """Context manager recording one span into its tracer."""

    __slots__ = ("_tracer", "_span", "_clock")

    def __init__(self, tracer: "Tracer", span: Span, clock) -> None:
        self._tracer = tracer
        self._span = span
        self._clock = clock

    def __enter__(self) -> Span:
        record = self._span
        if self._clock is not None:
            record.sim_start = self._clock.now
        record.wall_start = time.perf_counter()
        self._tracer._stack.append(record.span_id)
        return record

    def __exit__(self, *exc) -> bool:
        record = self._span
        record.wall_end = time.perf_counter()
        if self._clock is not None:
            record.sim_end = self._clock.now
        stack = self._tracer._stack
        if stack and stack[-1] == record.span_id:
            stack.pop()
        self._tracer.spans.append(record)
        return False


class Tracer:
    """Collects spans and instants; exports Chrome ``trace_event`` JSON.

    ``clock`` is the default simulated timeline: a span whose call site
    does not pass its own clock (the batcher is deliberately clock-free,
    for instance) still lands on the shared timeline.  Spans may carry a
    different clock — their sim timestamps then read from that clock.
    """

    def __init__(self, clock=None, process_name: str = "repro") -> None:
        self.clock = clock
        self.process_name = process_name
        self.spans: list[Span] = []
        self.instants: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 1
        self._wall_epoch = time.perf_counter()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def span(self, name: str, clock=None, **args) -> _LiveSpan:
        """A context manager tracing ``name`` as a child of the current
        innermost span."""
        parent = self._stack[-1] if self._stack else None
        span_id = self._next_id
        self._next_id += 1
        return _LiveSpan(
            self, Span(name, span_id, parent, args or None), clock or self.clock
        )

    def instant(self, name: str, clock=None, **args) -> None:
        """A zero-duration event (chaos injections, phase flips)."""
        parent = self._stack[-1] if self._stack else None
        record = Span(name, self._next_id, parent, args or None)
        self._next_id += 1
        timeline = clock or self.clock
        if timeline is not None:
            record.sim_start = record.sim_end = timeline.now
        record.wall_start = record.wall_end = time.perf_counter()
        self.instants.append(record)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def _timestamps_us(self, record: Span) -> tuple[float, float]:
        """(ts, dur) in microseconds on the primary (simulated) axis,
        falling back to wall offsets for clock-less spans."""
        if record.sim_start is not None and record.sim_end is not None:
            return record.sim_start * 1e6, (record.sim_end - record.sim_start) * 1e6
        start = (record.wall_start - self._wall_epoch) * 1e6
        return start, (record.wall_end - record.wall_start) * 1e6

    def _event_args(self, record: Span) -> dict:
        args = dict(record.args)
        args["span_id"] = record.span_id
        if record.parent_id is not None:
            args["parent_id"] = record.parent_id
        args["wall_us"] = (record.wall_end - record.wall_start) * 1e6
        if record.sim_start is not None and record.sim_end is not None:
            args["sim_us"] = (record.sim_end - record.sim_start) * 1e6
        return args

    def to_chrome(self) -> dict:
        """The trace as a Chrome ``trace_event`` JSON object."""
        events: list[dict] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "tid": 1,
                "args": {"name": self.process_name},
            }
        ]
        for record in self.spans:
            ts, dur = self._timestamps_us(record)
            events.append(
                {
                    "name": record.name,
                    "cat": record.name.split(".", 1)[0],
                    "ph": "X",
                    "ts": ts,
                    "dur": dur,
                    "pid": 1,
                    "tid": 1,
                    "args": self._event_args(record),
                }
            )
        for record in self.instants:
            ts, _ = self._timestamps_us(record)
            events.append(
                {
                    "name": record.name,
                    "cat": record.name.split(".", 1)[0],
                    "ph": "i",
                    "s": "t",
                    "ts": ts,
                    "pid": 1,
                    "tid": 1,
                    "args": self._event_args(record),
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def dump(self, path: str) -> None:
        """Write the Chrome trace JSON to ``path``."""
        with open(path, "w") as handle:
            json.dump(self.to_chrome(), handle)

    def ledger(self) -> dict[str, dict[str, float]]:
        """Where the time went, per span name (:func:`ledger` of the
        spans recorded so far)."""
        return ledger(self.to_chrome()["traceEvents"])

    def reset(self) -> None:
        """Drop all recorded spans and instants."""
        self.spans.clear()
        self.instants.clear()
        self._stack.clear()


# ----------------------------------------------------------------------
# module-level hot-path surface
# ----------------------------------------------------------------------
_ACTIVE: Optional[Tracer] = None


def install_tracer(tracer: Optional[Tracer] = None, clock=None) -> Tracer:
    """Install (and return) the process-wide tracer; spans start recording."""
    global _ACTIVE
    _ACTIVE = tracer if tracer is not None else Tracer(clock=clock)
    return _ACTIVE


def uninstall_tracer() -> Optional[Tracer]:
    """Stop tracing; returns the tracer that was active (for export)."""
    global _ACTIVE
    tracer, _ACTIVE = _ACTIVE, None
    return tracer


def active_tracer() -> Optional[Tracer]:
    """The process-wide tracer, or ``None`` when tracing is off."""
    return _ACTIVE


def span(name: str, clock=None, **args):
    """Trace ``name`` under the active tracer; shared no-op when none."""
    tracer = _ACTIVE
    if tracer is None:
        return _NOOP
    return tracer.span(name, clock, **args)


def instant(name: str, clock=None, **args) -> None:
    """Record an instant event under the active tracer; no-op when none."""
    tracer = _ACTIVE
    if tracer is not None:
        tracer.instant(name, clock, **args)


# ----------------------------------------------------------------------
# the ledger, and the CLI that prints it:
# `python -m repro.obs.trace view trace.json`
# ----------------------------------------------------------------------
_LEDGER_FIELDS = (
    "calls", "keys", "sim_seconds", "sim_self_seconds", "wall_seconds", "wall_self_seconds",
)


def ledger(events: list[dict]) -> dict[str, dict[str, float]]:
    """Aggregate Chrome complete events (``Tracer.to_chrome`` output, or
    a loaded dump) per span name.

    Each row holds ``calls``, ``keys`` (the sum of the spans' ``keys=``
    argument) and, on the simulated and the wall clock alike, total
    seconds and *self* seconds — a span's duration minus what its direct
    children cover, so the self columns of a tree add up to its roots'
    totals.  A span without a simulated clock counts 0 there.
    """
    spans = [
        (event["name"], event.get("args", {}))
        for event in events
        if event.get("ph") == "X"
    ]
    covered: dict[int, list[float]] = {}  # parent id -> [sim_us, wall_us] of its children
    for _, args in spans:
        if "parent_id" in args:
            below = covered.setdefault(args["parent_id"], [0.0, 0.0])
            below[0] += args.get("sim_us", 0.0)
            below[1] += args.get("wall_us", 0.0)
    rows: dict[str, dict[str, float]] = {}
    for name, args in spans:
        sim, wall = args.get("sim_us", 0.0), args.get("wall_us", 0.0)
        below_sim, below_wall = covered.get(args.get("span_id"), (0.0, 0.0))
        row = rows.setdefault(name, dict.fromkeys(_LEDGER_FIELDS, 0))
        row["calls"] += 1
        row["keys"] += args.get("keys", 0)
        row["sim_seconds"] += sim / 1e6
        row["sim_self_seconds"] += max(0.0, sim - below_sim) / 1e6
        row["wall_seconds"] += wall / 1e6
        row["wall_self_seconds"] += max(0.0, wall - below_wall) / 1e6
    return rows


def _view(path: str) -> int:
    with open(path) as handle:
        payload = json.load(handle)
    events = payload["traceEvents"] if isinstance(payload, dict) else payload
    events = [event for event in events if event.get("ph") == "X"]
    if not events:
        print(f"{path}: no complete (ph=X) events")
        return 1
    print(
        f"{'span':<24}{'calls':>7}{'keys':>10}{'sim_ms':>12}{'sim_self_ms':>12}"
        f"{'wall_ms':>12}{'wall_self_ms':>13}"
    )
    rows = ledger(events)
    for name in sorted(
        rows, key=lambda n: (-rows[n]["sim_self_seconds"], -rows[n]["wall_self_seconds"])
    ):
        row = rows[name]
        print(
            f"{name:<24}{row['calls']:>7}{row['keys']:>10}"
            f"{row['sim_seconds'] * 1e3:>12.3f}{row['sim_self_seconds'] * 1e3:>12.3f}"
            f"{row['wall_seconds'] * 1e3:>12.3f}{row['wall_self_seconds'] * 1e3:>13.3f}"
        )
    # Critical path: the longest root, descending into its longest child.
    ids = {event.get("args", {}).get("span_id") for event in events}
    children: dict[int, list[dict]] = {}
    roots: list[dict] = []
    for event in events:
        parent = event.get("args", {}).get("parent_id")
        if parent is not None and parent in ids:
            children.setdefault(parent, []).append(event)
        else:
            roots.append(event)
    head = max(roots, key=lambda event: event.get("dur", 0.0))
    print("\ncritical path (longest root, longest child at each level):")
    depth = 0
    while head is not None:
        indent = "  " * depth
        print(f"{indent}{head['name']}  dur={head.get('dur', 0.0):.1f}us")
        below = children.get(head.get("args", {}).get("span_id"), [])
        head = max(below, key=lambda event: event.get("dur", 0.0)) if below else None
        depth += 1
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    """Command-line entry point (``python -m repro.obs.trace``)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.trace",
        description="Inspect Chrome trace_event JSON emitted by repro.obs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    view = sub.add_parser("view", help="per-span aggregate + critical path")
    view.add_argument("path", help="trace JSON file (Tracer.dump output)")
    args = parser.parse_args(argv)
    if args.command == "view":
        return _view(args.path)
    return 2  # pragma: no cover - argparse enforces the subcommand


if __name__ == "__main__":
    raise SystemExit(main())


__all__ = [
    "Span",
    "Tracer",
    "active_tracer",
    "install_tracer",
    "instant",
    "ledger",
    "main",
    "span",
    "uninstall_tracer",
]
