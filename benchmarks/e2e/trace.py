"""Outside-in spans: the benchmark wraps the public calls into each layer.

The traced run replaces *instance attributes* of the objects a workload
built (``tables.get``, ``store.multi_get``, ``server.lookup_unique``...)
with thin recorders; nothing under ``src/`` is edited and an untraced
run never sees this module.  Everything is one thread, so a stack gives
each span its parent, and a layer's self time is its duration minus the
part its child spans cover.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Optional


class Tracer:
    """In-memory span recorder for one single-threaded workload run.

    Spans are rows ``[name, start, end, parent, op, child_seconds]``
    appended on entry and completed on exit; ``parent`` is the row index
    of the enclosing span (``-1`` at the top level) and ``op`` the id of
    the op period the span started in (``-1`` before the first op).

    Ops are recorded in alternating blocks of ``BLOCK_OPS``: five ops with
    spans, five with the wrappers passing straight through.  Both halves
    see the same stretch of host weather, so the ratio of their op times
    is the tracing overhead, measured within one pass.  (An odd block
    length keeps a two-step rhythm of the trainer's pipeline from landing
    on one side only.)
    """

    BLOCK_OPS = 5

    NAME, START, END, PARENT, OP, CHILD = range(6)

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self._clock = clock
        self.op = -1
        self.recording = True  # set-up spans, before the first op

    def records(self, op: int) -> bool:
        """Whether spans of op ``op`` are recorded."""
        return op < 0 or (op // self.BLOCK_OPS) % 2 == 0

    def next_op(self) -> None:
        """Called at every op boundary; later spans belong to the new op.
        No span is open here: boundaries sit between top-level calls."""
        self.op += 1
        self.recording = self.records(self.op)

    def enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        self.spans.append([name, self._clock(), 0.0, parent, self.op, 0.0])
        return index

    def exit(self, index: int) -> None:
        end = self._clock()
        span = self.spans[index]
        span[self.END] = end
        self._stack.pop()
        if span[self.PARENT] >= 0:
            self.spans[span[self.PARENT]][self.CHILD] += end - span[self.START]

    def wrap(self, owner: Any, attribute: str, name: str) -> None:
        """Record a span around every call of ``owner.attribute``."""
        inner: Callable = getattr(owner, attribute)

        def traced(*args, **kwargs):
            if not self.recording:
                return inner(*args, **kwargs)
            index = self.enter(name)
            try:
                return inner(*args, **kwargs)
            finally:
                self.exit(index)

        setattr(owner, attribute, traced)

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def per_op(self, first_op: int, ops: int) -> "OpLedger":
        """Sum span time by name inside each of ``ops`` ops from ``first_op``."""
        ledger = OpLedger(ops)
        for name, start, end, parent, op, child in self.spans:
            slot = op - first_op
            if 0 <= slot < ops:
                ledger.add(name, slot, end - start, end - start - child, parent < 0)
        return ledger

    def durations(self, name: str) -> list[float]:
        """Seconds of every span called ``name``, set-up spans included."""
        return [
            span[self.END] - span[self.START]
            for span in self.spans if span[self.NAME] == name
        ]

    def chrome_trace(self) -> dict:
        """The spans as Chrome trace-event JSON (``chrome://tracing``,
        Perfetto): complete events, microseconds, one thread."""
        origin = self.spans[0][self.START] if self.spans else 0.0
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "pid": 0,
                "tid": 0,
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"op": op, "parent": parent,
                         "self_us": (end - start - child) * 1e6},
            }
            for name, start, end, parent, op, child in self.spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.chrome_trace(), f)


class OpLedger:
    """Per-op totals of span time: by name, self time, call counts."""

    def __init__(self, ops: int) -> None:
        self.ops = ops
        self.total: dict[str, list[float]] = {}
        self.self_time: dict[str, list[float]] = {}
        self.calls: dict[str, list[int]] = {}
        #: Time covered by spans opened directly inside the op period.
        self.attributed = [0.0] * ops

    def add(self, name: str, slot: int, seconds: float, self_seconds: float,
            top_level: bool) -> None:
        if name not in self.total:
            self.total[name] = [0.0] * self.ops
            self.self_time[name] = [0.0] * self.ops
            self.calls[name] = [0] * self.ops
        self.total[name][slot] += seconds
        self.self_time[name][slot] += self_seconds
        self.calls[name][slot] += 1
        if top_level:
            self.attributed[slot] += seconds

    def seconds(self, *names: str, self_only: bool = False) -> list[float]:
        """Per-op seconds summed over ``names`` (absent names count 0)."""
        table = self.self_time if self_only else self.total
        out = [0.0] * self.ops
        for name in names:
            for slot, value in enumerate(table.get(name, ())):
                out[slot] += value
        return out

    def layer_seconds(self, prefix: str) -> list[float]:
        """Per-op *self* seconds of every span whose name starts with
        ``prefix`` — a layer's own time wherever it was called from."""
        return self.seconds(
            *[name for name in self.self_time if name.startswith(prefix)],
            self_only=True,
        )


def maybe_wrap(tracer: Optional[Tracer], owner: Any, attribute: str, name: str) -> None:
    """``tracer.wrap`` in a traced pass, nothing in an untraced one."""
    if tracer is not None:
        tracer.wrap(owner, attribute, name)
