"""Unified metrics: one read-only tree over the counters their owners keep.

A count lives where it is counted — ``StoreStats`` in the engines and
the router, ``ServingTelemetry`` and ``ServingLoop.report()`` in the
serving tier — because those must be exact with observability off.  A
:class:`MetricsRegistry` therefore holds no values, only *readers*::

    registry = MetricsRegistry()
    registry.attach("kv", lambda: store.stats)
    registry.attach("serve", lambda: loop.report(), tenant=spec.name)
    registry.to_json()          # reads now: never stale

:meth:`~MetricsRegistry.attach` takes a zero-argument callable returning
whatever the owner already builds; the two exports call it *at export
time* and flatten the result with one generic walk, so nothing here
knows a field name of any layer:

* a number is a gauge (``bool`` counts as 0/1);
* a dataclass or a dict nests — its field names join the metric name
  with ``_`` (``latency`` → ``p99`` exports as ``latency_p99``);
* a list or tuple fans out under an ``index`` label (``shard_ops`` →
  ``shard_ops{index=1}``; a list inside a list extends it: ``0.1``);
* anything else (strings, ``None``, histograms' internals) is skipped.

:meth:`~MetricsRegistry.to_json` is the nested ``{component: {metric:
value}}`` tree reports and benches persist;
:meth:`~MetricsRegistry.to_prometheus` the Prometheus text exposition
format, so a future serving endpoint can expose the same registry
unchanged.
"""

from __future__ import annotations

import dataclasses
from numbers import Real
from typing import Callable, Iterator

_Labels = tuple[tuple[str, str], ...]


def _flatten(value, name: str, labels: dict) -> Iterator[tuple[str, _Labels, float]]:
    """``(name, labels, number)`` for every number inside ``value``."""
    if isinstance(value, Real):
        yield name, tuple(sorted(labels.items())), value
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for field in dataclasses.fields(value):
            yield from _flatten(getattr(value, field.name), _join(name, field.name), labels)
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _flatten(item, _join(name, str(key)), labels)
    elif isinstance(value, (list, tuple)):
        prefix = f"{labels['index']}." if "index" in labels else ""
        for position, item in enumerate(value):
            yield from _flatten(item, name, {**labels, "index": f"{prefix}{position}"})


def _join(prefix: str, name: str) -> str:
    return f"{prefix}_{name}" if prefix else name


def _prom_name(component: str, name: str) -> str:
    raw = f"repro_{component}_{name}"
    return "".join(ch if (ch.isalnum() or ch == "_") else "_" for ch in raw)


#: What the exposition format asks to be escaped inside a label value.
_LABEL_ESCAPES = str.maketrans({"\\": r"\\", '"': r"\"", "\n": r"\n"})


def _prom_labels(labels: _Labels) -> str:
    """``{k="v",...}``; values are free-form, so they are escaped."""
    if not labels:
        return ""
    return "{" + ",".join(f'{k}="{v.translate(_LABEL_ESCAPES)}"' for k, v in labels) + "}"


class MetricsRegistry:
    """A tree of attached readers, evaluated when exported."""

    def __init__(self) -> None:
        self._sources: list[tuple[str, Callable[[], object], dict[str, str]]] = []

    def attach(self, component: str, read: Callable[[], object], **labels) -> None:
        """Export whatever ``read()`` returns, under ``component``.

        ``read`` runs at every export (an exception it raises propagates
        to the exporter); ``labels`` ride on every number it yields.
        """
        self._sources.append((component, read, {k: str(v) for k, v in labels.items()}))

    def samples(self) -> list[tuple[str, str, _Labels, float]]:
        """Every ``(component, name, labels, number)``, read now; sorted,
        so the samples of one metric are adjacent as Prometheus asks."""
        return sorted(
            (
                (component, name, label_key, number)
                for component, read, labels in self._sources
                for name, label_key, number in _flatten(read(), "", labels)
            ),
            key=lambda sample: sample[:3],
        )

    def to_json(self) -> dict:
        """Nested ``{component: {metric: value}}`` tree; labels render
        into the leaf name as ``metric{k=v,...}``."""
        tree: dict[str, dict] = {}
        for component, name, labels, number in self.samples():
            if labels:
                name += "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"
            tree.setdefault(component, {})[name] = number
        return tree

    def to_prometheus(self) -> str:
        """Prometheus text exposition of the whole tree (all gauges)."""
        lines: list[str] = []
        typed: set[str] = set()
        for component, name, labels, number in self.samples():
            metric = _prom_name(component, name)
            if metric not in typed:
                lines.append(f"# TYPE {metric} gauge")
                typed.add(metric)
            lines.append(f"{metric}{_prom_labels(labels)} {float(number)!r}")
        return "\n".join(lines) + ("\n" if lines else "")


__all__ = ["MetricsRegistry"]
