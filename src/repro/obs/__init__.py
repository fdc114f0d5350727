"""Cross-layer observability: two primitives, no copies.

* **Time is a span** (:mod:`repro.obs.trace`).  A span carries *both*
  simulated-clock and wall-clock timestamps and a parent link, so a
  training step (``train.step`` → ``emb.*`` / ``nn.*`` → ``kv.*`` →
  ``device.io``) and a served batch (``serve.batch`` → ... →
  ``device.io``) each render as one causal tree.  Spans are the only
  timer in the hot paths: :meth:`Tracer.ledger
  <repro.obs.trace.Tracer.ledger>` sums them per name (calls, keys,
  total and self seconds on both clocks), ``python -m repro.obs.trace
  view FILE`` prints the same ledger from a dump, and the dump itself
  is Chrome ``trace_event`` JSON (``chrome://tracing``, Perfetto).
  With no tracer installed :func:`span` returns one shared no-op — a
  global read, no allocation, no clock read.
* **A count lives where it is counted.**  Engines, the router and the
  serving tier keep their own exact counters (``StoreStats``,
  ``ServingTelemetry``, ``ServingLoop.report()``), observability on or
  off.  :class:`~repro.obs.registry.MetricsRegistry` only *reads* them:
  ``attach(component, read)`` takes a callable, and the JSON /
  Prometheus exports call it at export time and flatten what it
  returns, so an exported value is never stale and the registry knows
  no layer's field names.

Layering: this package sits *beside* the stack, not inside it — it
imports nothing from ``repro.kv`` / ``repro.serve`` / ``repro.train``,
so any layer may import it without cycles.  Nothing records until a
test, bench, or operator installs a tracer.
"""

from repro.obs.registry import MetricsRegistry
from repro.obs.trace import (
    Span,
    Tracer,
    active_tracer,
    install_tracer,
    instant,
    span,
    uninstall_tracer,
)

__all__ = [
    "MetricsRegistry",
    "Span",
    "Tracer",
    "active_tracer",
    "install_tracer",
    "instant",
    "span",
    "uninstall_tracer",
]
