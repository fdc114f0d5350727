"""Observability overhead: instrumentation must be free when off.

The hot paths — the embedding facade, the trainer's step, the batch
record codec, the shard fan-out, every engine's batch verbs — are
permanently instrumented with ``repro.obs`` spans.  That is only
acceptable if the *disabled* cost — no tracer installed, which is how
every ordinary run executes — is negligible: one global read and a
shared no-op object per call site, no ``perf_counter`` syscalls, no span
allocation.

This bench measures exactly that and emits ``BENCH_obs_overhead.json``
(tagged ``clock="wall"``, gated at the wide wall tolerance):

* per-call cost of a disabled module-level ``span()``, in microseconds;
* end-to-end instrumented-hot-path throughput with observability off
  (the number every ordinary run pays) and with a tracer installed, so
  the enabled cost stays visible — for one facade ``get`` of a resident
  batch, and for whole training steps (a resident DLRM run, the span
  tree ``tests/test_obs_trace.py`` pins: ~10 spans a step).
"""

import tempfile

import numpy as np

from _util import report
from emit import emit

from repro.bench.wallclock import best_of, cores, rate
from repro.core.embedding import EmbeddingTables
from repro.core.mlkv import MLKV
from repro.data import CTRDataset
from repro.device import GPUModel, SimClock, SSDModel
from repro.models import FFNN
from repro.obs.trace import install_tracer, span, uninstall_tracer
from repro.train import DLRMTrainer, TrainerConfig

_DIM = 32
_BATCH = 4096
_CALLS = 50_000
_REPEATS = 5
_TRAIN_STEPS = 24
_TRAIN_BATCH = 32

#: Ceiling for a disabled call site, in µs.  The real cost is a global
#: read plus a shared-object return (~0.1 µs); 5 µs is two orders of
#: magnitude of headroom for starved shared runners while still
#: catching an accidental allocation or perf_counter call on the
#: disabled path.
_DISABLED_CEILING_US = 5.0


def _memory_resident_tables(directory: str) -> tuple[MLKV, EmbeddingTables]:
    store = MLKV(
        directory, ssd=SSDModel(SimClock()), memory_budget_bytes=1 << 24
    )
    return store, EmbeddingTables(store, dim=_DIM, cache_entries=0)


def _noop_span_loop() -> None:
    for _ in range(_CALLS):
        with span("kv.multi_get", keys=64):
            pass


def _empty_loop() -> None:
    for _ in range(_CALLS):
        pass


def _train_seconds(traced: bool) -> float:
    """Wall seconds of one resident DLRM run of ``_TRAIN_STEPS`` steps;
    the stack is built fresh (and outside the timing) every time, so
    each run does the same first-touch work."""
    with tempfile.TemporaryDirectory(prefix="obs-overhead-train-") as td:
        store, tables = _memory_resident_tables(td)
        dataset = CTRDataset(num_fields=4, field_cardinality=300, seed=3)
        network = FFNN(
            num_dense=dataset.num_dense, num_fields=4, emb_dim=_DIM, hidden=(16,),
            rng=np.random.default_rng(0),
        )
        config = TrainerConfig(
            batch_size=_TRAIN_BATCH, pipeline_depth=1, lookahead_distance=2
        )
        trainer = DLRMTrainer(tables, network, GPUModel(store.clock), config, dataset)
        batches = dataset.batches(_TRAIN_STEPS, _TRAIN_BATCH)
        if traced:
            install_tracer(clock=store.clock)
        try:
            return best_of(lambda: trainer.run(batches), repeats=1)
        finally:
            uninstall_tracer()
            store.close()


def test_disabled_observability_is_negligible(benchmark):
    uninstall_tracer()

    rng = np.random.default_rng(21)
    keys = rng.integers(0, 50_000, size=_BATCH)
    values = rng.standard_normal((_BATCH, _DIM)).astype(np.float32)

    def sweep():
        metrics: dict = {}
        # Per-call disabled cost, floor-adjusted by the empty loop so
        # the loop scaffolding itself is not billed to the obs layer.
        floor = best_of(_empty_loop, repeats=_REPEATS)
        noop_span = best_of(_noop_span_loop, repeats=_REPEATS)
        metrics["noop_span_us"] = max(0.0, noop_span - floor) / _CALLS * 1e6

        # End-to-end instrumented hot path (gather through a
        # memory-resident store), observability off — the cost every
        # ordinary run pays — then the same path with a tracer installed.
        with tempfile.TemporaryDirectory(prefix="obs-overhead-") as td:
            store, tables = _memory_resident_tables(td)
            tables.put(keys, values)
            tables.get(keys)  # warm the resident path
            disabled = best_of(lambda: tables.get(keys), repeats=_REPEATS)

            tracer = install_tracer(clock=store.clock)
            enabled = best_of(lambda: tables.get(keys), repeats=_REPEATS)
            uninstall_tracer()
            tracer.reset()
            store.close()
        metrics["disabled_get_keys_per_s"] = rate(_BATCH, disabled)
        metrics["enabled_get_keys_per_s"] = rate(_BATCH, enabled)

        # Whole training steps; off and on alternate so both see the
        # same stretch of host weather.
        _train_seconds(traced=False)  # warm imports and allocator
        pairs = [
            (_train_seconds(traced=False), _train_seconds(traced=True))
            for _ in range(_REPEATS)
        ]
        steps_off = min(off for off, _ in pairs)
        steps_on = min(on for _, on in pairs)
        metrics["train_step_obs_off_steps_per_s"] = rate(_TRAIN_STEPS, steps_off)
        metrics["train_step_obs_on_steps_per_s"] = rate(_TRAIN_STEPS, steps_on)
        return metrics

    metrics = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [
        {
            "path": "noop_span",
            "per_call_us": round(metrics["noop_span_us"], 4),
            "keys_per_s": 0,
            "steps_per_s": 0,
        },
        {
            "path": "get_obs_off",
            "per_call_us": 0,
            "keys_per_s": round(metrics["disabled_get_keys_per_s"]),
            "steps_per_s": 0,
        },
        {
            "path": "get_obs_on",
            "per_call_us": 0,
            "keys_per_s": round(metrics["enabled_get_keys_per_s"]),
            "steps_per_s": 0,
        },
        {
            "path": "train_step_obs_off",
            "per_call_us": 0,
            "keys_per_s": 0,
            "steps_per_s": round(metrics["train_step_obs_off_steps_per_s"], 1),
        },
        {
            "path": "train_step_obs_on",
            "per_call_us": 0,
            "keys_per_s": 0,
            "steps_per_s": round(metrics["train_step_obs_on_steps_per_s"], 1),
        },
    ]
    report(
        "obs_overhead", rows,
        note=f"wall clock (best of {_REPEATS}), {cores()} core(s); "
             "disabled-mode cost of permanent hot-path instrumentation",
    )
    emit(
        "obs_overhead",
        metrics=metrics,
        rows=rows,
        meta={
            "cores": cores(),
            "calls": _CALLS,
            "batch_keys": _BATCH,
            "dim": _DIM,
            "train_steps": _TRAIN_STEPS,
            "train_batch": _TRAIN_BATCH,
            "repeats": _REPEATS,
            "timer": "time.perf_counter best-of",
        },
        clock="wall",
    )

    # The disabled path must stay a global read + shared object — far
    # below the ceiling even on a noisy shared runner.
    assert metrics["noop_span_us"] < _DISABLED_CEILING_US, metrics
    # Tracing is allowed to cost, but not to collapse the hot path: an
    # order of magnitude is the alarm threshold.
    assert (
        metrics["enabled_get_keys_per_s"]
        >= 0.1 * metrics["disabled_get_keys_per_s"]
    ), metrics
    assert (
        metrics["train_step_obs_on_steps_per_s"]
        >= 0.1 * metrics["train_step_obs_off_steps_per_s"]
    ), metrics
