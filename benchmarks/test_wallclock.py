"""Wall-clock hot paths: the real-time dimension of the perf gate.

Every other bench runs on the simulated clock, which charges by
*operation count* — so it cannot see the three optimizations this file
measures, whose whole point is doing the same operations in less real
CPU time:

* **vectorized gather/scatter** — the list-of-values vector codec (one
  batch decode, one dedup'd batch encode) versus the per-key reference
  loop it replaced, and the embedding facade's ``get``/``put`` end to end,
* **rows in, rows out** — a ``tables.get`` + ``tables.put`` cycle of one
  ``dlrm_mem`` step's keys over the resident table next to the
  ``get_rows`` + ``put_rows`` cycle underneath it, and the 8-shard
  router's ``get_rows`` next to its ``multi_get`` on the same keys,
* **vectorized row optimizers** — ``RowAdagrad``/``RowAdam`` arena
  updates versus the per-key dict-of-rows reference,
* **the out-of-core engine path** — ``multi_get``, ``multi_put`` and
  look-ahead staging of an MLKV store holding a table some seven times
  its buffer, where most of a batch is read from and re-appended past the
  file (batched positional reads, block appends, overflow-table
  admission),
* **small batches** — the serving tier's sub-calls: an 18-key
  ``snapshot_read_many`` of records on disk against one MLKV engine, and
  a 63-key one through a 4-shard router, each next to the per-key loop of
  ``snapshot_read`` over the same keys,
* **sparse message passing** — a GAT training step (forward, loss,
  backward) over sampled CSR blocks, and the neighbor sampler that
  builds them; the dense net is ~80% of a ``gnn_dense`` step,
* **the gradient path** — a DLRM training step (FFNN forward,
  ``bce_with_logits``, backward through the embedding gather down to the
  leaf) at ``dlrm_mem``'s shapes, and ``RowAdagrad.updated_rows`` for one
  batch's sorted keys against an arena that already holds the whole
  table (the ``adagrad`` row above runs on a fresh, cache-resident arena
  and never sees ``resolve`` search 104,000 keys),
* **the serving loop** — a closed loop of 256 zipfian users through
  :class:`~repro.serve.ServingLoop` over a resident sharded store (the
  shape of the repository benchmark's ``serve_restored`` with the disk
  taken out, so the number is the loop, the batcher and the cache), and
  the scrambled-zipfian chooser on its own.

Timings are best-of-N ``time.perf_counter`` (see
:mod:`repro.bench.wallclock`); the emitted payload is tagged
``"clock": "wall"`` so the gate applies the wide wall tolerance;
``meta.cores`` records the cores the numbers were measured with.
"""

import os
import tempfile

import numpy as np

from _util import report
from emit import emit

from repro.bench.wallclock import best_of, cores, rate, speedup
from repro.core.embedding import EmbeddingTables
from repro.data import GraphDataset, NeighborSampler
from repro.data.ctr import CTRDataset
from repro.core.mlkv import MLKV
from repro.device import SimClock, SSDModel
from repro.kv.common.serialization import (
    decode_vector,
    decode_vectors,
    encode_vector,
    encode_vectors,
)
from repro.kv.sharded import ShardedKVStore
from repro.models import FFNN
from repro.models.gnn import GAT
from repro.nn import Tensor, bce_with_logits, softmax_cross_entropy
from repro.nn.optim import RowAdagrad, RowAdam
from repro.serve import BatchPolicy, EmbeddingServer, LoadGenerator, ServingLoop

_DIM = 32
_BATCH = 4096
_FANOUT_SHARDS = 8
_FANOUT_KEYS = 20_000
_REPEATS = 5
_CYCLE_TABLE_KEYS = 104_000
_CYCLE_KEYS = 3_668
_OOC_KEYS = 100_000
_OOC_VALUE_BYTES = 128
_OOC_BUDGET_BYTES = 2 << 20
_SMALL_TABLE_KEYS = 25_000
_SMALL_BUDGET_BYTES = 1 << 20
_SMALL_ENGINE_KEYS = 18
_SMALL_ROUTER_KEYS = 63
_SMALL_CALLS = 64
_GNN_NODES = 20_000
_GNN_HIDDEN = 256
_GNN_BATCH = 64
_GNN_FANOUTS = (5, 5)
_GNN_STEPS = 10
_DLRM_BATCH = 256
_DLRM_FIELDS = 26
_DLRM_CARDINALITY = 4000
_DLRM_STEPS = 10
_SERVE_KEYS = 100_000
_SERVE_SHARDS = 4
_SERVE_USERS = 256
_SERVE_CALLS = 20
_SERVE_CALL_REQUESTS = 4096


def _memory_resident_store(directory: str) -> MLKV:
    """A store big enough that every access stays on the in-memory path,
    so the measurement isolates CPU work from simulated-device modeling."""
    return MLKV(directory, ssd=SSDModel(SimClock()), memory_budget_bytes=1 << 24)


# ----------------------------------------------------------------------
# reference implementations (the per-key paths the vectorized code replaced)
# ----------------------------------------------------------------------
def _reference_gather(raws, dim):
    # The pre-vectorization loop: decode each raw record separately and
    # copy it into its row of the output matrix.
    out = np.empty((len(raws), dim), dtype=np.float32)
    for i, raw in enumerate(raws):
        out[i] = decode_vector(raw, dim=dim)
    return out


def _reference_scatter(keys, rows):
    # The pre-vectorization path: dict-based last-wins dedup walking the
    # batch row by row, then one encoded bytes object per survivor.
    seen: dict = {}
    for key, row in zip(keys, rows):
        seen[int(key)] = row
    return list(seen), [encode_vector(row) for row in seen.values()]


def _vectorized_scatter(keys, rows):
    # What EmbeddingTables.put does now: unique over the reversed keys
    # dedups last-wins in one pass, then one staged encode for the batch.
    unique, rev_index = np.unique(keys[::-1], return_index=True)
    survivors = rows[keys.shape[0] - 1 - rev_index]
    return unique.tolist(), encode_vectors(survivors)


def _reference_adagrad_delta(state, keys, grads, lr, eps):
    out = np.empty_like(grads)
    for i, key in enumerate(keys):
        acc = state.get(int(key))
        if acc is None:
            acc = np.zeros(grads.shape[1], dtype=np.float32)
        acc = acc + grads[i] * grads[i]
        state[int(key)] = acc
        out[i] = -(lr * grads[i] / (np.sqrt(acc) + eps))
    return out


def _reference_adam_delta(state, keys, grads, lr, beta1, beta2, eps):
    out = np.empty_like(grads)
    for i, key in enumerate(keys):
        m, v, t = state.get(int(key), (None, None, 0))
        if m is None:
            m = np.zeros(grads.shape[1], dtype=np.float32)
            v = np.zeros(grads.shape[1], dtype=np.float32)
        t += 1
        m = beta1 * m + (1.0 - beta1) * grads[i]
        v = beta2 * v + (1.0 - beta2) * grads[i] * grads[i]
        state[int(key)] = (m, v, t)
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        out[i] = -(lr * m_hat / (np.sqrt(v_hat) + eps))
    return out


# ----------------------------------------------------------------------
# measurement groups
# ----------------------------------------------------------------------
def _bench_gather_scatter(rows_out, metrics):
    """The gather/scatter layer the vectorization replaced.

    The store's ``multi_get``/``multi_put`` were already batched before
    this optimization and are unchanged, so the honest comparison is the
    layer around them: batch ``decode_vectors`` + one fancy-indexed
    assignment versus the old per-row ``decode_vector`` loop (gather),
    and vectorized last-wins dedup + ``encode_vectors``'s single staging
    matrix versus the old dict-dedup walk + per-row ``encode_vector``
    (scatter).  End-to-end facade throughput through a
    real store is emitted alongside as ``end_to_end_*`` so the composite
    number stays visible too.
    """
    rng = np.random.default_rng(11)
    keys = rng.integers(0, 50_000, size=_BATCH)
    values = rng.standard_normal((_BATCH, _DIM)).astype(np.float32)
    raws = encode_vectors(values)

    vec_gather = best_of(
        lambda: decode_vectors(raws, dim=_DIM), repeats=_REPEATS
    )
    ref_gather = best_of(
        lambda: _reference_gather(raws, _DIM), repeats=_REPEATS
    )
    vec_scatter = best_of(
        lambda: _vectorized_scatter(keys, values), repeats=_REPEATS
    )
    ref_scatter = best_of(
        lambda: _reference_scatter(keys, values), repeats=_REPEATS
    )

    gather_speedup = speedup(ref_gather, vec_gather)
    scatter_speedup = speedup(ref_scatter, vec_scatter)
    metrics["gather_keys_per_s"] = rate(_BATCH, vec_gather)
    metrics["gather_speedup"] = gather_speedup
    metrics["scatter_speedup"] = scatter_speedup
    # The headline number is the round-trip a training step pays (decode
    # the batch in, dedup + encode the updates out), so a regression in
    # either half moves it.
    metrics["gather_scatter_speedup"] = speedup(
        ref_gather + ref_scatter, vec_gather + vec_scatter
    )
    rows_out.append({
        "path": "gather",
        "vectorized_keys_per_s": round(metrics["gather_keys_per_s"]),
        "reference_keys_per_s": round(rate(_BATCH, ref_gather)),
        "speedup": round(gather_speedup, 2),
    })
    rows_out.append({
        "path": "scatter",
        "vectorized_keys_per_s": round(rate(_BATCH, vec_scatter)),
        "reference_keys_per_s": round(rate(_BATCH, ref_scatter)),
        "speedup": round(scatter_speedup, 2),
    })

    # End-to-end facade throughput over a memory-resident store: the
    # composite the user actually feels (store probes included).
    with tempfile.TemporaryDirectory(prefix="wall-emb-") as td:
        store = _memory_resident_store(td)
        # cache_entries=0: every get exercises the store path being timed.
        tables = EmbeddingTables(store, dim=_DIM, cache_entries=0)
        tables.put(keys, values)  # pre-insert so no lazy-init in the loop
        unique = np.unique(keys)
        unique_rows = rng.standard_normal((unique.shape[0], _DIM)).astype(np.float32)
        e2e_get = best_of(lambda: tables.get(keys), repeats=_REPEATS)
        e2e_put = best_of(lambda: tables.put(unique, unique_rows), repeats=_REPEATS)
        store.close()
    metrics["end_to_end_get_keys_per_s"] = rate(_BATCH, e2e_get)
    metrics["end_to_end_put_keys_per_s"] = rate(unique.shape[0], e2e_put)
    rows_out.append({
        "path": "end_to_end_get",
        "vectorized_keys_per_s": round(metrics["end_to_end_get_keys_per_s"]),
        "reference_keys_per_s": 0,
        "speedup": 0,
    })


def _bench_rows_cycle(rows_out, metrics):
    """One ``dlrm_mem`` step's Get + Put: 3,668 sorted unique keys against a
    resident 104,000-key table, through the facade (float32 matrix in and
    out) and through the engine's array verbs (framed ``uint8`` rows)."""
    rng = np.random.default_rng(17)
    keys = np.sort(rng.permutation(_CYCLE_TABLE_KEYS)[:_CYCLE_KEYS])
    values = rng.standard_normal((_CYCLE_KEYS, _DIM)).astype(np.float32)
    with tempfile.TemporaryDirectory(prefix="wall-cycle-") as td:
        store = MLKV(td, ssd=SSDModel(SimClock()), memory_budget_bytes=1 << 26)
        tables = EmbeddingTables(store, dim=_DIM, cache_entries=0)
        everything = np.arange(_CYCLE_TABLE_KEYS)
        tables.put(everything, np.zeros((_CYCLE_TABLE_KEYS, _DIM), dtype=np.float32))
        framed = np.empty((_CYCLE_KEYS, 1 + 4 * _DIM), dtype=np.uint8)
        calls = {
            "facade_get": lambda: tables.get(keys),
            "facade_put": lambda: tables.put(keys, values),
            "engine_get": lambda: store.get_rows(keys, framed),
            "engine_put": lambda: store.put_rows(keys, framed),
        }
        # Alternated in one loop, so the best of each half saw the same
        # host speed (the host has slow spells lasting minutes).
        best = dict.fromkeys(calls, float("inf"))
        for _ in range(4 * _REPEATS):
            for name, call in calls.items():
                best[name] = min(best[name], best_of(call, repeats=1))
        facade = best["facade_get"] + best["facade_put"]
        engine = best["engine_get"] + best["engine_put"]
        store.close()
    metrics["facade_cycle_keys_per_s"] = rate(_CYCLE_KEYS, facade)
    metrics["engine_rows_cycle_keys_per_s"] = rate(_CYCLE_KEYS, engine)
    rows_out.append({
        "path": "facade_cycle",
        "vectorized_keys_per_s": round(metrics["facade_cycle_keys_per_s"]),
        "reference_keys_per_s": round(metrics["engine_rows_cycle_keys_per_s"]),
        "speedup": round(engine / facade, 2),
    })


def _bench_optimizers(rows_out, metrics):
    rng = np.random.default_rng(12)
    keys = np.unique(rng.integers(0, 200_000, size=_BATCH))
    grads = rng.standard_normal((keys.shape[0], _DIM)).astype(np.float32)
    key_list = keys.tolist()

    adagrad = RowAdagrad(lr=0.05)
    ref_adagrad_state: dict = {}
    vec = best_of(lambda: adagrad.delta_rows(key_list, grads), repeats=_REPEATS)
    ref = best_of(
        lambda: _reference_adagrad_delta(
            ref_adagrad_state, key_list, grads, adagrad.lr, adagrad.eps
        ),
        repeats=_REPEATS,
    )
    metrics["adagrad_speedup"] = speedup(ref, vec)
    rows_out.append({
        "path": "adagrad",
        "vectorized_keys_per_s": round(rate(keys.shape[0], vec)),
        "reference_keys_per_s": round(rate(keys.shape[0], ref)),
        "speedup": round(metrics["adagrad_speedup"], 2),
    })

    adam = RowAdam(lr=0.05)
    ref_adam_state: dict = {}
    vec = best_of(lambda: adam.delta_rows(key_list, grads), repeats=_REPEATS)
    ref = best_of(
        lambda: _reference_adam_delta(
            ref_adam_state, key_list, grads, adam.lr, adam.beta1, adam.beta2,
            adam.eps,
        ),
        repeats=_REPEATS,
    )
    metrics["adam_speedup"] = speedup(ref, vec)
    rows_out.append({
        "path": "adam",
        "vectorized_keys_per_s": round(rate(keys.shape[0], vec)),
        "reference_keys_per_s": round(rate(keys.shape[0], ref)),
        "speedup": round(metrics["adam_speedup"], 2),
    })


def _bench_router(rows_out, metrics):
    """The 8-shard router's ``get_rows`` next to its ``multi_get``."""
    rng = np.random.default_rng(14)
    item_keys = list(range(0, 60_000, 2))
    item_values = [bytes([k % 251]) * 64 for k in item_keys]
    # Distinct keys, all present: a batch the engines serve as arrays.  (A
    # probe of random keys is half absent and holds repeats, and measures
    # the engines' per-key loop.)
    probe = rng.permutation(item_keys)[:_FANOUT_KEYS].tolist()
    with tempfile.TemporaryDirectory(prefix="wall-router-") as td:
        store = ShardedKVStore(
            lambda index: _memory_resident_store(os.path.join(td, f"shard{index}")),
            _FANOUT_SHARDS,
        )
        store.multi_put(item_keys, item_values)
        store.multi_get(probe)  # warm every shard's resident path
        listed = best_of(lambda: store.multi_get(probe), repeats=_REPEATS)
        probe_array = np.array(probe)
        out = np.empty((_FANOUT_KEYS, 64), dtype=np.uint8)
        assert store.get_rows(probe_array, out).all()
        rowed = best_of(lambda: store.get_rows(probe_array, out), repeats=_REPEATS)
        store.close()
    metrics["router_multi_get_keys_per_s"] = rate(_FANOUT_KEYS, listed)
    metrics["router_get_rows_keys_per_s"] = rate(_FANOUT_KEYS, rowed)
    rows_out.append({
        "path": "router_get_rows",
        "vectorized_keys_per_s": round(metrics["router_get_rows_keys_per_s"]),
        "reference_keys_per_s": round(metrics["router_multi_get_keys_per_s"]),
        "speedup": round(listed / rowed, 2),
    })


def _bench_out_of_core(rows_out, metrics):
    """Engine throughput with ~85% of every batch on disk.

    100k present keys of 128 B under a 2 MiB buffer (the log is ~15 MB);
    each timed call gets its own batch of 4,096 distinct keys drawn
    uniformly, because a batch read, written or staged once is resident
    the second time.  Simulated device time is charged as ever and not
    measured here.
    """
    rng = np.random.default_rng(15)
    value = bytes(_OOC_VALUE_BYTES)
    with tempfile.TemporaryDirectory(prefix="wall-ooc-") as td:
        store = MLKV(td, ssd=SSDModel(SimClock()), memory_budget_bytes=_OOC_BUDGET_BYTES)
        for start in range(0, _OOC_KEYS, _BATCH):
            keys = list(range(start, min(start + _BATCH, _OOC_KEYS)))
            store.multi_put(keys, [value] * len(keys))

        def batches():
            while True:
                yield rng.choice(_OOC_KEYS, size=_BATCH, replace=False).tolist()

        draw = batches()
        values = [value] * _BATCH
        staged = []
        get = best_of(lambda: store.multi_get(next(draw)), repeats=_REPEATS)
        put = best_of(lambda: store.multi_put(next(draw), values), repeats=_REPEATS)
        stage = best_of(lambda: staged.append(store.lookahead(next(draw))), repeats=_REPEATS)
        disk_share = store.stats.misses / store.stats.gets
        store.close()
    metrics["ooc_multi_get_keys_per_s"] = rate(_BATCH, get)
    metrics["ooc_multi_put_keys_per_s"] = rate(_BATCH, put)
    # Staging skips what is resident: the rate counts records copied.
    metrics["lookahead_stage_records_per_s"] = rate(min(staged), stage)
    assert disk_share > 0.7 and min(staged) > 0.7 * _BATCH, (disk_share, staged)
    for path, metric in (("ooc_multi_get", "ooc_multi_get_keys_per_s"),
                         ("ooc_multi_put", "ooc_multi_put_keys_per_s"),
                         ("lookahead_stage", "lookahead_stage_records_per_s")):
        rows_out.append({
            "path": path,
            "vectorized_keys_per_s": round(metrics[metric]),
            "reference_keys_per_s": 0,
            "speedup": 0,
        })


def _small_batches(store, owner, table: int, size: int, rng) -> list:
    """Fill ``store`` with keys ``0..table-1`` (128-byte values) and draw
    ``_SMALL_CALLS`` batches of ``size`` distinct keys whose records are on
    disk; ``owner(key)`` is the engine holding ``key``."""
    value = bytes(_OOC_VALUE_BYTES)
    for start in range(0, table, _BATCH):
        keys = list(range(start, min(start + _BATCH, table)))
        store.multi_put(keys, [value] * len(keys))
    on_disk = [
        key for key in range(table)
        if not owner(key).log.in_memory(owner(key).index.find(key))
    ]
    return [rng.choice(on_disk, size=size, replace=False).tolist() for _ in range(_SMALL_CALLS)]


def _bench_small_batches(rows_out, metrics):
    """The serving tier's sub-call sizes, against the per-key loop.

    ``serve_restored`` reads ~63 keys per micro-batch through a 4-shard
    router, ~18 per engine, every record on disk.  Here one MLKV engine
    and a 4-shard router hold 25,000 128-byte records an engine behind a
    1 MiB buffer each; a timed call reads ``_SMALL_CALLS`` batches of
    distinct keys whose records are on disk (snapshot reads move nothing,
    so every repeat reads what the first did).  The reference is
    ``snapshot_read`` key by key over the same batches.
    """
    rng = np.random.default_rng(18)
    with tempfile.TemporaryDirectory(prefix="wall-small-") as td:
        ssd = SSDModel(SimClock())
        engine = MLKV(os.path.join(td, "engine"), ssd=ssd, memory_budget_bytes=_SMALL_BUDGET_BYTES)
        router = ShardedKVStore(
            lambda index: MLKV(os.path.join(td, f"shard{index}"), ssd=ssd,
                               memory_budget_bytes=_SMALL_BUDGET_BYTES),
            _SERVE_SHARDS,
        )
        sides = {
            "small_engine_snapshot": (engine, _small_batches(
                engine, lambda key: engine, _SMALL_TABLE_KEYS, _SMALL_ENGINE_KEYS, rng)),
            "small_router_snapshot": (router, _small_batches(
                router, lambda key: router.shards[router.shard_of(key)],
                _SERVE_SHARDS * _SMALL_TABLE_KEYS, _SMALL_ROUTER_KEYS, rng)),
        }
        calls = {}
        for path, (store, batches) in sides.items():
            misses = store.stats.misses
            for batch in batches:
                store.snapshot_read_many(batch)
            assert store.stats.misses - misses == sum(map(len, batches)), path  # all on disk
            calls[path] = lambda store=store, batches=batches: [
                store.snapshot_read_many(batch) for batch in batches
            ]
            calls[path + "_loop"] = lambda store=store, batches=batches: [
                store.snapshot_read(key) for batch in batches for key in batch
            ]
        # Alternated in one loop, so the best of each saw the same host speed.
        best = dict.fromkeys(calls, float("inf"))
        for _ in range(2 * _REPEATS):
            for name, call in calls.items():
                best[name] = min(best[name], best_of(call, repeats=1))
        engine.close()
        router.close()
    for path, (_, batches) in sides.items():
        keys = sum(map(len, batches))
        metrics[path + "_keys_per_s"] = rate(keys, best[path])
        metrics[path + "_speedup"] = speedup(best[path + "_loop"], best[path])
        rows_out.append({
            "path": path,
            "vectorized_keys_per_s": round(metrics[path + "_keys_per_s"]),
            "reference_keys_per_s": round(rate(keys, best[path + "_loop"])),
            "speedup": round(metrics[path + "_speedup"], 2),
        })


def _bench_gnn(rows_out, metrics):
    """GAT training steps and neighbor sampling at ``gnn_dense``'s shapes.

    Two sampled hops around 64 seeds of a 20,000-node graph reach ~1,650
    nodes over ~2,100 edges; a step is forward, softmax cross-entropy and
    backward down to the input features.  Sampling draws fresh
    neighborhoods on every repeat (the sampler owns its RNG stream); the
    steps run over the last set drawn.
    """
    graph = GraphDataset(num_nodes=_GNN_NODES, seed=11)
    sampler = NeighborSampler(graph, fanouts=_GNN_FANOUTS, mode="mask", seed=0)
    seed_batches = graph.seed_batches(_GNN_STEPS, _GNN_BATCH)
    drawn = []
    sample = best_of(
        lambda: drawn.append([sampler.sample(seeds) for seeds in seed_batches]),
        repeats=_REPEATS,
    )
    batches = drawn[-1]
    network = GAT(in_dim=_DIM, hidden_dim=_GNN_HIDDEN, num_classes=graph.num_classes)
    rng = np.random.default_rng(16)
    features = [
        rng.normal(0.0, 0.3, (len(batch.input_nodes), _DIM)).astype(np.float32)
        for batch in batches
    ]

    def steps():
        for batch, rows in zip(batches, features):
            network.zero_grad()
            leaf = Tensor(rows, requires_grad=True)
            logits = network(leaf, batch.frontiers, batch.blocks)
            softmax_cross_entropy(logits, graph.labels[batch.seeds]).backward()

    steps()  # warmup
    metrics["gnn_fwd_bwd_steps_per_s"] = rate(_GNN_STEPS, best_of(steps, repeats=_REPEATS))
    metrics["gnn_sample_batches_per_s"] = rate(_GNN_STEPS, sample)
    for path, metric in (("gnn_fwd_bwd", "gnn_fwd_bwd_steps_per_s"),
                         ("gnn_sample", "gnn_sample_batches_per_s")):
        rows_out.append({
            "path": path,
            "vectorized_keys_per_s": round(metrics[metric], 1),
            "reference_keys_per_s": 0,
            "speedup": 0,
        })


def _bench_dlrm(rows_out, metrics):
    """The gradient path of a DLRM step at ``dlrm_mem``'s shapes.

    A batch of 256 samples x 26 fields names ~3,670 of the table's
    104,000 rows.  A step is the FFNN forward, ``bce_with_logits`` and
    backward down to the gathered leaf; a row update is
    ``RowAdagrad.updated_rows`` for the batch's sorted keys with every
    key of the table already in the arena, as after a few hundred steps
    of training.
    """
    dataset = CTRDataset(num_fields=_DLRM_FIELDS, field_cardinality=_DLRM_CARDINALITY, seed=0)
    network = FFNN(dataset.num_dense, dataset.num_fields, _DIM)
    rng = np.random.default_rng(18)
    prepared = []
    for batch in dataset.batches(_DLRM_STEPS, _DLRM_BATCH, seed=18):
        keys = np.unique(batch.sparse)
        rows = rng.normal(0.0, 0.05, (len(keys), _DIM)).astype(np.float32)
        prepared.append((batch, keys, np.searchsorted(keys, batch.sparse), rows))

    def steps():
        for batch, _, index, rows in prepared:
            network.zero_grad()
            leaf = Tensor(rows, requires_grad=True)
            bce_with_logits(network(batch.dense, leaf[index]), batch.labels).backward()

    steps()  # warmup
    metrics["dlrm_fwd_bwd_steps_per_s"] = rate(_DLRM_STEPS, best_of(steps, repeats=_REPEATS))

    table_keys = _DLRM_FIELDS * _DLRM_CARDINALITY
    adagrad = RowAdagrad(lr=0.05)
    adagrad.delta_rows(rng.permutation(table_keys), np.ones((table_keys, _DIM), np.float32))
    grads = [rng.standard_normal(rows.shape).astype(np.float32) for *_, rows in prepared]

    def updates():
        for (_, keys, _, rows), grad in zip(prepared, grads):
            adagrad.updated_rows(keys, rows, grad)

    updates()  # warmup
    touched = sum(len(keys) for _, keys, _, _ in prepared)
    metrics["row_adagrad_resident_keys_per_s"] = rate(touched, best_of(updates, repeats=_REPEATS))
    for path, metric, digits in (("dlrm_fwd_bwd", "dlrm_fwd_bwd_steps_per_s", 1),
                                 ("row_adagrad_resident", "row_adagrad_resident_keys_per_s", None)):
        rows_out.append({
            "path": path,
            "vectorized_keys_per_s": round(metrics[metric], digits),
            "reference_keys_per_s": 0,
            "speedup": 0,
        })


def _bench_serving(rows_out, metrics):
    """The serving loop around a store that never leaves memory.

    256 closed-loop users (20 us think time) draw zipfian keys over 100k
    present rows on four resident shards behind a 4,096-entry cache; a
    timed call is 20 resumed ``run(arrivals, max_requests=4096)`` — the
    repository benchmark's calling pattern — on a source that outlasts
    every repeat.  The chooser row is ``next_key()`` x 100k on its own.
    """
    requests = _SERVE_CALLS * _SERVE_CALL_REQUESTS
    generator = LoadGenerator(_SERVE_KEYS, "zipfian", seed=17)
    with tempfile.TemporaryDirectory(prefix="wall-serve-") as td:
        ssd = SSDModel(SimClock())
        store = ShardedKVStore(
            lambda index: MLKV(os.path.join(td, f"shard{index}"), ssd=ssd,
                               memory_budget_bytes=1 << 24),
            _SERVE_SHARDS,
        )
        tables = EmbeddingTables(store, dim=_DIM, cache_entries=0)
        rng = np.random.default_rng(17)
        for start in range(0, _SERVE_KEYS, _BATCH):
            keys = np.arange(start, min(start + _BATCH, _SERVE_KEYS))
            tables.put(keys, rng.standard_normal((len(keys), _DIM)).astype(np.float32))
        server = EmbeddingServer(store, dim=_DIM, cache_entries=4096, read_mode="snapshot")
        loop = ServingLoop(server, BatchPolicy(256, 100e-6))
        arrivals = generator.closed_loop(
            _SERVE_USERS, 20e-6, count=(_REPEATS + 2) * (requests + 256 * _SERVE_CALLS),
            start=server.clock.now,
        )

        def call():
            for _ in range(_SERVE_CALLS):
                loop.run(arrivals, max_requests=_SERVE_CALL_REQUESTS)

        call()  # warm the cache and the chunked draws
        before = loop.telemetry.requests_completed
        elapsed = best_of(call, repeats=_REPEATS)
        served = (loop.telemetry.requests_completed - before) / _REPEATS
        store.close()
    assert served >= requests, served
    chooser = generator.chooser()
    draw = best_of(lambda: [chooser.next_key() for _ in range(_SERVE_KEYS)], repeats=_REPEATS)
    metrics["serving_loop_requests_per_s"] = rate(served, elapsed)
    metrics["zipfian_keys_per_s"] = rate(_SERVE_KEYS, draw)
    for path, metric in (("serving_loop", "serving_loop_requests_per_s"),
                         ("zipfian_keys", "zipfian_keys_per_s")):
        rows_out.append({
            "path": path,
            "vectorized_keys_per_s": round(metrics[metric]),
            "reference_keys_per_s": 0,
            "speedup": 0,
        })


def test_wallclock_hot_paths(benchmark):
    """One sweep measuring every wall-clock hot path.

    A single test (and a single emitted file) so the payload is atomic:
    either every wall metric refreshes or none does — the gate's
    ``--since`` marker cannot see a half-updated wall baseline.
    """

    def sweep():
        rows: list[dict] = []
        metrics: dict = {}
        _bench_gather_scatter(rows, metrics)
        _bench_rows_cycle(rows, metrics)
        _bench_optimizers(rows, metrics)
        _bench_router(rows, metrics)
        _bench_out_of_core(rows, metrics)
        _bench_small_batches(rows, metrics)
        _bench_gnn(rows, metrics)
        _bench_dlrm(rows, metrics)
        _bench_serving(rows, metrics)
        return rows, metrics

    rows, metrics = benchmark.pedantic(sweep, rounds=1, iterations=1)
    available = cores()
    report(
        "wallclock_hot_paths", rows,
        note=f"wall clock (best of {_REPEATS}), {available} core(s); "
             "vectorized batch paths vs the per-key reference loops",
    )
    emit(
        "wallclock",
        metrics=metrics,
        rows=rows,
        meta={
            "cores": available,
            "dim": _DIM,
            "batch_keys": _BATCH,
            "fanout_shards": _FANOUT_SHARDS,
            "fanout_keys": _FANOUT_KEYS,
            "cycle_table_keys": _CYCLE_TABLE_KEYS,
            "cycle_keys": _CYCLE_KEYS,
            "ooc_keys": _OOC_KEYS,
            "ooc_value_bytes": _OOC_VALUE_BYTES,
            "ooc_budget_bytes": _OOC_BUDGET_BYTES,
            "small_table_keys": _SMALL_TABLE_KEYS,
            "small_budget_bytes": _SMALL_BUDGET_BYTES,
            "small_engine_keys": _SMALL_ENGINE_KEYS,
            "small_router_keys": _SMALL_ROUTER_KEYS,
            "small_calls": _SMALL_CALLS,
            "gnn_nodes": _GNN_NODES,
            "gnn_hidden": _GNN_HIDDEN,
            "gnn_batch": _GNN_BATCH,
            "gnn_fanouts": list(_GNN_FANOUTS),
            "dlrm_batch": _DLRM_BATCH,
            "dlrm_fields": _DLRM_FIELDS,
            "dlrm_table_keys": _DLRM_FIELDS * _DLRM_CARDINALITY,
            "serve_keys": _SERVE_KEYS,
            "serve_shards": _SERVE_SHARDS,
            "serve_users": _SERVE_USERS,
            "serve_requests_per_call": _SERVE_CALLS * _SERVE_CALL_REQUESTS,
            "repeats": _REPEATS,
            "timer": "time.perf_counter best-of",
        },
        clock="wall",
    )

    # Vectorization pays on any machine — single-core speedups.
    assert metrics["gather_scatter_speedup"] >= 3.0, metrics
    assert metrics["gather_speedup"] >= 3.0, metrics
    assert metrics["scatter_speedup"] >= 1.5, metrics
    assert metrics["adagrad_speedup"] >= 3.0, metrics
    assert metrics["adam_speedup"] >= 3.0, metrics
    # Rows in, rows out: what the facade adds to the engine's array cycle is
    # framing one matrix each way, and the router's array verb beats its
    # list verb on the same keys.
    assert metrics["facade_cycle_keys_per_s"] >= metrics["engine_rows_cycle_keys_per_s"] / 1.3, metrics
    assert metrics["router_get_rows_keys_per_s"] > metrics["router_multi_get_keys_per_s"], metrics
    # A serving sub-call's worth of keys on disk costs less as one array
    # call than key by key: the batch pays for its keys, not a flat toll.
    assert metrics["small_engine_snapshot_speedup"] >= 1.15, metrics
