"""Golden training trajectories: the vectorized hot paths must be
bit-identical to the code that captured these numbers.

``tests/data/golden_trajectories.json`` was captured by running the
three end-to-end workloads (DLRM over MLKV, TransE over FASTER, GNN over
MLKV) with the *per-key* gather/scatter and optimizer loops, before the
vectorized rewrite landed.  Each entry pins the per-batch loss sequence
(as float32 hex — exact bits, not approximate decimals) and an XOR
checksum over the final embedding table's raw float32 bits.

If any vectorized path (batch codec, ``decode_vectors`` gather, dedup'd
scatter, arena optimizers) reorders a float operation or changes a
dtype, these tests fail on the exact batch where the trajectory forks —
much sharper than a loss-curve tolerance check.

The ``gnn`` entry was re-captured once, when message passing moved from a
dense ``[n_dst, n_src]`` mean matrix to an edge list (PR 18,
``repro.nn.sparse``): the sampled graph is the same, but a row's
neighbors are now summed in rank order instead of by a BLAS product, so
two of the eight losses moved by one float32 ulp (relative 9.8e-8 and
9.2e-8, the other six bit-equal) and ``emb_crc`` with them.  The
``dlrm`` and ``kge`` entries are the original capture.

The ``gat`` entry runs the same graph through the attention model.  It
was first captured before GAT's attention scores moved into one autograd
node (``edge_logits``), which left every bit where it was.  It was
re-captured once, when ``GATLayer`` moved from projecting every source
row (``x_src @ W``, then scores and sums over the projected rows) to
aggregating the input rows and projecting only the destination sums
(``x (W a)`` for the scores, ``(sum alpha x) W`` for the output).  The
algebra is exact, the float32 summation order is not.  Batch 0's loss
keeps its bits; the trajectory forks at batch 1 (``0x1.62e43cp+0`` →
``0x1.62aa36p+0``), because the first Adam and Adagrad steps move every
weight by about ``lr * sign(grad)``, which turns rounding-level gradient
differences into visible ones.  ``emb_crc`` moved with it.

Every trajectory runs twice, without and with a ``repro.obs`` tracer
installed: spans read clocks and never advance them, so the training
spans (``train.step`` and below) must leave each loss bit and the final
table where they were.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.bench import build_stack
from repro.bench.harness import run_dlrm, run_gnn, run_kge
from repro.data import CTRDataset, GraphDataset, KGDataset
from repro.obs.trace import install_tracer, uninstall_tracer

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_trajectories.json"


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as f:
        return json.load(f)


@pytest.fixture(params=[False, True], ids=["untraced", "traced"])
def tracer(request):
    """The process-wide tracer a traced run records into (else ``None``)."""
    yield install_tracer() if request.param else None
    uninstall_tracer()


def _loss_hexes(losses) -> list[str]:
    return [float(np.float32(x)).hex() for x in np.asarray(losses, np.float32)]


def _embedding_crc(stack, num_keys: int) -> int:
    emb = stack.tables.peek(np.arange(num_keys))
    return int(np.bitwise_xor.reduce(emb.astype(np.float32).view(np.uint32).reshape(-1)))


def _assert_matches(golden_entry, losses, crc, tracer) -> None:
    if tracer is not None:
        assert tracer.ledger()["train.step"]["calls"] == len(losses)
    got = _loss_hexes(losses)
    want = golden_entry["losses"]
    assert len(got) == len(want)
    for batch, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"loss trajectory forks at batch {batch}: {g} != {w}"
    assert crc == golden_entry["emb_crc"]


def test_dlrm_trajectory_bit_identical(golden, tracer):
    stack = build_stack("mlkv", dim=8, memory_budget_bytes=1 << 20,
                        cache_entries=512)
    ctr = CTRDataset(num_fields=4, field_cardinality=300, seed=3)
    result = run_dlrm(stack, ctr, dim=8, num_batches=12, batch_size=16)
    _assert_matches(golden["dlrm"], result.losses, _embedding_crc(stack, 1200), tracer)


def test_kge_trajectory_bit_identical(golden, tracer):
    stack = build_stack("faster", dim=8, memory_budget_bytes=1 << 20,
                        cache_entries=512)
    kg = KGDataset(num_entities=500, num_relations=5, seed=5)
    result = run_kge(stack, kg, dim=8, num_batches=12, batch_size=16)
    _assert_matches(golden["kge"], result.losses, _embedding_crc(stack, 500), tracer)


def test_gnn_trajectory_bit_identical(golden, tracer):
    stack = build_stack("mlkv", dim=8, memory_budget_bytes=1 << 20,
                        cache_entries=512)
    graph = GraphDataset(num_nodes=300, avg_degree=5, num_classes=4, seed=7)
    result = run_gnn(stack, graph, dim=8, hidden_dim=16, num_batches=8,
                     batch_size=16, fanouts=(4,))
    _assert_matches(golden["gnn"], result.losses, _embedding_crc(stack, 300), tracer)


def test_gat_trajectory_bit_identical(golden, tracer):
    stack = build_stack("mlkv", dim=8, memory_budget_bytes=1 << 20,
                        cache_entries=512)
    graph = GraphDataset(num_nodes=300, avg_degree=5, num_classes=4, seed=7)
    result = run_gnn(stack, graph, model_name="gat", dim=8, hidden_dim=16,
                     num_batches=8, batch_size=16, fanouts=(4,))
    _assert_matches(golden["gat"], result.losses, _embedding_crc(stack, 300), tracer)
