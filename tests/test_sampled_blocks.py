"""Sampled blocks against the ``np.unique`` oracle, and what a batch holds.

The neighbour sampler relabels a hop's frontier with a first-seen
scratch array and ranks a block's rows from ``indptr``; a block keeps
only the rank order of each grouping and the message-passing kernels
gather the summed-into and taken-from arrays through it.  Each hop of
small random multigraphs must equal ``tests/gnn_oracle.py``'s reference
(``rng.choice`` per destination, ``np.unique`` relabel, permuted copies
in every grouping) array for array, generator state included; so must
blocks whose ranks and columns pass the ``uint8`` and ``uint16`` sort
keys.  The layout test pins what one ``gnn_dense``-shaped batch holds in
memory.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from gnn_oracle import choice_loop_layer, csr, rank_groups
from repro.data import GraphDataset, NeighborSampler
from repro.nn.sparse import Block, EdgeGroups

ISOLATED, TWICE, WIDE = 0, 1, 2  # node roles every random graph has


def _multigraph(seed: int, num_nodes: int = 60):
    """Random out-degrees 0..8 over neighbours drawn from a third of the
    nodes, so repeats are common; node 0 is isolated, node 1 lists one
    neighbour twice and nothing else, node 2 has more neighbours than the
    widest fanout."""
    draw = np.random.default_rng(seed)
    lists = [draw.integers(0, num_nodes // 3, n) for n in draw.integers(0, 9, num_nodes)]
    lists[ISOLATED] = np.empty(0, dtype=np.int64)
    lists[TWICE] = np.array([7, 7])
    lists[WIDE] = draw.integers(0, num_nodes, 8)
    indptr = np.concatenate([[0], np.cumsum([len(row) for row in lists])])
    return SimpleNamespace(indptr=indptr, indices=np.concatenate(lists)), draw


def _assert_groups(groups: EdgeGroups, into: np.ndarray, take: np.ndarray, want) -> None:
    np.testing.assert_array_equal(groups.order, want.order)
    assert groups.bounds == want.bounds
    np.testing.assert_array_equal(into[groups.order], want.into)  # as _weighted_sum derives
    np.testing.assert_array_equal(take[groups.order], want.take)


@pytest.mark.parametrize("mode", ["mean", "mask"])
@pytest.mark.parametrize("fanouts", [(1, 3, 5), (5, 1, 3)], ids=["1-3-5", "5-1-3"])
@pytest.mark.parametrize("seed", range(6))
def test_every_hop_equals_the_unique_oracle(seed, fanouts, mode):
    graph, draw = _multigraph(seed)
    seeds = np.concatenate([[WIDE, ISOLATED, TWICE],
                            draw.choice(np.arange(3, 60), 9, replace=False)])
    sampler = NeighborSampler(graph, fanouts=fanouts, mode=mode, seed=seed)
    rng = np.random.default_rng(seed)
    dst, hops, merged = seeds, [], 0
    for fanout in reversed(fanouts):
        src, dst_index, block = sampler._sample_layer(dst, fanout)
        want_src, want_index, drawn_rows, drawn_cols = choice_loop_layer(graph, rng, dst, fanout)
        indptr, indices, rows, weights = csr(len(dst), drawn_rows, drawn_cols, mode == "mean")
        np.testing.assert_array_equal(src, want_src)
        np.testing.assert_array_equal(dst_index, want_index)
        np.testing.assert_array_equal(block.indptr, indptr)
        np.testing.assert_array_equal(block.indices, indices)
        np.testing.assert_array_equal(block.rows, rows)
        if weights is None:
            assert block.weights is None
        else:
            np.testing.assert_array_equal(block.weights, weights)
        _assert_groups(block.by_row, block.rows, block.indices,
                       rank_groups(rows, indices, len(dst)))
        _assert_groups(block.by_col, block.indices, block.rows,
                       rank_groups(indices, rows, len(src)))
        assert sampler._rng.bit_generator.state == rng.bit_generator.state
        merged += len(drawn_rows) - len(indices)
        hops.insert(0, (dst_index, block))
        dst = src
    assert merged > 0  # TWICE's neighbour, picked twice by every fanout over 1

    batch = NeighborSampler(graph, fanouts=fanouts, mode=mode, seed=seed).sample(seeds)
    np.testing.assert_array_equal(batch.input_nodes, dst)
    for (want_index, want_block), got_index, got_block in zip(hops, batch.frontiers, batch.blocks):
        np.testing.assert_array_equal(got_index, want_index)
        np.testing.assert_array_equal(got_block.indices, want_block.indices)


def _arrays(value):
    """Every ndarray reachable from a sampled batch's fields."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _arrays(item)
    elif hasattr(value, "__dict__"):
        for item in vars(value).values():
            yield from _arrays(item)


def _base(array: np.ndarray) -> np.ndarray:
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def test_a_batch_keeps_each_edge_array_once():
    """A 64-seed ``gnn_dense`` batch (fanouts (5, 5), unweighted) holds at
    most 45 bytes of ndarray data per sampled edge, each base buffer
    counted once: ``indices``, ``rows`` and the two rank orders, int64,
    are 32; frontiers, ``indptr`` and the nodes add the rest.  Blocks that
    also kept permuted copies of ``rows`` and ``indices`` per grouping
    held 81.9.  Every frontier owns its buffer: a view would pin its whole
    hop's relabelled edge list."""
    graph = GraphDataset(num_nodes=20_000, seed=0)
    sampler = NeighborSampler(graph, fanouts=(5, 5), mode="mask", seed=0)
    batch = sampler.sample(graph.seed_batches(1, 64, seed=1)[0])
    assert all(frontier.base is None for frontier in batch.frontiers)
    buffers = {id(base): base.nbytes for base in map(_base, _arrays(batch))}
    edges = sum(len(block.indices) for block in batch.blocks)
    assert sum(buffers.values()) / edges <= 45


def _boundary_block(n_src: int, rows_edges: list) -> Block:
    """A block of the given ``(row, column)`` edges ≡ the oracle's rank groups."""
    rows, cols = np.array(rows_edges).T
    block = Block.from_edges(rows.max() + 1, n_src, rows, cols)
    _assert_groups(block.by_row, block.rows, block.indices,
                   rank_groups(block.rows, block.indices, block.n_dst))
    _assert_groups(block.by_col, block.indices, block.rows,
                   rank_groups(block.indices, block.rows, n_src))
    return block


def test_ranks_past_255_sort_as_uint16():
    """Column 0 takes 300 edges and row 0 310, so both groupings have
    ranks past ``uint8``; ``gnn_dense``'s blocks never rank past 5."""
    draw = np.random.default_rng(3)
    edges = [(0, col) for col in range(310)]
    edges += [(row, col) for row in range(1, 300) for col in (0, int(draw.integers(1, 400)))]
    block = _boundary_block(400, edges)
    assert len(block.by_row.bounds) - 1 == 310 and len(block.by_col.bounds) - 1 == 300


def test_a_frontier_past_65535_sorts_its_columns_as_uint32():
    """Columns up to 69,999 (``n_src`` 70,000): past ``uint16``, which
    would fold column 65,536 onto column 0."""
    draw = np.random.default_rng(4)
    edges = [(row, int(col)) for row in range(40) for col in draw.integers(0, 70_000, 6)]
    edges += [(row, col) for row in range(0, 40, 3) for col in (0, 65_536, 69_999)]
    block = _boundary_block(70_000, edges)
    assert block.indices.max() == 69_999 and (block.indices == 65_536).sum() == 14
