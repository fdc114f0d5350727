"""The weighted draw is ``rng.choice``'s, integer for integer.

:class:`repro.data.draws.Categorical` answers the uniforms NumPy's
``Generator.choice`` draws for weights ``p`` through a guide table
instead of a binary search over the whole CDF.  What must hold:

* ``draw(rng, shape)`` ≡ ``rng.choice(n, size=shape, p=p)`` — the
  integers, their dtype and shape, ``bit_generator.state`` afterwards and
  the next draw — over Zipf skews, sizes from 2 to 100,000 and flat CDF
  runs (zero-probability outcomes);
* the lookup part ≡ ``cdf.searchsorted(u, "right")`` on the uniforms
  where an off-by-one shows: exactly on a CDF value, exactly on a bucket
  edge, and one ulp either side;
* every bucket holding one outcome answers by lookup (no bisection);
* invalid ``p`` raises :class:`ValueError` where ``choice`` does;
* the datasets drawing through it — CTR batches, KG heads, graph hubs —
  are the bytes they were when they drew through ``choice`` (CRC pins);
* the KG tails, drawn from one array of words, are the per-triple loop's
  scalar ``integers`` / ``choice`` draws — triples and generator state,
  through one-member clusters (no word) and a rejected word (the loop).
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.data import CTRDataset, GraphDataset, KGDataset
from repro.data.draws import Categorical
from repro.data.kg import _draw_tails

SKEWS = [0.5, 0.8, 1.05, 1.5]
SIZES = [2, 3, 17, 1_000, 4_000, 100_000]
SHAPES = [(5_000,), (256, 26)]


def zipf(n: int, skew: float) -> np.ndarray:
    weights = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64), skew)
    return weights / weights.sum()


def numpy_cdf(p: np.ndarray) -> np.ndarray:
    """The CDF ``choice`` searches."""
    cdf = np.asarray(p, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return cdf


def assert_same_as_choice(p, shape, seed: int) -> None:
    sampler = Categorical(p)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        got = sampler.draw(ours, shape)
        want = theirs.choice(len(p), size=shape, p=p)
        assert got.dtype == want.dtype == np.int64 and got.shape == want.shape
        assert np.array_equal(got, want)
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert float(ours.random()) == float(theirs.random())


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("skew", SKEWS)
def test_zipf_draws_are_choice(skew, n, shape):
    assert_same_as_choice(zipf(n, skew), shape, seed=n ^ int(skew * 100))


def zero_runs() -> list[np.ndarray]:
    """Distributions whose CDF has flat runs: zeros at the head, inside and
    at the tail, a single live outcome, and half the outcomes dead."""
    half = np.random.default_rng(3).random(2_000)
    half[::2] = 0.0
    one = np.zeros(50)
    one[17] = 1.0
    return [
        np.array([0.0, 0.0, 0.5, 0.0, 0.0, 0.5, 0.0]),
        np.array([0.0, 0.3, 0.0, 0.7]),
        np.array([0.6, 0.4, 0.0, 0.0, 0.0]),
        one,
        half / half.sum(),
    ]


@pytest.mark.parametrize("case", range(len(zero_runs())))
def test_zero_probability_outcomes(case):
    p = zero_runs()[case]
    assert_same_as_choice(p, (256, 26), seed=case)
    drawn = Categorical(p).draw(np.random.default_rng(case), 20_000)
    assert (p[drawn] > 0).all()


def distributions() -> list[np.ndarray]:
    """Where bucket edges and CDF values meet: dyadic weights put CDF
    values exactly on bucket edges; a steep Zipf makes wide tail buckets
    (the most bisection steps) and a table at its size cap."""
    return [
        np.array([0.25, 0.25, 0.5]),
        np.full(8, 1 / 8),
        np.array([0.5, 0.125, 0.125, 0.0, 0.25]),
        zipf(2, 0.5),
        zipf(4_000, 1.05),
        zipf(4_000, 1.5),
        zipf(100_000, 1.05),
        *zero_runs(),
    ]


def placed_uniforms(sampler: Categorical, cdf: np.ndarray) -> np.ndarray:
    """Every CDF value and bucket edge in [0, 1), and one ulp either side."""
    edges = np.arange(sampler.buckets) / sampler.buckets
    marks = np.concatenate([cdf, edges])
    u = np.concatenate([marks, np.nextafter(marks, 0.0), np.nextafter(marks, 1.0), [0.0]])
    return u[(u >= 0.0) & (u < 1.0)]


@pytest.mark.parametrize("case", range(len(distributions())))
def test_lookup_on_cdf_values_and_bucket_edges(case):
    p = distributions()[case]
    sampler = Categorical(p)
    cdf = numpy_cdf(p)
    u = placed_uniforms(sampler, cdf)
    assert np.array_equal(sampler.locate(u), cdf.searchsorted(u, "right"))
    # The same uniforms as a 2-D draw and through the whole path.
    square = u[: len(u) // 2 * 2].reshape(2, -1)
    assert np.array_equal(sampler.locate(square), cdf.searchsorted(square, "right"))


@pytest.mark.parametrize("case", range(len(distributions())))
def test_a_bucket_of_one_outcome_answers_by_lookup(case):
    """A bucket is bisected only when its uniforms have more than one
    answer, and the bisection takes ceil(log2(widest bucket + 1)) steps."""
    p = distributions()[case]
    sampler = Categorical(p)
    cdf = numpy_cdf(p)
    edges = np.arange(sampler.buckets + 1) / sampler.buckets
    first = cdf.searchsorted(edges[:-1], "right")
    last = cdf.searchsorted(np.nextafter(edges[1:], 0.0), "right")  # the bucket's last uniform
    one = first == last
    assert np.array_equal(sampler.guide >= 0, one)
    assert np.array_equal(sampler.guide[one], first[one])
    widest = int((last - first).max())
    assert len(sampler.steps) == int(np.ceil(np.log2(widest + 1)))


@pytest.mark.parametrize("p", [
    np.array([0.5, -0.1, 0.6]),
    np.array([0.5, np.nan, 0.5]),
    np.array([0.5, 0.4]),
    np.array([0.5, 0.5, 0.01]),
    np.array([]),
])
def test_invalid_weights_raise_where_choice_does(p):
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(len(p), size=4, p=p)
    with pytest.raises(ValueError):
        Categorical(p)


def test_the_sum_tolerance_is_choices():
    """``choice`` accepts weights off 1 by up to sqrt(eps); so does this."""
    off = np.array([0.5, 0.5 + 1e-9])
    assert_same_as_choice(off, 1_000, seed=1)


# ----------------------------------------------------------------------
# the datasets drawing through it: the bytes they drew through choice
# ----------------------------------------------------------------------
def crc_of(arrays) -> int:
    crc = 0
    for array in arrays:
        crc = zlib.crc32(np.ascontiguousarray(array).tobytes(), crc)
    return crc


def test_ctr_batches_are_pinned():
    """The DLRM workloads' schema: 26 fields of 4,000 values."""
    dataset = CTRDataset(num_fields=26, field_cardinality=4000, seed=0)
    batches = dataset.batches(300, 256, seed=7)
    assert crc_of(a for b in batches for a in (b.sparse, b.dense, b.labels)) == 3576993040
    assert all(b.sparse.dtype == np.int64 for b in batches)


@pytest.mark.parametrize("kwargs, crc", [
    (dict(num_entities=6000, num_triples=40000, num_relations=8, seed=2), 2325673465),
    (dict(num_entities=2000, num_triples=5000, hub_skew=1.3, seed=11), 1543477666),
])
def test_kg_triples_are_pinned(kwargs, crc):
    assert zlib.crc32(KGDataset(**kwargs).triples.tobytes()) == crc


def loop_tails(rng, noisy, clusters, by_cluster, num_entities) -> np.ndarray:
    """The per-triple loop ``KGDataset`` drew its tails with: a scalar
    ``integers`` for a noisy triple, else a ``choice`` of the head's
    cluster (the reference the one-call draw must equal)."""
    return np.array([rng.integers(0, num_entities) if noise else rng.choice(by_cluster[c])
                     for noise, c in zip(noisy.tolist(), clusters.tolist())], dtype=np.int64)


def loop_triples(num_entities, num_relations, num_clusters, num_triples, seed,
                 cluster_noise=0.1, hub_skew=0.9) -> np.ndarray:
    """``KGDataset(...).triples`` drawn draw for draw as the dataset did
    with its per-triple loop."""
    rng = np.random.default_rng(seed)
    entity_cluster = rng.integers(0, num_clusters, num_entities)
    by_cluster = [np.flatnonzero(entity_cluster == c) for c in range(num_clusters)]
    by_cluster = [members if len(members) else np.array([c % num_entities])
                  for c, members in enumerate(by_cluster)]
    popularity = 1.0 / np.power(np.arange(1, num_entities + 1, dtype=np.float64), hub_skew)
    head_ids = rng.permutation(num_entities)
    head_draws = rng.choice(num_entities, size=num_triples, p=popularity / popularity.sum())
    rels = rng.integers(0, num_relations, num_triples)
    noisy = rng.random(num_triples) < cluster_noise
    heads = head_ids[head_draws]
    tails = loop_tails(rng, noisy, entity_cluster[heads], by_cluster, num_entities)
    return np.stack([heads, rels, tails], axis=1)


@pytest.mark.parametrize("kwargs", [
    dict(num_entities=3000, num_relations=7, num_clusters=16, num_triples=8000, seed=1),
    dict(num_entities=40, num_relations=3, num_clusters=32, num_triples=3000, seed=3),
], ids=["wide", "one-member-clusters"])
def test_kg_triples_are_the_per_triple_loop(kwargs):
    kg = KGDataset(**kwargs)
    np.testing.assert_array_equal(kg.triples, loop_triples(**kwargs))
    if kwargs["num_clusters"] > kwargs["num_entities"] // 2:  # some clusters have one member
        lone = [c for c, members in enumerate(kg._by_cluster) if len(members) == 1]
        assert np.isin(kg.entity_cluster[kg.triples[:, 0]], lone).sum() > 100


def _force_a_rejected_word(rng) -> None:
    """The next ``next_uint32`` word is 0: a draw in ``[0, 2]`` rejects it."""
    state = rng.bit_generator.state
    state["has_uint32"], state["uinteger"] = 1, 0
    rng.bit_generator.state = state


@pytest.mark.parametrize("entry", [None, _force_a_rejected_word], ids=["words", "rejected"])
def test_kg_tail_draws_and_state_are_the_loops(entry):
    """One-member clusters draw no word; a rejected word sends the whole
    draw back to the loop from where it started."""
    by_cluster = [np.arange(3), np.array([7]), np.arange(10, 20), np.array([4])]
    draw = np.random.default_rng(11)
    noisy = draw.random(500) < 0.2
    clusters = draw.integers(0, len(by_cluster), 500)
    noisy[0], clusters[0] = False, 0  # the first draw is in [0, 2]
    ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
    if entry is not None:
        entry(ours)
        entry(theirs)
    got = _draw_tails(ours, noisy, clusters, by_cluster, 1_000)
    want = loop_tails(theirs, noisy, clusters, by_cluster, 1_000)
    np.testing.assert_array_equal(got, want)
    assert got.dtype == np.int64
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert float(ours.random()) == float(theirs.random())


@pytest.mark.parametrize("kwargs, crc", [
    (dict(num_nodes=20000, seed=0), 4118755767),  # the GNN workload's graph
    (dict(num_nodes=6000, num_classes=6, seed=3), 1352202238),
    (dict(num_nodes=3000, hub_skew=1.4, seed=5), 79912474),
])
def test_graphs_are_pinned(kwargs, crc):
    graph = GraphDataset(**kwargs)
    parts = (graph.labels, graph.indptr, graph.indices, graph.train_nodes, graph.valid_nodes)
    assert crc_of(parts) == crc
