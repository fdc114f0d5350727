"""Synthetic knowledge graph for link prediction (WikiKG2/Freebase86M stand-in).

Entities belong to latent clusters and triples connect entities of the
same cluster through relation-specific subspaces (each relation is
active on a subset of latent dimensions).  This structure is exactly
representable by DistMult's diagonal trilinear score — and by ComplEx,
which generalizes it — so Hits@10 climbs well above chance as embeddings
train, giving the convergence signal Figures 6(b), 8(b) and 9(b) plot.

Entity popularity is skewed: a minority of hub entities participate in a
large share of triples, mirroring real KGs (Freebase's head entities).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.draws import Categorical, _lemire_draws, _next_uint32s


@dataclass
class TripleBatch:
    heads: np.ndarray      # [batch] entity keys
    relations: np.ndarray  # [batch] relation ids
    tails: np.ndarray      # [batch] entity keys
    neg_tails: np.ndarray  # [batch, negatives] entity keys


class KGDataset:
    """Clustered synthetic KG.

    Parameters
    ----------
    num_entities / num_relations / num_clusters:
        Graph schema.
    num_triples:
        Training triples generated.
    cluster_noise:
        Probability a triple ignores the relation's cluster map (hurts the
        attainable Hits@10 ceiling, keeping curves realistic).
    hub_skew:
        Zipf exponent for entity participation.
    """

    def __init__(
        self,
        num_entities: int = 20000,
        num_relations: int = 12,
        num_clusters: int = 16,
        num_triples: int = 60000,
        cluster_noise: float = 0.1,
        hub_skew: float = 0.9,
        seed: int = 0,
    ) -> None:
        if num_clusters < 2:
            raise ValueError("need at least two clusters")
        self.num_entities = num_entities
        self.num_relations = num_relations
        self.num_clusters = num_clusters
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.entity_cluster = rng.integers(0, num_clusters, num_entities)
        # entities grouped by cluster, for sampling structured tails
        self._by_cluster = [
            np.flatnonzero(self.entity_cluster == c) for c in range(num_clusters)
        ]
        for c, members in enumerate(self._by_cluster):
            if len(members) == 0:
                self._by_cluster[c] = np.array([c % num_entities])
        ranks = np.arange(1, num_entities + 1, dtype=np.float64)
        popularity = 1.0 / np.power(ranks, hub_skew)
        self._head_ids = rng.permutation(num_entities)

        head_draws = Categorical(popularity / popularity.sum()).draw(rng, num_triples)
        rel_draws = rng.integers(0, num_relations, num_triples)
        noise_draws = rng.random(num_triples)
        heads = self._head_ids[head_draws]
        # Co-cluster tails: representable by a diagonal trilinear score
        # (DistMult), unlike arbitrary cluster permutations.
        tails = _draw_tails(rng, noise_draws < cluster_noise, self.entity_cluster[heads],
                            self._by_cluster, num_entities)
        self.triples = np.stack([heads, rel_draws, tails], axis=1).astype(np.int64)
        split = max(1, int(0.98 * num_triples))
        self.train_triples = self.triples[:split]
        self.valid_triples = self.triples[split:]

    def batches(
        self, num_batches: int, batch_size: int, negatives: int = 8, seed: int = 1
    ) -> list[TripleBatch]:
        """Deterministic training schedule with uniform negative tails."""
        rng = np.random.default_rng((self.seed << 16) ^ seed)
        out = []
        n = len(self.train_triples)
        for _ in range(num_batches):
            index = rng.integers(0, n, batch_size)
            triples = self.train_triples[index]
            negs = rng.integers(0, self.num_entities, (batch_size, negatives))
            out.append(
                TripleBatch(
                    heads=triples[:, 0],
                    relations=triples[:, 1],
                    tails=triples[:, 2],
                    neg_tails=negs.astype(np.int64),
                )
            )
        return out

    def eval_batch(self, size: int, candidates: int = 50, seed: int = 999) -> TripleBatch:
        """Validation triples with a candidate set for Hits@k ranking."""
        rng = np.random.default_rng((self.seed << 16) ^ seed ^ 0xE7A1)
        n = len(self.valid_triples)
        index = rng.integers(0, n, size)
        triples = self.valid_triples[index]
        negs = rng.integers(0, self.num_entities, (size, candidates))
        return TripleBatch(
            heads=triples[:, 0],
            relations=triples[:, 1],
            tails=triples[:, 2],
            neg_tails=negs.astype(np.int64),
        )


def _draw_tails(rng: np.random.Generator, noisy: np.ndarray, clusters: np.ndarray,
                by_cluster: list[np.ndarray], num_entities: int) -> np.ndarray:
    """Each triple's tail: ``rng.integers(0, num_entities)`` where
    ``noisy``, else ``rng.choice`` of its head's cluster's members, drawn
    as that loop draws them.  Every such draw is Lemire's bounded integer
    on one ``next_uint32`` word (none for a one-member cluster), so all
    the words come from one call; the loop runs instead, from the same
    state, if a word would be rejected and need another."""
    sizes = np.array([len(members) for members in by_cluster])
    bounds = np.where(noisy, num_entities, sizes[clusters]) - 1
    drawn = bounds > 0
    saved = rng.bit_generator.state
    words = np.zeros(len(bounds), dtype=np.uint32)
    words[drawn] = _next_uint32s(rng.bit_generator, np.count_nonzero(drawn))
    tails = _lemire_draws(words, bounds)
    if tails is None:
        rng.bit_generator.state = saved
        return np.array([rng.integers(0, num_entities) if noise else rng.choice(by_cluster[c])
                         for noise, c in zip(noisy.tolist(), clusters.tolist())], dtype=np.int64)
    member = ~noisy
    first = np.cumsum(sizes) - sizes
    tails[member] = np.concatenate(by_cluster)[first[clusters[member]] + tails[member]]
    return tails
