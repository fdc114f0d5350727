"""Synthetic click-through-rate workload with the Criteo schema.

Criteo samples have 13 dense features and 26 categorical fields.  The
generator plants a logistic ground truth: each categorical value carries
a latent effect, each dense feature a weight, and labels are Bernoulli in
the resulting sigmoid.  A model that learns good embeddings can therefore
push AUC well above chance, and *stale* embeddings measurably hurt — both
properties Figures 2, 6 and 8 rely on.

Feature values are drawn with Zipf-like popularity inside each field
(real CTR traces are heavily skewed), which is what gives the buffer-size
sweeps their hit-ratio structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.draws import Categorical


@dataclass
class CTRBatch:
    """One minibatch of CTR training data."""

    dense: np.ndarray   # [batch, num_dense] float32
    sparse: np.ndarray  # [batch, num_fields] int64 global embedding keys
    labels: np.ndarray  # [batch] float32 in {0, 1}


class CTRDataset:
    """Criteo-like synthetic CTR stream.

    Parameters
    ----------
    num_fields / field_cardinality:
        Categorical schema; total embedding keys = fields × cardinality.
    num_dense:
        Dense feature count (Criteo has 13).
    skew:
        Zipf exponent of per-field value popularity.
    signal_scale:
        Strength of the planted categorical effects; larger = higher
        achievable AUC.
    seed:
        Generator seed (labels, effects and popularity are deterministic).
    """

    def __init__(
        self,
        num_fields: int = 8,
        field_cardinality: int = 5000,
        num_dense: int = 13,
        skew: float = 1.05,
        signal_scale: float = 1.2,
        noise_scale: float = 0.6,
        seed: int = 0,
    ) -> None:
        if num_fields <= 0 or field_cardinality <= 1:
            raise ValueError("invalid categorical schema")
        self.num_fields = num_fields
        self.field_cardinality = field_cardinality
        self.num_dense = num_dense
        self.seed = seed
        rng = np.random.default_rng(seed)
        self._dense_weights = rng.normal(0.0, 0.4, num_dense).astype(np.float32)
        self._effects = rng.normal(
            0.0, signal_scale, (num_fields, field_cardinality)
        ).astype(np.float32)
        self.noise_scale = noise_scale
        # Zipf popularity ranks per field; values are shuffled so key id
        # does not correlate with popularity.
        ranks = np.arange(1, field_cardinality + 1, dtype=np.float64)
        weights = 1.0 / np.power(ranks, skew)
        self._ranks = Categorical(weights / weights.sum())
        # Field f's rank r is global key _rank_keys[f * cardinality + r].
        self._field_offsets = np.arange(num_fields) * field_cardinality
        self._rank_keys = (
            np.stack([rng.permutation(field_cardinality) for _ in range(num_fields)])
            + self._field_offsets[:, None]
        ).reshape(-1)

    @property
    def num_embeddings(self) -> int:
        """Total distinct embedding keys across all fields."""
        return self.num_fields * self.field_cardinality

    def global_key(self, field: int, value: int) -> int:
        return field * self.field_cardinality + value

    def sample_batch(self, batch_size: int, rng: np.random.Generator) -> CTRBatch:
        dense = rng.normal(0.0, 1.0, (batch_size, self.num_dense)).astype(np.float32)
        ranks = self._ranks.draw(rng, (batch_size, self.num_fields))
        keys = self._rank_keys[ranks + self._field_offsets]
        logits = dense @ self._dense_weights
        logits = logits + self._effects.reshape(-1)[keys].sum(axis=1)
        logits = logits + rng.normal(0.0, self.noise_scale, batch_size)
        probs = 1.0 / (1.0 + np.exp(-logits))
        labels = (rng.random(batch_size) < probs).astype(np.float32)
        return CTRBatch(dense=dense, sparse=keys, labels=labels)

    def batches(self, num_batches: int, batch_size: int, seed: int = 1) -> list[CTRBatch]:
        """Materialize a deterministic training schedule."""
        rng = np.random.default_rng((self.seed << 16) ^ seed)
        return [self.sample_batch(batch_size, rng) for _ in range(num_batches)]

    def eval_batch(self, size: int, seed: int = 999) -> CTRBatch:
        """Held-out evaluation slice (different stream from training)."""
        rng = np.random.default_rng((self.seed << 16) ^ seed ^ 0xE7A1)
        return self.sample_batch(size, rng)
