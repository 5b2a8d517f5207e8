"""Synthetic click-log generation with Zipf-distributed embedding accesses.

The generator reproduces the statistics the paper's evaluation relies on:

* per-table Zipf access skew (Figure 6): a small set of rows receives the
  overwhelming majority of accesses;
* a learnable label signal: labels are drawn from a hidden logistic
  ground-truth model over the dense features and the accessed rows, so the
  AUC convergence experiments (Figure 18, Table V) are meaningful;
* optional multi-hot pooling (SYN-D1/D2, Section VII-F4).

Everything is seeded, so experiments are reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.batch import MiniBatch
from repro.data.datasets import DatasetSpec
from repro.nn.init import DTYPE


def _zipf_probabilities(num_rows: int, alpha: float) -> np.ndarray:
    """Truncated Zipf probability vector over ``num_rows`` ranks."""
    ranks = np.arange(1, num_rows + 1, dtype=np.float64)
    weights = ranks ** (-alpha)
    return weights / weights.sum()


@dataclass
class SyntheticClickLog:
    """A fully materialised synthetic dataset.

    Attributes:
        spec: The dataset specification the log was generated from.
        dense: Dense features, shape (n, num_dense).
        sparse: Sparse lookups, shape (n, num_tables, pooling).
        labels: Click labels, shape (n,).
        rank_to_row: Per-table permutation mapping Zipf rank -> row id, so
            the most popular rows are scattered across the table (as in real
            data) rather than being the lowest indices.
    """

    spec: DatasetSpec
    dense: np.ndarray
    sparse: np.ndarray
    labels: np.ndarray
    rank_to_row: list[np.ndarray] = field(default_factory=list)

    @property
    def num_samples(self) -> int:
        """Number of samples in the log."""
        return int(self.labels.shape[0])

    @property
    def click_rate(self) -> float:
        """Empirical positive-label rate."""
        return float(self.labels.mean())

    def batch(self, start: int, size: int) -> MiniBatch:
        """Materialise a MiniBatch covering samples [start, start+size)."""
        end = min(start + size, self.num_samples)
        return MiniBatch(
            dense=self.dense[start:end],
            sparse=self.sparse[start:end],
            labels=self.labels[start:end],
        )


def generate_click_log(
    spec: DatasetSpec,
    num_samples: int,
    seed: int = 0,
    *,
    click_rate: float = 0.25,
    label_noise: float = 0.1,
) -> SyntheticClickLog:
    """Generate a synthetic click log matching ``spec``.

    Args:
        spec: Dataset specification (table sizes, pooling, Zipf exponent).
        num_samples: Number of samples to generate.
        seed: RNG seed.
        click_rate: Target positive-label rate.
        label_noise: Fraction of labels flipped at random, bounding the best
            achievable AUC below 1.0 (as with real click data).

    Returns:
        A :class:`SyntheticClickLog` whose ``dense`` features and
        ``labels`` are the training dtype; the hidden ground truth is
        computed in float64 before the cast, so the sparse lookups and the
        0/1 labels do not depend on that dtype.
    """
    if num_samples <= 0:
        raise ValueError("num_samples must be positive")
    rng = np.random.default_rng(seed)
    num_tables = spec.num_sparse
    pooling = spec.pooling

    dense = rng.normal(0.0, 1.0, size=(num_samples, spec.num_dense))

    sparse = np.empty((num_samples, num_tables, pooling), dtype=np.int64)
    rank_to_row: list[np.ndarray] = []
    # Hidden ground-truth: a per-row logit contribution for every table, plus
    # a linear model over the dense features.
    dense_weights = rng.normal(0.0, 0.5, size=spec.num_dense)
    row_logits: list[np.ndarray] = []
    logits = dense @ dense_weights

    for table, rows in enumerate(spec.rows_per_table):
        probabilities = _zipf_probabilities(rows, spec.zipf_alpha)
        ranks = rng.choice(rows, size=(num_samples, pooling), p=probabilities)
        permutation = rng.permutation(rows)
        rank_to_row.append(permutation)
        sparse[:, table, :] = permutation[ranks]
        contributions = rng.normal(0.0, 0.35, size=rows)
        row_logits.append(contributions)
        logits = logits + contributions[ranks].sum(axis=1)

    # Centre the logits so the click rate lands near the target.
    logits = logits - np.quantile(logits, 1.0 - click_rate)
    probabilities = 1.0 / (1.0 + np.exp(-logits))
    labels = (rng.uniform(size=num_samples) < probabilities).astype(DTYPE)
    flip = rng.uniform(size=num_samples) < label_noise
    labels[flip] = 1.0 - labels[flip]

    return SyntheticClickLog(
        spec=spec,
        dense=dense.astype(DTYPE),
        sparse=sparse,
        labels=labels,
        rank_to_row=rank_to_row,
    )
