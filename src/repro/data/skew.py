"""Popularity / access-skew analysis of embedding accesses.

Reproduces the measurements behind Figures 6 and 9 of the paper:

* the per-entry access histogram over an epoch (Figure 6, left) and the
  fraction of *popular inputs* — inputs whose every lookup hits a
  frequently-accessed entry (Figure 6, right);
* the paper labels an entry "popular" if it accounts for at least
  1-in-every-100,000 embedding accesses;
* the evolving skew across days (Figure 9): the set of hot entries drifts
  as user behaviour changes, which motivates online (rather than offline)
  profiling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.data.datasets import DatasetSpec
from repro.data.synthetic import SyntheticClickLog, generate_click_log

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.hotset import HotSetIndex

#: The paper's popularity threshold: an entry is popular if it receives at
#: least one in every 100,000 embedding accesses.
PAPER_POPULARITY_THRESHOLD = 1.0 / 100_000


def access_histogram(sparse: np.ndarray, rows_per_table: tuple[int, ...]) -> list[np.ndarray]:
    """Per-table access counts.

    Args:
        sparse: Lookup indices of shape (n, num_tables, pooling).
        rows_per_table: Table sizes.

    Returns:
        One count array per table (length = rows in that table).
    """
    if sparse.ndim != 3:
        raise ValueError("sparse must be 3-D (n, num_tables, pooling)")
    histograms: list[np.ndarray] = []
    for table, rows in enumerate(rows_per_table):
        counts = np.bincount(sparse[:, table, :].reshape(-1), minlength=rows)
        histograms.append(counts)
    return histograms


def popular_entries(
    histograms: list[np.ndarray],
    threshold: float = PAPER_POPULARITY_THRESHOLD,
) -> list[np.ndarray]:
    """Row ids whose access share exceeds ``threshold`` of total accesses."""
    total_accesses = float(sum(int(counts.sum()) for counts in histograms))
    if total_accesses <= 0:
        return [np.empty(0, dtype=np.int64) for _ in histograms]
    minimum = threshold * total_accesses
    return [np.nonzero(counts >= minimum)[0].astype(np.int64) for counts in histograms]


def popular_input_mask(
    sparse: np.ndarray, hot_sets: list[np.ndarray] | HotSetIndex
) -> np.ndarray:
    """Boolean mask of inputs whose *every* lookup is a popular entry.

    An input that touches even one non-popular row is non-popular
    (Section I: "If an input accesses even a single non-frequently-accessed
    embedding, it is classified as a non-popular input").  ``hot_sets`` may
    be per-table arrays or a prebuilt
    :class:`~repro.core.hotset.HotSetIndex`.
    """
    # Imported lazily: repro.core's package init reaches back into
    # repro.data via the models' dataset specs.
    from repro.core.hotset import as_hot_set_index

    index = as_hot_set_index(hot_sets)
    if sparse.shape[1] != index.num_tables:
        raise ValueError("hot_sets must have one entry per table")
    return index.classify(sparse)


def popular_input_fraction(
    sparse: np.ndarray, hot_sets: list[np.ndarray] | HotSetIndex
) -> float:
    """Fraction of inputs classified as popular."""
    if sparse.shape[0] == 0:
        return 0.0
    return float(popular_input_mask(sparse, hot_sets).mean())


def top_k_overlap(histogram_a: np.ndarray, histogram_b: np.ndarray, k: int) -> float:
    """Jaccard-style overlap of the top-k entries of two access histograms.

    Used to quantify how much the hot set drifts between days (Figure 9).
    """
    if k <= 0:
        raise ValueError("k must be positive")
    top_a = set(np.argsort(histogram_a)[::-1][:k].tolist())
    top_b = set(np.argsort(histogram_b)[::-1][:k].tolist())
    if not top_a and not top_b:
        return 1.0
    return len(top_a & top_b) / float(k)


@dataclass
class EvolvingSkewGenerator:
    """Generates per-day click logs whose hot set drifts over time.

    Each day reuses the same Zipf shape but rotates a fraction of the
    popular ranks onto different rows, modelling the behaviour change the
    paper observes for Criteo Terabyte's embedding table 20 (Figure 9).

    Attributes:
        spec: Dataset specification to generate from.
        drift_per_day: Fraction of the rank->row mapping re-randomised each
            day (0 = static popularity, 1 = completely new hot set daily).
        seed: Base RNG seed.
    """

    spec: DatasetSpec
    drift_per_day: float = 0.25
    seed: int = 0

    def day(self, day_index: int, num_samples: int) -> SyntheticClickLog:
        """Generate the click log for one day.

        Day ``d`` uses a rank->row permutation derived from day 0 by
        re-randomising ``drift_per_day`` of the hottest ranks ``d`` times, so
        consecutive days overlap strongly while distant days diverge.  The
        log's ``rank_to_row`` is day ``d``'s maps (in
        :data:`~repro.nn.embedding.ID_DTYPE`), the ones its ids were drawn
        through: each rank day 0 drew lands on row ``rank_to_row[t][rank]``.
        """
        if not 0.0 <= self.drift_per_day <= 1.0:
            raise ValueError("drift_per_day must be within [0, 1]")
        base = generate_click_log(self.spec, num_samples, seed=self.seed)
        if day_index == 0 or self.drift_per_day == 0.0:
            return base
        rng = np.random.default_rng(self.seed + 1000 + day_index)
        drifted_sparse = base.sparse.copy()
        drifted_rank_to_row: list[np.ndarray] = []
        for table, rows in enumerate(self.spec.rows_per_table):
            permutation = base.rank_to_row[table].copy()
            num_drift = max(1, int(round(rows * self.drift_per_day)))
            for _ in range(day_index):
                swap_from = rng.choice(rows, size=num_drift, replace=False)
                swap_to = rng.choice(rows, size=num_drift, replace=False)
                permutation[swap_from], permutation[swap_to] = (
                    permutation[swap_to].copy(),
                    permutation[swap_from].copy(),
                )
            # Rebuild lookups: invert day-0 mapping to ranks, then remap.
            inverse = np.empty(rows, dtype=np.int64)
            inverse[base.rank_to_row[table]] = np.arange(rows)
            ranks = inverse[base.sparse[:, table, :]]
            drifted_sparse[:, table, :] = permutation[ranks]
            drifted_rank_to_row.append(permutation)
        return SyntheticClickLog(
            spec=self.spec,
            dense=base.dense,
            sparse=drifted_sparse,
            labels=base.labels,
            rank_to_row=drifted_rank_to_row,
        )
