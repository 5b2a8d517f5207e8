"""Unit tests for popularity / access-skew analysis (Figures 6 and 9)."""

import numpy as np
import pytest

from repro.data.skew import (
    EvolvingSkewGenerator,
    access_histogram,
    popular_entries,
    popular_input_fraction,
    popular_input_mask,
    top_k_overlap,
)
from repro.data.synthetic import generate_click_log
from repro.models import RM2
from repro.nn.embedding import ID_DTYPE
from tests.conftest import TINY_DATASET


@pytest.fixture(scope="module")
def log():
    return generate_click_log(TINY_DATASET, 8192, seed=0)


def test_access_histogram_counts_every_lookup(log):
    histograms = access_histogram(log.sparse, TINY_DATASET.rows_per_table)
    total = sum(int(h.sum()) for h in histograms)
    assert total == log.num_samples * TINY_DATASET.lookups_per_sample()
    assert len(histograms) == TINY_DATASET.num_sparse


def test_popular_entries_threshold(log):
    histograms = access_histogram(log.sparse, TINY_DATASET.rows_per_table)
    hot = popular_entries(histograms, threshold=1.0 / 1000)
    # Popular entries must be a small subset of all rows but not empty.
    total_hot = sum(h.size for h in hot)
    assert 0 < total_hot < sum(TINY_DATASET.rows_per_table)


def test_popular_entries_empty_histograms():
    empty = [np.zeros(10, dtype=int)]
    assert popular_entries(empty)[0].size == 0


def test_popular_input_mask_requires_every_lookup_hot(log):
    histograms = access_histogram(log.sparse, TINY_DATASET.rows_per_table)
    hot = popular_entries(histograms, threshold=1.0 / 1000)
    mask = popular_input_mask(log.sparse, hot)
    # Verify the definition on a sample of inputs.
    for i in range(0, 200, 17):
        expected = all(
            np.isin(log.sparse[i, t, :], hot[t]).all() for t in range(len(hot))
        )
        assert mask[i] == expected


def test_popular_input_fraction_majority(log):
    """With the paper's threshold, the skewed data yields a popular majority."""
    histograms = access_histogram(log.sparse, TINY_DATASET.rows_per_table)
    hot = popular_entries(histograms)
    assert popular_input_fraction(log.sparse, hot) > 0.5


def test_empty_hot_set_means_no_popular_inputs(log):
    hot = [np.empty(0, dtype=np.int64) for _ in TINY_DATASET.rows_per_table]
    assert popular_input_fraction(log.sparse, hot) == 0.0


def test_top_k_overlap_bounds():
    a = np.array([10, 5, 1, 0])
    assert top_k_overlap(a, a, k=2) == 1.0
    b = np.array([0, 1, 5, 10])
    assert top_k_overlap(a, b, k=2) == 0.0
    with pytest.raises(ValueError):
        top_k_overlap(a, b, k=0)


def test_evolving_skew_drifts_over_days():
    generator = EvolvingSkewGenerator(TINY_DATASET, drift_per_day=0.3, seed=1)
    day0 = generator.day(0, 4096)
    day1 = generator.day(1, 4096)
    day5 = generator.day(5, 4096)
    h0 = access_histogram(day0.sparse, TINY_DATASET.rows_per_table)[0]
    h1 = access_histogram(day1.sparse, TINY_DATASET.rows_per_table)[0]
    h5 = access_histogram(day5.sparse, TINY_DATASET.rows_per_table)[0]
    k = 32
    near = top_k_overlap(h0, h1, k)
    far = top_k_overlap(h0, h5, k)
    assert far <= near
    assert near < 1.0 or far < 1.0


def test_evolving_skew_day_zero_is_base():
    generator = EvolvingSkewGenerator(TINY_DATASET, drift_per_day=0.3, seed=1)
    base = generate_click_log(TINY_DATASET, 1024, seed=1)
    day0 = generator.day(0, 1024)
    np.testing.assert_array_equal(day0.sparse, base.sparse)


def test_evolving_skew_day_reports_its_own_rank_to_row():
    """Day ``d``'s ``rank_to_row`` is its drifted maps, not day 0's: each
    rank day 0 drew lands, through them, on the row day ``d`` looked up."""
    spec = RM2.scaled(1200).dataset
    generator = EvolvingSkewGenerator(spec, drift_per_day=0.25, seed=0)
    day0 = generator.day(0, 2048)
    day2 = generator.day(2, 2048)
    assert len(day2.rank_to_row) == spec.num_sparse
    for table, (base, drifted) in enumerate(
        zip(day0.rank_to_row, day2.rank_to_row, strict=True)
    ):
        assert drifted.dtype == ID_DTYPE
        rank_of_row = np.empty(base.size, dtype=np.int64)
        rank_of_row[base] = np.arange(base.size)  # day 0's map is a permutation
        ranks = rank_of_row[day0.sparse[:, table, :]]
        np.testing.assert_array_equal(
            drifted[ranks], day2.sparse[:, table, :], err_msg=f"table {table}"
        )


def test_evolving_skew_invalid_drift():
    generator = EvolvingSkewGenerator(TINY_DATASET, drift_per_day=1.5, seed=1)
    with pytest.raises(ValueError):
        generator.day(1, 128)
