"""Unit tests for the HotSetIndex membership bitmap."""

import numpy as np
import pytest

from repro.core.hotset import HotSetIndex, as_hot_set_index


def test_contains_matches_isin():
    hot = np.array([1, 5, 9])
    index = HotSetIndex([hot], rows_per_table=(12,))
    rows = np.array([0, 1, 5, 8, 9, 11])
    np.testing.assert_array_equal(index.contains(0, rows), np.isin(rows, hot))


def test_contains_preserves_input_shape():
    index = HotSetIndex([np.array([2, 3])])
    rows = np.array([[2, 0], [3, 3], [1, 2]])
    result = index.contains(0, rows)
    assert result.shape == rows.shape
    assert result.tolist() == [[True, False], [True, True], [False, True]]


def test_contains_out_of_range_rows_are_cold():
    index = HotSetIndex([np.array([0, 2])])
    rows = np.array([2, 3, 100])
    np.testing.assert_array_equal(index.contains(0, rows), [True, False, False])


def test_empty_hot_set_reports_everything_cold():
    index = HotSetIndex([np.empty(0, dtype=np.int64)], rows_per_table=(8,))
    rows = np.arange(8)
    assert not index.contains(0, rows).any()
    assert index.hot_rows_total == 0


def test_is_hot_scalar():
    index = HotSetIndex([np.array([4])], rows_per_table=(10,))
    assert index.is_hot(0, 4)
    assert not index.is_hot(0, 5)
    assert not index.is_hot(0, 99)


def test_classify_requires_matching_table_count():
    index = HotSetIndex([np.array([0])], rows_per_table=(4,))
    with pytest.raises(ValueError):
        index.classify(np.zeros((2, 2, 1), dtype=np.int64))


def test_classify_all_lookups_must_hit():
    index = HotSetIndex([np.array([0, 1]), np.array([2])], rows_per_table=(4, 4))
    sparse = np.array(
        [
            [[0, 1], [2, 2]],  # popular: every lookup hot
            [[0, 3], [2, 2]],  # row 3 of table 0 is cold
            [[1, 1], [2, 0]],  # row 0 of table 1 is cold
        ]
    )
    np.testing.assert_array_equal(index.classify(sparse), [True, False, False])


def test_classify_empty_hot_set_masks_everything():
    index = HotSetIndex([np.array([0]), np.empty(0, dtype=np.int64)])
    sparse = np.zeros((3, 2, 2), dtype=np.int64)
    assert not index.classify(sparse).any()


def test_out_of_range_hot_rows_rejected_with_table_sizes():
    with pytest.raises(ValueError):
        HotSetIndex([np.array([10])], rows_per_table=(10,))
    with pytest.raises(ValueError):
        HotSetIndex([np.array([-1])], rows_per_table=(10,))


def test_negative_hot_rows_rejected_without_table_sizes():
    """Regression: -2 must not wrap around and mark bitmap[size-2] hot."""
    with pytest.raises(ValueError):
        HotSetIndex([np.array([-2, 5])])


def test_rows_per_table_length_mismatch_rejected():
    with pytest.raises(ValueError):
        HotSetIndex([np.array([0])], rows_per_table=(4, 4))


def test_as_hot_set_index_passthrough_and_coercion():
    index = HotSetIndex([np.array([1])])
    assert as_hot_set_index(index) is index
    coerced = as_hot_set_index([np.array([1])])
    assert isinstance(coerced, HotSetIndex)
    assert coerced.is_hot(0, 1)


# ---------------------------------------------------------------------- #
# Incremental (delta) updates
# ---------------------------------------------------------------------- #
def test_delta_validation_matches_constructor_rules():
    index = HotSetIndex([np.array([1])], rows_per_table=(8,))
    with pytest.raises(ValueError, match="out-of-range"):
        index.replace_table(0, np.array([8]))
    with pytest.raises(ValueError, match="negative"):
        index.replace_table(0, np.array([-1, 2]))
    # A rejected delta leaves the index untouched.
    np.testing.assert_array_equal(index.hot_sets[0], [1])
    assert index.version == 0


def test_replace_table_rejects_rows_outside_a_sizeless_table():
    """An index built without sizes spans each hot set's max + 1 rows and
    does not grow: a later row beyond that raises, as with given sizes."""
    index = HotSetIndex([np.array([2]), np.array([0, 4])])
    assert [index.bitmap(t).size for t in range(2)] == [3, 5]
    with pytest.raises(ValueError, match="out-of-range"):
        index.replace_table(0, np.array([10]))
    added, removed = index.replace_table(0, np.array([0, 1]))
    assert added.tolist() == [0, 1] and removed.tolist() == [2]
    np.testing.assert_array_equal(index.bitmap(0), [True, True, False])
    np.testing.assert_array_equal(index.bitmap(1), [True, False, False, False, True])


def test_replace_table_equals_rebuild():
    rng = np.random.default_rng(0)
    old_hot = np.unique(rng.integers(0, 5000, size=400))
    new_hot = np.unique(rng.integers(0, 5000, size=400))
    index = HotSetIndex([old_hot], rows_per_table=(5000,))
    added, removed = index.replace_table(0, new_hot)
    rebuilt = HotSetIndex([new_hot], rows_per_table=(5000,))
    probe = np.arange(5000)
    np.testing.assert_array_equal(index.contains(0, probe), rebuilt.contains(0, probe))
    np.testing.assert_array_equal(index.hot_sets[0], new_hot)
    # The reported delta is exactly the symmetric difference.
    np.testing.assert_array_equal(np.sort(added), np.setdiff1d(new_hot, old_hot))
    np.testing.assert_array_equal(np.sort(removed), np.setdiff1d(old_hot, new_hot))


def test_empty_deltas_are_noops():
    """Replacing a table with its own hot set is an empty delta."""
    index = HotSetIndex([np.array([1, 2])], rows_per_table=(8,))
    before = index.bitmap(0).copy()
    added, removed = index.replace_table(0, np.array([1, 2]))
    assert added.size == removed.size == 0
    np.testing.assert_array_equal(index.bitmap(0), before)
    np.testing.assert_array_equal(index.hot_sets[0], [1, 2])


def test_version_bumps_after_every_mutation():
    """The version counter increments once per delta — and only after the
    bitmap is updated, so observing a version implies its bit flips are
    visible (the precomputed-mask validity token relies on this)."""
    index = HotSetIndex([np.array([1, 2]), np.array([0])], rows_per_table=(8, 2))
    start = index.version
    index.replace_table(0, np.array([0, 5]))
    assert index.version == start + 1
    index.replace_table(1, np.empty(0, dtype=np.int64))
    assert index.version == start + 2
    assert not index.is_hot(1, 0)
    index.replace_table(0, np.array([0, 5]))
    assert index.version == start + 3


# ---------------------------------------------------------------------- #
# One flat bitmap
# ---------------------------------------------------------------------- #
def test_ids_outside_their_table_never_read_a_neighbours_bit():
    """Row 3 of table 0 and row 0 of table 1 are adjacent bits: id 4 of
    table 0 and id -1 of table 1 would land on them, but read cold."""
    index = HotSetIndex([np.array([3]), np.array([0])], rows_per_table=(4, 4))
    sparse = np.array(
        [
            [[3], [0]],  # popular
            [[4], [0]],  # table 0's id 4 is table 1's row 0
            [[3], [-1]],  # table 1's id -1 is table 0's row 3
            [[3], [99]],  # beyond every table
        ]
    )
    np.testing.assert_array_equal(index.classify(sparse), [True, False, False, False])
    np.testing.assert_array_equal(index.contains(0, np.array([3, 4, -1])), [True, False, False])
    np.testing.assert_array_equal(index.contains(1, np.array([0, -1, 4])), [True, False, False])
    assert not index.is_hot(0, 4) and not index.is_hot(1, -1)


def test_bitmap_is_a_view_of_the_tables_slice():
    index = HotSetIndex([np.array([1]), np.array([0, 2])], rows_per_table=(2, 3))
    np.testing.assert_array_equal(index.bitmap(0), [False, True])
    np.testing.assert_array_equal(index.bitmap(1), [True, False, True])
    view = index.bitmap(1)
    index.replace_table(1, np.array([1]))
    np.testing.assert_array_equal(view, [False, True, False])


def test_unsorted_and_duplicate_hot_rows_are_sorted_once():
    index = HotSetIndex([np.array([5, 1, 5, 3])], rows_per_table=(8,))
    np.testing.assert_array_equal(index.hot_sets[0], [1, 3, 5])
    assert index.hot_rows_total == 3
    np.testing.assert_array_equal(
        index.contains(0, np.arange(8)), np.isin(np.arange(8), [1, 3, 5])
    )
