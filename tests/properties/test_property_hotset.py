"""Property: the flat hot-set bitmap answers as per-table ``np.isin`` does.

:class:`~repro.core.hotset.HotSetIndex` keeps every table's hot rows in one
bitmap over the flat key space (row ``r`` of table ``t`` is bit
``offsets[t] + r``).  For random table sizes (1-row tables included), hot
sets (empty ones included), sized and sizeless builds and pooling 1-3,
with ids at ``-1``, ``0``, ``rows[t] - 1``, ``rows[t]`` and past every
table boundary, ``classify`` and ``contains`` must equal a per-table
``np.isin`` reference: an id is hot only if it is a hot row of its own
table, never by landing on a neighbouring table's bit, and ``hot_keys``
must be every hot row shifted by its table's span offset.  After random
``replace_table`` deltas the index must equal a fresh build, and
``hot_keys`` the set bits of its bitmap.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hotset import HotSetIndex


@st.composite
def hot_set_indexes(draw):
    """(table sizes, sorted per-table hot sets, whether the build is sized)."""
    rows = draw(st.lists(st.integers(1, 9), min_size=1, max_size=4))
    hot_sets = [
        np.array(sorted(draw(st.sets(st.integers(0, size - 1)))), dtype=np.int64)
        for size in rows
    ]
    return rows, hot_sets, draw(st.booleans())


def build(rows, hot_sets, sized):
    return HotSetIndex(hot_sets, rows_per_table=rows if sized else None)


def spans(rows, hot_sets, sized):
    """Each table's bit span: its size, or its hot set's max + 1 if sizeless."""
    if sized:
        return list(rows)
    return [int(hot[-1]) + 1 if hot.size else 0 for hot in hot_sets]


def edge_ids(rows):
    """-1, 0, every table's last row, size and size + 1, and every table
    boundary of the flat key space, plus ids past all of them."""
    bounds = np.cumsum([0, *rows]).tolist()
    ids = {-1, 0, -bounds[-1] - 1, bounds[-1] + 1}
    for size in rows:
        ids |= {size - 1, size, size + 1}
    return np.array(sorted(ids | set(bounds)), dtype=np.int64)


def draw_sparse(data, rows, hot_sets):
    """A ``(batch, tables, pooling)`` block mixing edge ids and hot rows."""
    batch = data.draw(st.integers(1, 6), label="batch")
    pooling = data.draw(st.integers(1, 3), label="pooling")
    edges = st.sampled_from(edge_ids(rows).tolist())
    columns = []
    for hot in hot_sets:
        ids = st.one_of(edges, st.sampled_from(hot.tolist())) if hot.size else edges
        flat = data.draw(st.lists(ids, min_size=batch * pooling, max_size=batch * pooling))
        columns.append(np.array(flat, dtype=np.int64).reshape(batch, pooling))
    return np.stack(columns, axis=1)


def popular_reference(sparse, hot_sets):
    """Popular iff every lookup is a hot row of its own table."""
    popular = np.ones(sparse.shape[0], dtype=bool)
    for table, hot in enumerate(hot_sets):
        popular &= np.isin(sparse[:, table, :], hot).all(axis=1)
    return popular


@settings(max_examples=200, deadline=None)
@given(data=st.data(), drawn=hot_set_indexes())
def test_classify_and_contains_match_per_table_isin(data, drawn):
    rows, hot_sets, sized = drawn
    index = build(rows, hot_sets, sized)
    sparse = draw_sparse(data, rows, hot_sets)
    np.testing.assert_array_equal(index.classify(sparse), popular_reference(sparse, hot_sets))
    probe = edge_ids(rows)
    for table, hot in enumerate(hot_sets):
        np.testing.assert_array_equal(index.contains(table, probe), np.isin(probe, hot))
        np.testing.assert_array_equal(
            index.contains(table, sparse[:, table, :]), np.isin(sparse[:, table, :], hot)
        )
        assert [index.is_hot(table, row) for row in probe] == np.isin(probe, hot).tolist()
        np.testing.assert_array_equal(index.hot_sets[table], hot)
    assert index.hot_rows_total == sum(hot.size for hot in hot_sets)
    offsets = np.cumsum([0, *spans(rows, hot_sets, sized)])
    expected = [int(offsets[table] + row) for table, hot in enumerate(hot_sets) for row in hot]
    assert index.hot_keys.dtype == np.int64 and index.hot_keys.tolist() == expected


@settings(max_examples=150, deadline=None)
@given(data=st.data(), drawn=hot_set_indexes())
def test_replace_table_deltas_equal_a_fresh_build(data, drawn):
    rows, hot_sets, sized = drawn
    index = build(rows, hot_sets, sized)
    span = spans(rows, hot_sets, sized)
    current = list(hot_sets)
    for step in range(data.draw(st.integers(1, 5), label="deltas")):
        table = data.draw(st.integers(0, len(rows) - 1), label="table")
        # Unsorted and duplicate rows are allowed; the index sorts them.
        in_span = st.lists(
            st.integers(0, max(span[table] - 1, 0)), max_size=8 if span[table] else 0
        )
        new = np.array(data.draw(in_span), dtype=np.int64)
        if data.draw(st.booleans(), label="out of span"):
            outside = np.array([span[table] + data.draw(st.integers(0, 3))])
            with pytest.raises(ValueError):
                index.replace_table(table, np.concatenate([new, outside]))
            assert index.version == step
        added, removed = index.replace_table(table, new)
        new = np.unique(new)
        np.testing.assert_array_equal(np.sort(added), np.setdiff1d(new, current[table]))
        np.testing.assert_array_equal(np.sort(removed), np.setdiff1d(current[table], new))
        current[table] = new
        assert index.version == step + 1
    fresh = HotSetIndex(current, rows_per_table=span)
    for table in range(len(rows)):
        np.testing.assert_array_equal(index.hot_sets[table], fresh.hot_sets[table])
        np.testing.assert_array_equal(index.bitmap(table), fresh.bitmap(table))
    assert index.hot_rows_total == fresh.hot_rows_total
    bits = np.concatenate([index.bitmap(table) for table in range(len(rows))])
    np.testing.assert_array_equal(index.hot_keys, np.flatnonzero(bits))
    sparse = draw_sparse(data, rows, current)
    np.testing.assert_array_equal(index.classify(sparse), fresh.classify(sparse))
    np.testing.assert_array_equal(index.classify(sparse), popular_reference(sparse, current))
