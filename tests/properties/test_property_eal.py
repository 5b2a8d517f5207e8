"""Property-based tests of the Embedding Access Logger and Feistel randomizer."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.eal import EALConfig, EmbeddingAccessLogger, expected_parallel_requests
from repro.core.lookup_engine import FeistelRandomizer
from tests.oracle import ReferenceEAL, held_arrays, tracked_ways


@given(st.integers(0, 2**32 - 1), st.integers(0, 2**10))
@settings(max_examples=200, deadline=None)
def test_feistel_round_trip(value, seed):
    randomizer = FeistelRandomizer(seed=seed)
    assert randomizer.inverse(randomizer.hash(value)) == value


@given(st.lists(st.integers(0, 2**64 - 1), max_size=64), st.integers(0, 2**10))
@settings(max_examples=100, deadline=None)
def test_feistel_hashes_an_array_as_its_elements(values, seed):
    randomizer = FeistelRandomizer(seed=seed)
    hashed = randomizer.hash(np.array(values, dtype=np.uint64))
    assert hashed.tolist() == [randomizer.hash(value) for value in values]
    assert randomizer.inverse(hashed).tolist() == [value & 0xFFFFFFFF for value in values]


#: Row ids drawn for the oracle comparison: a small pool (so keys repeat
#: inside and across blocks, and one id recurs in several tables), which
#: fits every table of a narrow key space (uint32 keys).
SMALL_ROWS = st.integers(0, 11)
#: In a wide key space (2**40 rows per table, so uint64 keys) the pool adds
#: ids at the edges of the fold's 32-bit and the reference key's 40-bit row
#: fields.
WIDE_ROWS = st.one_of(SMALL_ROWS, st.sampled_from([2**32 - 1, 2**32, 2**40 - 1]))


def assert_same_state(eal, ref, num_tables):
    """The same valid ways, each holding the same (table, row) at the same
    RRPV, and the same counters, occupancy and hot indices."""
    arrays, ref_arrays = held_arrays(eal), held_arrays(ref)
    assert (arrays is None) == (ref_arrays is None)
    if arrays is not None:
        for got, want in zip(
            tracked_ways(eal, arrays), tracked_ways(ref, ref_arrays), strict=True
        ):
            assert np.array_equal(got, want)
    assert (eal.hits, eal.misses, eal.insertions, eal.evictions) == (
        ref.hits, ref.misses, ref.insertions, ref.evictions
    )
    assert eal.occupancy == ref.occupancy
    for hot, ref_hot in zip(
        eal.hot_indices(num_tables), ref.hot_indices(num_tables), strict=True
    ):
        assert hot.dtype == ref_hot.dtype
        assert hot.tolist() == ref_hot.tolist()


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_vectorised_eal_matches_the_per_access_loop(data):
    """Blocks, single accesses and clears, in any order, leave the
    set-vectorised EAL in the per-access loop's state after every call, in
    narrow (uint32) and wide (uint64) key spaces alike."""
    ways = data.draw(st.integers(1, 16), label="ways")
    sets = data.draw(st.integers(1, 64), label="sets")
    max_rrpv = data.draw(st.integers(1, 3), label="max_rrpv")
    config = EALConfig(
        size_bytes=2 * ways * sets,
        ways=ways,
        max_rrpv=max_rrpv,
        insertion_rrpv=data.draw(st.integers(0, max_rrpv), label="insertion_rrpv"),
    )
    seed = data.draw(st.integers(0, 2**10), label="seed")
    num_tables = data.draw(st.integers(1, 4), label="tables")
    pooling = data.draw(st.integers(1, 3), label="pooling")
    wide = data.draw(st.booleans(), label="wide")
    if wide:
        rows_per_table, row_ids = (2**40,) * num_tables, WIDE_ROWS
    else:
        rows_per_table = tuple(
            data.draw(st.lists(st.integers(12, 40), min_size=num_tables,
                               max_size=num_tables), label="rows_per_table")
        )
        row_ids = SMALL_ROWS
    eal = EmbeddingAccessLogger(rows_per_table, config, seed=seed)
    ref = ReferenceEAL(rows_per_table, config, seed=seed)
    assert eal.config.num_sets == sets
    for _ in range(data.draw(st.integers(1, 12), label="calls")):
        kind = data.draw(st.sampled_from(["block", "block", "block", "access", "clear"]))
        if kind == "block":
            batch = data.draw(st.integers(0, 12), label="batch")
            rows = data.draw(
                st.lists(row_ids, min_size=batch * num_tables * pooling,
                         max_size=batch * num_tables * pooling),
                label="rows",
            )
            block = np.array(rows, dtype=np.int64).reshape(batch, num_tables, pooling)
            assert eal.access_batch(block) == ref.access_batch(block)
        elif kind == "access":
            table = data.draw(st.integers(0, num_tables - 1), label="table")
            row = data.draw(row_ids, label="row")
            assert eal.access(table, row) is ref.access(table, row)
            assert eal.contains(table, row) and ref.contains(table, row)
        else:
            eal.clear()
            ref.clear()
        assert_same_state(eal, ref, num_tables)
        if held_arrays(eal) is not None:
            assert eal._keys.dtype == (np.uint64 if wide else np.uint32)


@given(
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 500)), min_size=1, max_size=200),
    st.integers(0, 100),
)
@settings(max_examples=50, deadline=None)
def test_eal_accessed_key_is_immediately_queryable(accesses, seed):
    """Directly after access(t, i), the entry is tracked (it was just inserted
    or refreshed), regardless of the access history."""
    eal = EmbeddingAccessLogger((501,) * 8, EALConfig(size_bytes=2048, ways=4), seed=seed)
    for table, index in accesses:
        eal.access(table, index)
        assert eal.contains(table, index)


@given(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 200)), min_size=1, max_size=150)
)
@settings(max_examples=50, deadline=None)
def test_eal_counters_are_consistent(accesses):
    eal = EmbeddingAccessLogger((201,) * 4, EALConfig(size_bytes=1024, ways=4), seed=0)
    for table, index in accesses:
        eal.access(table, index)
    assert eal.hits + eal.misses == len(accesses)
    assert eal.insertions == eal.misses
    assert 0.0 <= eal.occupancy <= 1.0
    tracked = sum(h.size for h in eal.hot_indices(num_tables=4))
    assert tracked <= eal.config.num_entries


@given(st.integers(1, 1024), st.integers(1, 128))
@settings(max_examples=100, deadline=None)
def test_expected_parallel_requests_bounded(queue, banks):
    value = expected_parallel_requests(queue, banks)
    assert 0 < value <= min(queue, banks) + 1e-9
