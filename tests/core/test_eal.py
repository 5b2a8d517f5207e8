"""Unit tests for the Embedding Access Logger (SRRIP tracker)."""

import numpy as np
import pytest

from repro.core.distributed import ShardedHotlineTrainer
from repro.core.eal import (
    EALConfig,
    EmbeddingAccessLogger,
    OracleLFUTracker,
    expected_parallel_requests,
)
from repro.core.pipeline import HotlineTrainer
from repro.data.loader import MiniBatchLoader
from repro.models.dlrm import DLRM
from tests.oracle import ReferenceEAL, held_arrays, simulate_parallel_requests, tracked_ways

#: The key space of the hand-fed EALs: two tables of 100,000 rows.
ROWS = (100_000, 100_000)


def small_eal(entries=256, ways=8, seed=0):
    config = EALConfig(size_bytes=entries * 2, ways=ways)
    return EmbeddingAccessLogger(ROWS, config, seed=seed)


def test_config_entry_count_matches_paper():
    """4 MB at ~2 bytes/entry gives ~2 million trackable indices."""
    config = EALConfig()
    assert config.num_entries == pytest.approx(2_000_000, rel=0.05)
    assert config.num_sets * config.ways == config.num_entries


def test_first_access_is_a_miss_then_hit():
    eal = small_eal()
    assert eal.access(0, 42) is False
    assert eal.access(0, 42) is True
    assert eal.contains(0, 42)
    assert eal.hits == 1
    assert eal.misses == 1


def test_distinct_tables_do_not_collide_logically():
    eal = small_eal()
    eal.access(0, 7)
    assert eal.contains(0, 7)
    assert not eal.contains(1, 7)


def test_hot_indices_grouped_per_table():
    eal = small_eal()
    eal.access(0, 1)
    eal.access(1, 2)
    eal.access(1, 3)
    hot = eal.hot_indices(num_tables=2)
    assert hot[0].tolist() == [1]
    assert hot[1].tolist() == [2, 3]


def test_access_batch_counts_hits():
    eal = small_eal()
    sparse = np.array([[[1], [2]], [[1], [2]]])  # two samples, two tables
    hits = eal.access_batch(sparse)
    assert hits == 2  # second sample hits both entries inserted by the first


def test_srrip_keeps_frequent_entries_under_pressure():
    """Frequently re-accessed indices survive eviction pressure from a long
    tail of one-off accesses — the property Figure 15 relies on."""
    eal = small_eal(entries=64, ways=8, seed=1)
    rng = np.random.default_rng(0)
    hot_rows = np.arange(8)
    for step in range(3000):
        eal.access(0, int(hot_rows[step % len(hot_rows)]))
        if step % 2 == 0:
            eal.access(0, int(rng.integers(1000, 100_000)))
    tracked_hot = sum(eal.contains(0, int(row)) for row in hot_rows)
    assert tracked_hot >= 6


def test_evictions_occur_when_capacity_exceeded():
    eal = small_eal(entries=32, ways=4)
    for i in range(1000):
        eal.access(0, i)
    assert eal.evictions > 0
    assert eal.occupancy == 1.0


def test_clear_resets_everything():
    eal = small_eal()
    eal.access(0, 5)
    eal.clear()
    assert not eal.contains(0, 5)
    assert eal.occupancy == 0.0
    assert eal.hits == 0 and eal.misses == 0


def test_reset_statistics_keeps_tracked_set():
    eal = small_eal()
    eal.access(0, 5)
    eal.reset_statistics()
    assert eal.contains(0, 5)
    assert eal.misses == 0


def test_hit_rate():
    eal = small_eal()
    assert eal.hit_rate == 0.0
    eal.access(0, 1)
    eal.access(0, 1)
    assert eal.hit_rate == pytest.approx(0.5)


def test_oracle_tracker_top_k():
    oracle = OracleLFUTracker(capacity_entries=2)
    oracle.access_batch(np.array([1] * 10 + [2] * 5 + [3]).reshape(-1, 1, 1))
    hot = oracle.hot_indices(num_tables=1)
    assert set(hot[0].tolist()) == {1, 2}


def test_oracle_batch_access():
    oracle = OracleLFUTracker(capacity_entries=4)
    sparse = np.array([[[1], [2]], [[1], [3]]])
    oracle.access_batch(sparse)
    hot = oracle.hot_indices(num_tables=2)
    assert 1 in hot[0].tolist()


def test_oracle_invalid_capacity():
    with pytest.raises(ValueError):
        OracleLFUTracker(0)


def test_expected_parallel_requests_monotone_in_queue():
    """Figure 16: more queue entries allow more parallel requests."""
    small = expected_parallel_requests(queue_size=8, num_banks=64)
    large = expected_parallel_requests(queue_size=512, num_banks=64)
    assert large > small
    assert large <= 64


def test_expected_parallel_requests_paper_design_point():
    """A 512-entry queue with 64 banks sustains ~60 requests/iteration."""
    assert expected_parallel_requests(512, 64) > 55


def test_simulated_parallel_requests_close_to_expectation():
    simulated = simulate_parallel_requests(256, 32, trials=50, seed=0)
    expected = expected_parallel_requests(256, 32)
    assert simulated == pytest.approx(expected, rel=0.15)


def test_parallel_requests_invalid_arguments():
    with pytest.raises(ValueError):
        expected_parallel_requests(0, 64)


def test_negative_id_is_rejected_before_any_state_changes():
    """A -1 in table 1 raises naming the table, and table 0's lookups of the
    same block are not recorded: no phantom entry, no counter moved."""
    eal = small_eal()
    block = np.array([[[3], [-1]], [[4], [5]]])
    with pytest.raises(ValueError, match="table 1"):
        eal.access_batch(block)
    assert eal.occupancy == 0.0
    assert [hot.tolist() for hot in eal.hot_indices(2)] == [[], []]
    assert (eal.hits, eal.misses, eal.insertions, eal.evictions) == (0, 0, 0, 0)
    with pytest.raises(ValueError, match="table 0"):
        eal.access(0, -1)
    assert eal.occupancy == 0.0


def test_id_past_the_row_field_is_rejected_not_aliased():
    """Row 1,200 of a 1,200-row table 0 would flatten to table 1's row 0:
    both access paths reject it, naming table 0, before any state changes,
    and a query for it never reads table 1's entry."""
    eal = EmbeddingAccessLogger((1200, 50), EALConfig(size_bytes=512, ways=8))
    with pytest.raises(ValueError, match="table 0"):
        eal.access_batch(np.array([[[1200], [7]]]))
    with pytest.raises(ValueError, match="table 0"):
        eal.access(0, 1200)
    with pytest.raises(ValueError, match="table 2"):
        eal.access(2, 0)
    with pytest.raises(ValueError, match="table -1"):
        eal.access(-1, 0)
    assert [hot.tolist() for hot in eal.hot_indices(2)] == [[], []]
    assert (eal.hits, eal.misses, eal.insertions, eal.evictions) == (0, 0, 0, 0)
    assert held_arrays(eal) is None
    assert not eal.contains(0, 1200)
    eal.access(0, 1199)
    eal.access(1, 0)
    assert [hot.tolist() for hot in eal.hot_indices(2)] == [[1199], [0]]
    assert eal.contains(0, 1199) and eal.contains(1, 0)
    assert not eal.contains(0, 1200)
    assert not eal.contains(2, 0)


@pytest.mark.parametrize(
    "rows, key_dtype",
    [((2**31, 2**31), np.uint32), ((2**31, 2**31 + 1), np.uint64)],
    ids=["2**32 rows", "2**32 + 1 rows"],
)
def test_keys_are_uint32_while_the_key_space_fits(rows, key_dtype):
    """An entry is a flat key and an int8 RRPV: 5 bytes while the key space
    has at most 2**32 rows, 9 beyond.  The last row of the last table is
    tracked and reported either way."""
    eal = EmbeddingAccessLogger(rows, EALConfig(size_bytes=512, ways=8))
    eal.access(1, rows[1] - 1)
    assert [hot.tolist() for hot in eal.hot_indices(2)] == [[], [rows[1] - 1]]
    keys, rrpv = eal.release()
    assert keys.dtype == key_dtype and rrpv.dtype == np.int8
    entries = eal.config.num_sets * eal.config.ways
    assert keys.nbytes + rrpv.nbytes == entries * (key_dtype().itemsize + 1)
    assert keys[rrpv >= 0].tolist() == [sum(rows) - 1]


@pytest.mark.parametrize("num_shards", [1, 4])
@pytest.mark.parametrize(
    "eal_config",
    [EALConfig(size_bytes=256, ways=4), EALConfig(size_bytes=1 << 16, ways=8)],
    ids=["evicting", "roomy"],
)
def test_learning_phase_places_as_the_per_access_loop(
    tiny_model_config, tiny_click_log, num_shards, eal_config
):
    """Each shard's EAL ends the learning phase in the per-access loop's
    state, so every shard's placement is the same.

    The learning phase releases each EAL's arrays once its hot sets are
    taken, so the arrays compared are the ones each EAL held at its
    release, and each must track something."""

    def learn(eal_cls):
        model = DLRM(tiny_model_config, seed=1)
        if num_shards == 1:
            trainer = HotlineTrainer(model, sample_fraction=0.25)
            accelerators = [trainer.accelerator]
        else:
            trainer = ShardedHotlineTrainer(model, num_shards, sample_fraction=0.25)
            accelerators = [shard.accelerator for shard in trainer.shards]
        released = []
        rows = tiny_model_config.dataset.rows_per_table
        for k, accelerator in enumerate(accelerators):
            eal = accelerator.eal = eal_cls(rows, eal_config, seed=k)
            eal.release = record_release(eal, released)
        placed = trainer.learning_phase(MiniBatchLoader(tiny_click_log, batch_size=128))
        placements = placed if isinstance(placed, list) else [placed]
        eals = [accelerator.eal for accelerator in accelerators]
        assert [eal for eal, _copy, _arrays in released] == eals  # one release each, in order
        return placements, eals, released

    placements, eals, released = learn(EmbeddingAccessLogger)
    ref_placements, ref_eals, ref_released = learn(ReferenceEAL)
    for placement, ref_placement in zip(placements, ref_placements, strict=True):
        for hot, ref_hot in zip(placement.hot_sets, ref_placement.hot_sets, strict=True):
            assert hot.tolist() == ref_hot.tolist()
    for placement, (eal, copy, _arrays), (ref, ref_copy, _ref_arrays) in zip(
        placements, released, ref_released, strict=True
    ):
        ways, ref_ways = tracked_ways(eal, copy), tracked_ways(ref, ref_copy)
        assert ways[0].any()
        # The placement is the tracked set the EAL held at its release.
        assert sum(hot.size for hot in placement.hot_sets) == ways[0].sum()
        for got, want in zip(ways, ref_ways, strict=True):
            assert np.array_equal(got, want)
    # One array set per learning phase: every shard learned in shard 0's.
    first = released[0][2]
    for _eal, _copy, arrays in released:
        assert all(map(np.shares_memory, arrays, first))
    for eal, ref in zip(eals, ref_eals, strict=True):
        assert (eal.hits, eal.misses, eal.insertions, eal.evictions) == (
            ref.hits, ref.misses, ref.insertions, ref.evictions
        )
    if eal_config.num_entries < 1000:
        assert all(eal.evictions > 0 for eal in eals)


def record_release(eal, released):
    """``eal.release``, first appending ``(eal, a copy of its arrays, the
    arrays)`` to ``released``.  The copy keeps what the EAL tracked: the
    next shard's EAL reuses the arrays themselves."""
    release = eal.release

    def recorded():
        arrays = release()
        released.append((eal, tuple(array.copy() for array in arrays), arrays))
        return arrays

    return recorded


def test_release_drops_the_arrays_and_keeps_the_counters():
    """The arrays exist from the first access to a release or clear; a
    released EAL hands its arrays out, tracks nothing, counts on, and
    re-allocates empty arrays at its next access."""
    eal = small_eal()
    assert held_arrays(eal) is None
    assert eal.access_batch(np.empty((0, 2, 1), dtype=np.int64)) == 0
    assert held_arrays(eal) is None  # an empty block is no access
    eal.access(0, 5)
    eal.access(0, 5)
    held = held_arrays(eal)
    assert (held[1] >= 0).sum() == 1
    released = eal.release()
    assert all(map(np.shares_memory, released, held))
    assert held_arrays(eal) is None
    assert (eal.hits, eal.misses, eal.insertions, eal.evictions) == (1, 1, 1, 0)
    assert not eal.contains(0, 5)
    assert [hot.tolist() for hot in eal.hot_indices(2)] == [[], []]
    assert eal.occupancy == 0.0
    assert eal.release() is None
    assert eal.access(0, 5) is False
    assert (eal._rrpv >= 0).sum() == 1 and eal.misses == 2
    eal.clear()
    assert held_arrays(eal) is None and eal.misses == 0


def test_reuse_learns_from_empty_in_another_eals_arrays():
    """An EAL that reuses released arrays starts empty in them and learns
    exactly as a fresh EAL does; arrays of another shape are dropped, and
    an EAL that tracks a set keeps it."""
    rng = np.random.default_rng(4)
    donor = small_eal(entries=64, ways=4, seed=0)
    donor.access_batch(rng.integers(0, 500, size=(64, 2, 2)))
    arrays = donor.release()
    eal, fresh = small_eal(entries=64, ways=4, seed=1), small_eal(entries=64, ways=4, seed=1)
    eal.reuse(arrays)
    assert all(map(np.shares_memory, held_arrays(eal), arrays))
    assert eal.occupancy == 0.0
    assert [hot.tolist() for hot in eal.hot_indices(2)] == [[], []]
    block = rng.integers(0, 500, size=(64, 2, 2))
    assert eal.access_batch(block) == fresh.access_batch(block)
    for got, want in zip(
        tracked_ways(eal, held_arrays(eal)), tracked_ways(fresh, held_arrays(fresh)), strict=True
    ):
        assert np.array_equal(got, want)
    assert [hot.tolist() for hot in eal.hot_indices(2)] == [
        hot.tolist() for hot in fresh.hot_indices(2)
    ]
    kept = held_arrays(fresh)
    released = eal.release()
    fresh.reuse(released)
    assert all(map(np.shares_memory, held_arrays(fresh), kept))
    other = small_eal(entries=128, ways=4)
    other.reuse(released)
    assert held_arrays(other) is None
