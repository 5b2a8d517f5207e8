"""Tests for the hot/cold :class:`TieredEmbeddingStore`.

The tier is an accounting layer, so the suite pins three things: the
bit-parity contract (attaching a tier changes no numerics), the pricing/
counter model (misses fetch, capacity evicts LFU, pinned rows never
evict), and the window-bound bookkeeping (resident-set-sized arrays,
never table-sized).  The flat-keyed tier must also reproduce the test
oracle's per-table ``ReferenceTieredStore`` counter for counter.  Every
method takes flat keys, ``key_offsets(rows_per_table)[t] + row``, and a
touch takes a whole ``(batch, tables, pooling)`` block of them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hwsim.dma import DMAEngine
from repro.hwsim.interconnect import Link
from repro.nn.embedding import EmbeddingBag, TieredEmbeddingStore, key_offsets
from tests.oracle import ReferenceTieredStore


def make_tier(rows=(64, 32), dim=4, hot_rows=16, **kwargs):
    tier = TieredEmbeddingStore(
        rows, dim, hot_bytes=hot_rows * dim * 4, dma=DMAEngine(), **kwargs
    )
    assert tier.capacity_rows == hot_rows
    return tier


def test_touch_counts_hits_misses_and_prices_fetches():
    tier = make_tier()
    t = tier.touch(np.array([[1, 2], [3, 1]]))
    # Hits/misses count unique rows: three cold rows on a first touch.
    assert (tier.hits, tier.misses) == (0, 3)
    assert t > 0.0 and tier.fetch_time_s == t
    assert tier.dma.bytes_read == 3 * tier.row_bytes
    t2 = tier.touch(np.array([[1, 3]]))
    assert (tier.hits, tier.misses) == (2, 3)
    assert t2 == 0.0  # all resident: no DMA
    assert tier.resident_rows == 3


def test_capacity_evicts_lowest_frequency_rows():
    tier = make_tier(hot_rows=4)
    tier.touch(np.array([[0, 0, 0, 1, 1, 2, 3]]))  # freq 0:3, 1:2, 2:1, 3:1
    assert tier.resident_rows == 4 and tier.evictions == 0
    tier.touch(np.array([[64 + 5, 64 + 5]]))  # table 1's row 5 forces one eviction
    assert tier.evictions == 1
    assert tier.resident_rows == 4
    # The evicted victim is one of the frequency-1 rows of table 0.
    assert tier.is_resident(np.array([0, 1])).all()
    assert int(np.count_nonzero(tier.is_resident(np.array([2, 3])))) == 1
    assert tier.is_resident(np.array([64 + 5])).all()
    assert tier.dma.bytes_written == tier.row_bytes  # dirty write-back priced


def test_pinned_rows_never_evict():
    tier = make_tier(hot_rows=4)
    tier.repin(np.array([10, 11, 12]))
    assert tier.resident_rows == 3 and tier.misses == 0
    # Pinned prefill is a contiguous (non-scattered) read.
    assert tier.fetch_time_s > 0.0 and tier.dma.requests == 1
    tier.touch(64 + np.array([[1, 2, 3]]))  # 3 cold rows, capacity 4
    assert tier.evictions == 0  # pinned rows do not count against capacity
    tier.touch(64 + np.array([[4, 5, 6]]))  # the pool overflows by 2
    assert tier.evictions == 2
    assert tier.is_resident(np.array([10, 11, 12])).all()


@pytest.mark.parametrize("capacity_rows", [0, 3, 12])
def test_capacity_bounds_the_unpinned_pool_alone(capacity_rows):
    """Pinned rows are bounded by the EAL's capacity, beside the tier's
    capacity: after every touch and repin the unpinned resident rows fit
    ``capacity_rows``, and an eviction stops exactly at it rather than
    making room for the pinned rows too."""
    rows_per_table = (50, 7, 30)
    total = sum(rows_per_table)
    tier = TieredEmbeddingStore(
        rows_per_table, 4, hot_bytes=capacity_rows * 4 * 4, dma=DMAEngine()
    )
    rng = np.random.default_rng(capacity_rows)
    for step in range(120):
        evictions = tier.evictions
        if step % 20 == 0:
            tier.repin(rng.choice(total, size=8, replace=False))
        elif step % 20 == 10:  # table 1's rows join the pinned set
            tier.repin(np.union1d(tier._pinned, 50 + rng.integers(0, 7, size=2)))
        else:
            tier.touch(rng.integers(0, total, size=(3, len(rows_per_table), 2)))
        pool = tier.resident_rows - tier.pinned_rows
        assert pool <= tier.capacity_rows
        if tier.evictions > evictions:
            assert pool == tier.capacity_rows
    assert tier.evictions > 0 and tier.pinned_rows > 0


def test_bookkeeping_is_resident_set_sized():
    tier = TieredEmbeddingStore(
        (10_000_000,), 8, hot_bytes=1024 * 8 * 4, dma=DMAEngine()
    )
    rng = np.random.default_rng(3)
    tier.touch(rng.choice(10_000_000, size=(16, 1, 4), replace=False))
    assert tier.resident_rows == 64
    # Sorted-array probe bookkeeping: bytes track residency, not the table.
    assert tier.nbytes < 64 * 3 * 8 + 64
    assert tier.hit_rate == 0.0


def test_embedding_bag_resolves_through_tier_transparently():
    rng = np.random.default_rng(11)
    bag = EmbeddingBag((64, 32), 4, rng)
    baseline_weight = bag.weight.copy()
    block = np.stack([rng.integers(0, 64, size=(8, 3)), rng.integers(0, 32, size=(8, 3))], 1)
    expected = bag.forward(block)
    expected_grad = bag.backward(np.ones((8, 2, 4)))

    tier = make_tier(rows=(64, 32), hot_rows=16)
    reference = ReferenceTieredStore((64, 32), 4, hot_bytes=16 * 4 * 4, dma=DMAEngine())
    bag.attach_tier(tier)
    out = bag.forward(block)
    grad = bag.backward(np.ones((8, 2, 4)))
    # Bit-identical numerics: only pricing/counters change.
    np.testing.assert_array_equal(out, expected)
    np.testing.assert_array_equal(grad.indices, expected_grad.indices)
    np.testing.assert_array_equal(grad.values, expected_grad.values)
    np.testing.assert_array_equal(bag.weight, baseline_weight)
    # The whole block is touched once, in flat keys: one fetch of every
    # miss and one write-back of every eviction.
    keys = block + bag.offsets[:, None]
    assert tier.evictions > 0 and tier.dma.requests == 2
    reference.touch(keys)
    assert_tiers_equal(tier, reference)
    assert tier.hits + tier.misses == np.unique(keys).size
    # An evaluation read is not training traffic.
    bag.gather(block)
    assert tier.hits + tier.misses == np.unique(keys).size


def test_attach_tier_validates_shape():
    rng = np.random.default_rng(0)
    bag = EmbeddingBag((64, 32), 4, rng)
    with pytest.raises(ValueError):
        bag.attach_tier(make_tier(rows=(32, 64)))  # tables in the wrong order
    with pytest.raises(ValueError):
        bag.attach_tier(make_tier(rows=(64,)))  # a table missing
    bag.attach_tier(make_tier(rows=(64, 32)))


def assert_tiers_equal(flat, reference):
    """Counters, priced times and residency of every row, compared with ==."""
    assert (flat.hits, flat.misses, flat.evictions) == (
        reference.hits, reference.misses, reference.evictions
    )
    assert flat.fetch_time_s == reference.fetch_time_s
    assert flat.writeback_time_s == reference.writeback_time_s
    assert flat.resident_rows == reference.resident_rows
    assert flat.pinned_rows == sum(pinned.size for pinned in reference._pinned)
    everything = np.arange(sum(flat.rows_per_table))
    assert np.array_equal(flat.is_resident(everything), reference.is_resident(everything))


def flat_block(rows_per_table, *ids):
    """The flat keys of a ``(batch, tables, pooling)`` block, from each
    table's ``(batch, pooling)`` ids."""
    return np.stack(ids, axis=1) + key_offsets(rows_per_table)[:, None]


def narrow_block(rng, rows_per_table, batch, pooling):
    """A random block whose ids fall in a narrow range per table: counts
    stay small, so LFU ties abound."""
    ids = []
    for rows in rows_per_table:
        lo = int(rng.integers(rows))
        hi = min(rows, lo + int(rng.integers(1, 12)))
        ids.append(rng.integers(lo, hi, size=(batch, pooling)))
    return flat_block(rows_per_table, *ids)


@pytest.mark.parametrize("capacity_rows", [0, 2, 9, 40])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_flat_tier_reproduces_the_per_table_tier(capacity_rows, seed):
    """One seeded stream of whole-block touches and pins drives the
    flat-keyed tier and the oracle's per-table tier: after every call their
    counters, priced seconds and residency are equal.  A pin repins the
    union of every key pinned so far.  The stream opens with a block that
    repeats rows, a block whose fresh rows all tie at count 1, and a pin of
    rows already cached; with capacity 0 or 2 the pinned rows exceed
    capacity."""
    rows_per_table = (50, 7, 30, 1)
    dim = 4
    hot_bytes = capacity_rows * dim * 4
    flat = TieredEmbeddingStore(rows_per_table, dim, hot_bytes=hot_bytes, dma=DMAEngine())
    reference = ReferenceTieredStore(
        rows_per_table, dim, hot_bytes=hot_bytes, dma=DMAEngine()
    )
    rng = np.random.default_rng(seed)
    offsets = key_offsets(rows_per_table)
    calls = [
        ("touch", flat_block(
            rows_per_table, [[1, 1, 2], [2, 3, 1]], [[0, 0, 1], [1, 2, 0]],
            [[4, 5, 4], [6, 4, 4]], [[0, 0, 0], [0, 0, 0]],
        )),
        ("touch", flat_block(rows_per_table, [[20]], [[3]], [[10]], [[0]])),
        ("pin", np.array([1, 2, 44])),
    ]
    for _ in range(120):
        if rng.random() < 0.1:
            table = int(rng.integers(len(rows_per_table)))
            rows = rows_per_table[table]
            lo = int(rng.integers(rows))
            hi = min(rows, lo + int(rng.integers(1, 12)))
            size = int(rng.integers(1, 4))
            calls.append(("pin", offsets[table] + rng.integers(lo, hi, size=size)))
        else:
            batch, pooling = int(rng.integers(0, 5)), int(rng.integers(1, 4))
            calls.append(("touch", narrow_block(rng, rows_per_table, batch, pooling)))
    pinned = np.empty(0, dtype=np.int64)
    for kind, keys in calls:
        if kind == "pin":
            pinned = np.union1d(pinned, keys)
            flat.repin(pinned)
            reference.repin(pinned)
        else:
            assert flat.touch(keys) == reference.touch(keys)
        assert_tiers_equal(flat, reference)
    assert reference.evictions > 0
    assert flat.pinned_rows > capacity_rows or capacity_rows == 40


def test_repin_moves_only_the_symmetric_difference():
    """Unpinned keys stay resident at count 0 and evict first; a newly
    pinned key leaves the LFU pool, or loads in one contiguous read."""
    # An ideal link leaves host DRAM as the bottleneck, so a contiguous
    # read prices below a scattered one.
    dma = DMAEngine(link=Link("ideal", bandwidth=1e18, latency_s=0.0))
    tier = TieredEmbeddingStore((32, 64), 4, hot_bytes=6 * 4 * 4, dma=dma)
    tier.repin(np.array([1, 2]))
    tier.touch(32 + np.array([[3, 3, 4]]))  # keys 35 (count 2) and 36 (count 1)
    fetched, requests = tier.fetch_time_s, dma.requests
    tier.repin(np.array([2, 35, 40]))  # 1 leaves; 35 leaves the pool; 40 loads
    assert tier._pinned.tolist() == [2, 35, 40]
    assert tier._keys.tolist() == [1, 36] and tier._counts.tolist() == [0, 1]
    assert dma.requests == requests + 1
    contiguous = dma.read_time(tier.row_bytes, scattered=False)
    assert contiguous < dma.read_time(tier.row_bytes, scattered=True)
    assert tier.fetch_time_s - fetched == contiguous
    tier.touch(np.array([[7]]))
    tier.touch(np.array([[9]]))  # 4 unpinned resident, capacity 6
    assert tier.evictions == 0
    assert tier.is_resident(np.array([1, 7, 9])).tolist() == [True, True, True]
    tier.touch(np.array([[11, 13, 15]]))  # 7 unpinned: one over capacity
    assert tier.evictions == 1
    assert tier.is_resident(np.array([1, 7, 9])).tolist() == [False, True, True]
    with pytest.raises(ValueError):
        tier.repin(np.array([96]))


@pytest.mark.parametrize("capacity_rows", [0, 2, 9, 40])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_repin_reproduces_the_per_table_tier(capacity_rows, seed):
    """Whole-block touches and whole-set repins drive both tiers; after
    every call their counters, priced seconds and residency are equal."""
    rows_per_table = (50, 7, 30, 1)
    dim = 4
    hot_bytes = capacity_rows * dim * 4
    flat = TieredEmbeddingStore(rows_per_table, dim, hot_bytes=hot_bytes, dma=DMAEngine())
    reference = ReferenceTieredStore(
        rows_per_table, dim, hot_bytes=hot_bytes, dma=DMAEngine()
    )
    rng = np.random.default_rng(seed)
    total = sum(rows_per_table)
    for step in range(150):
        if step % 15 == 0:
            keys = rng.choice(total, size=int(rng.integers(0, 20)), replace=False)
            flat.repin(keys)
            reference.repin(keys)
        else:
            keys = narrow_block(rng, rows_per_table, int(rng.integers(0, 5)), 2)
            assert flat.touch(keys) == reference.touch(keys)
        assert_tiers_equal(flat, reference)
    assert reference.evictions > 0
