"""Unit tests for the Feistel randomizer, the lookup-engine array's cycle
model, and the popular-input classification the array performs."""

import numpy as np
import pytest

from repro.core.eal import EALConfig, EmbeddingAccessLogger
from repro.core.lookup_engine import FeistelRandomizer, LookupEngineArray
from repro.data.skew import popular_input_mask
from tests.oracle import classify_per_lookup


def test_feistel_is_a_permutation():
    randomizer = FeistelRandomizer(seed=3)
    values = list(range(2000))
    hashed = [randomizer.hash(v) for v in values]
    assert len(set(hashed)) == len(values)
    for v in values[:200]:
        assert randomizer.inverse(randomizer.hash(v)) == v


def test_feistel_scatters_consecutive_keys():
    randomizer = FeistelRandomizer(seed=1)
    banks = [randomizer.hash(v) % 64 for v in range(640)]
    counts = np.bincount(banks, minlength=64)
    # No bank should receive more than a handful of consecutive keys.
    assert counts.max() < 40
    assert (counts > 0).sum() > 48


def test_feistel_seeds_differ():
    a = FeistelRandomizer(seed=0)
    b = FeistelRandomizer(seed=99)
    assert any(a.hash(v) != b.hash(v) for v in range(32))


def test_feistel_requires_rounds():
    with pytest.raises(ValueError):
        FeistelRandomizer(rounds=0)


def test_array_requires_engines():
    with pytest.raises(ValueError):
        LookupEngineArray(0)


def test_classify_matches_hot_set_definition():
    eal = EmbeddingAccessLogger((30, 30), EALConfig(size_bytes=4096, ways=8), seed=0)
    for idx in (1, 2, 3):
        eal.access(0, idx)
        eal.access(1, idx)
    sparse = np.array(
        [
            [[1], [2]],   # all hot -> popular
            [[1], [9]],   # one cold lookup -> non-popular
            [[3], [3]],   # all hot -> popular
        ]
    )
    mask = popular_input_mask(sparse, eal.hot_indices(2))
    assert mask.tolist() == [True, False, True]


def test_classify_with_hot_sets_matches_tracker_path():
    eal = EmbeddingAccessLogger((30, 30), EALConfig(size_bytes=4096, ways=8), seed=0)
    rng = np.random.default_rng(0)
    sparse = rng.integers(0, 30, size=(40, 2, 1))
    for row in rng.integers(0, 30, size=60):
        eal.access(0, int(row))
        eal.access(1, int(row))
    by_tracker = classify_per_lookup(sparse, eal)
    by_sets = popular_input_mask(sparse, eal.hot_indices(2))
    assert 0 < by_sets.sum() < by_sets.size
    np.testing.assert_array_equal(by_tracker, by_sets)


def test_classify_with_empty_hot_set_marks_all_non_popular():
    sparse = np.zeros((5, 2, 1), dtype=np.int64)
    mask = popular_input_mask(sparse, [np.empty(0, dtype=np.int64)] * 2)
    assert not mask.any()


def test_classify_with_wrong_hot_set_count_raises():
    with pytest.raises(ValueError):
        popular_input_mask(np.zeros((2, 3, 1), dtype=np.int64), [np.array([0])])


def test_segregation_cycles_scale_with_batch():
    array = LookupEngineArray(64)
    assert array.segregation_cycles(0, 26) == 0
    assert array.segregation_cycles(64, 1) == 1
    assert array.segregation_cycles(4096, 26) == -(-4096 * 26 // 64)
