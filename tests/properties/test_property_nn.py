"""Property-based tests of the numpy NN substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.embedding import EmbeddingBag, TieredEmbeddingStore, scatter_add_rows
from repro.nn.metrics import roc_auc
from repro.nn.mlp import MLP
from tests.oracle import reference_backward, reference_bag, reference_roc_auc


@given(
    rows=st.lists(st.integers(1, 40), min_size=1, max_size=4),
    batch=st.integers(0, 6),
    pooling=st.integers(0, 3),
    parts=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=80, deadline=None)
def test_embedding_forward_backward_shapes(rows, batch, pooling, parts, seed):
    """The table-batched bag against the oracle's per-table loops run on
    its ``table(t)`` views: the forward, ``backward_segments`` over a
    random ascending partition and the update are bit for bit the
    per-table results (gradients relabelled by ``offsets[t]``), and an
    out-of-range id raises naming its table before anything changes."""
    rng = np.random.default_rng(seed)
    bag = EmbeddingBag(rows, 8, rng)
    tier = TieredEmbeddingStore(rows, 8, hot_bytes=4 * 8 * 4)
    bag.attach_tier(tier)
    tables = len(rows)
    indices = np.stack([rng.integers(0, r, size=(batch, pooling)) for r in rows], axis=1)
    if indices.size:  # every table's row 0 and last row
        indices[0, :, 0] = 0
        indices[-1, :, -1] = np.asarray(rows) - 1

    out = bag.forward(indices)
    assert out.shape == (batch, tables, 8)
    grad_output = rng.standard_normal((batch, tables, 8)).astype(np.float32)
    ref_out, ref_grad = reference_bag(bag, indices, grad_output)
    assert out.tobytes() == ref_out.tobytes()
    grad = bag.backward(grad_output)
    assert grad.indices.tobytes() == ref_grad.indices.tobytes()
    assert grad.values.tobytes() == ref_grad.values.tobytes()

    assignment = rng.integers(0, parts, size=batch)
    segments = [np.flatnonzero(assignment == s) for s in range(parts)]
    packed = grad_output[np.concatenate(segments)]
    for idx, got in zip(segments, bag.backward_segments(packed, segments), strict=True):
        _, ref = reference_bag(bag, indices[idx], grad_output[idx])
        assert got.indices.tobytes() == ref.indices.tobytes()
        assert got.values.tobytes() == ref.values.tobytes()

    expected = [bag.table(t).copy() for t in range(tables)]
    for t, table in enumerate(expected):
        part = reference_backward(indices[:, t], grad_output[:, t], 8)
        table[part.indices] -= 0.25 * part.values
    bag.apply_sparse_update(grad, 0.25)
    for t, table in enumerate(expected):
        assert bag.table(t).tobytes() == table.tobytes()

    if indices.size:
        t = int(rng.integers(0, tables))
        bad = indices.copy()
        bad[int(rng.integers(0, batch)), t, int(rng.integers(0, pooling))] = rng.choice(
            [-1, rows[t]]
        )
        weight, counters = bag.weight.copy(), (tier.hits, tier.misses, tier.resident_rows)
        for read in (bag.forward, bag.gather):
            with pytest.raises(ValueError, match=f"for table {t}$"):
                read(bad)
        assert bag.weight.tobytes() == weight.tobytes()
        assert (tier.hits, tier.misses, tier.resident_rows) == counters
        assert bag.backward(grad_output).values.tobytes() == grad.values.tobytes()


SPECIAL_VALUES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


@given(
    n=st.integers(0, 300),
    dim=st.integers(1, 33),
    num_rows=st.integers(1, 12),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=120, deadline=None)
def test_scatter_add_rows_is_bitwise_add_at(n, dim, num_rows, dtype, seed):
    """The element-indexed kernel adds each element's contributions in the
    row-indexed ``np.add.at`` order, so the bytes match over magnitudes
    where order matters: signed zeros and infinities included, and NaN in
    exactly the same elements.  Only a NaN's payload is exempt.  When two
    NaNs meet (``inf - inf`` yields x86's negative default NaN), which
    operand's payload survives is up to how numpy's compiled add loop
    orders the operands, and its row and 1-D ``ufunc.at`` loops differ."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, num_rows, size=n)  # at most 12 distinct rows
    wide = rng.standard_normal((n, 2 * dim)) * 10.0 ** rng.integers(-6, 7, (n, 2 * dim))
    special = rng.random(wide.shape) < 0.1
    wide[special] = rng.choice(SPECIAL_VALUES, size=int(special.sum()))
    values = wide.astype(dtype)[:, ::2]  # strided: every other column
    start = np.where(rng.random((num_rows, dim)) < 0.5, -0.0, 0.0).astype(dtype)
    expected = start.copy()
    np.add.at(expected, rows, values)
    out = start.copy()
    scatter_add_rows(out, rows, values)
    assert np.array_equal(np.isnan(out), np.isnan(expected))
    out[np.isnan(out)] = expected[np.isnan(expected)] = np.nan
    assert out.tobytes() == expected.tobytes()


def test_scatter_add_rows_rejects_a_non_contiguous_output():
    """Flattening a non-C-contiguous array copies it: the adds would be lost."""
    values = np.ones((2, 3))
    for out in (np.zeros((4, 6))[:, ::2], np.zeros((4, 3), order="F")):
        with pytest.raises(ValueError, match="C-contiguous"):
            scatter_add_rows(out, np.array([0, 1]), values)
        assert not out.any()


@given(st.integers(0, 1000), st.integers(1, 24))
@settings(max_examples=30, deadline=None)
def test_mlp_deterministic_given_seed(seed, batch):
    rng_data = np.random.default_rng(seed)
    x = rng_data.normal(size=(batch, 6))
    a = MLP([6, 12, 3], np.random.default_rng(seed))
    b = MLP([6, 12, 3], np.random.default_rng(seed))
    np.testing.assert_allclose(a.forward(x), b.forward(x))


@given(st.integers(0, 5000))
@settings(max_examples=40, deadline=None)
def test_auc_invariant_under_monotone_transform(seed):
    rng = np.random.default_rng(seed)
    targets = rng.integers(0, 2, size=64).astype(float)
    if targets.min() == targets.max():
        targets[0] = 1.0 - targets[0]
    scores = rng.normal(size=64)
    base = roc_auc(targets, scores)
    transformed = roc_auc(targets, 3.0 * scores + 7.0)
    np.testing.assert_allclose(base, transformed, atol=1e-12)
    sigmoid = roc_auc(targets, 1.0 / (1.0 + np.exp(-scores)))
    np.testing.assert_allclose(base, sigmoid, atol=1e-12)


@given(
    size=st.integers(1, 5000),
    values=st.lists(
        st.one_of(st.sampled_from([-np.inf, np.inf, -0.0, 0.0, np.nan]), st.floats()),
        min_size=1,
        max_size=5,
    ),
    positive_rate=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_auc_ranks_ties_as_the_loop_does(size, values, positive_rate, seed):
    """Scores drawn from a few values, so nearly every score is tied
    (infinities, signed zeros and NaN among them): the array ranking gives
    the oracle's loop's AUC bit for bit, and one class alone raises."""
    rng = np.random.default_rng(seed)
    scores = rng.choice(np.asarray(values, dtype=np.float64), size=size)
    targets = (rng.random(size) < positive_rate).astype(np.float64)
    if size > 1 and targets.min() == targets.max():
        targets[rng.integers(size)] = 1.0 - targets[0]
    if targets.min() == targets.max():
        with pytest.raises(ValueError, match="one class"):
            roc_auc(targets, scores)
        return
    assert roc_auc(targets, scores) == reference_roc_auc(targets, scores)
