"""Property-based tests of the bucketed all-reduce and the sparse routing.

The bit-parity guarantee of the K-shard trainer rests on structural
invariants of :class:`~repro.core.reducer.GradientBucketReducer`: the
per-element ring association is fixed by the partial's rank — never by how
elements are packed into buckets.  Hypothesis explores random partial
sets, bucket sizes, and packings to assert:

* **bucket-size invariance** — any ``bucket_bytes`` produces bit-identical
  reductions;
* **packing-permutation invariance** — permuting the element layout before
  reduction and un-permuting after is a no-op, bit for bit;
* **dtype preservation** — float32 partials reduce to float32 (no silent
  upcast), the ``merge_sparse_gradients`` drift class of bug;
* **mode ordering** — exposed communication obeys
  ``stale-(k+1) <= stale-k <= ... <= stale-1 <= overlap <= sync (total)``,
  with ``stale-k`` exposing exactly ``max(0, total - k * compute)`` and
  ``stale-0`` degenerating to ``sync``;
* **partition routing** — row-wise routing of a merged sparse gradient is a
  partition: concatenating the per-owner pieces reproduces the original,
  and every row lands on the shard that owns it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.placement import PartitionedEmbeddingPlacement
from repro.core.reducer import (
    WIRE_BYTES_PER_ELEMENT,
    GradientBucketReducer,
    SparseGradientExchange,
)
from repro.hwsim.cluster import single_node
from repro.nn.embedding import SparseGradient, merge_sparse_gradients

finite = st.floats(-1e6, 1e6, allow_nan=False, width=32)


@st.composite
def partial_sets(draw):
    """A list of 1..6 equal-length float64 partial gradients."""
    num_elements = draw(st.integers(min_value=1, max_value=257))
    count = draw(st.integers(min_value=1, max_value=6))
    return [
        draw(arrays(np.float64, num_elements, elements=finite))
        for _ in range(count)
    ]


@st.composite
def bucket_reducers(draw):
    bucket_elements = draw(st.integers(min_value=1, max_value=300))
    return GradientBucketReducer(4, bucket_bytes=bucket_elements * WIRE_BYTES_PER_ELEMENT)


@given(partials=partial_sets(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_bucket_size_invariance(partials, data):
    """Any two bucket sizes produce bit-identical reductions."""
    sizes = data.draw(
        st.lists(st.integers(1, 300), min_size=2, max_size=2, unique=True)
    )
    reduced = [
        GradientBucketReducer(4, bucket_bytes=size * WIRE_BYTES_PER_ELEMENT).reduce(partials)
        for size in sizes
    ]
    np.testing.assert_array_equal(reduced[0], reduced[1])


@given(partials=partial_sets(), reducer=bucket_reducers(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_packing_permutation_invariance(partials, reducer, data):
    """Shuffling the element packing and unshuffling after is a no-op."""
    num_elements = partials[0].shape[0]
    seed = data.draw(st.integers(0, 2**32 - 1))
    permutation = np.random.default_rng(seed).permutation(num_elements)
    inverse = np.argsort(permutation)
    direct = reducer.reduce(partials)
    permuted = reducer.reduce([partial[permutation] for partial in partials])
    np.testing.assert_array_equal(permuted[inverse], direct)


@given(partials=partial_sets(), reducer=bucket_reducers())
@settings(max_examples=60, deadline=None)
def test_reduction_matches_elementwise_sum(partials, reducer):
    """The reduced value is the element-wise sum, to float tolerance."""
    reduced = reducer.reduce(partials)
    np.testing.assert_allclose(
        reduced, np.sum(partials, axis=0), rtol=1e-12, atol=1e-6
    )


@given(partials=partial_sets(), reducer=bucket_reducers())
@settings(max_examples=40, deadline=None)
def test_float32_partials_reduce_to_float32(partials, reducer):
    """The wire dtype survives the reduction — no silent float64 upcast."""
    down = [partial.astype(np.float32) for partial in partials]
    reduced = reducer.reduce(down)
    assert reduced.dtype == np.float32


@given(
    num_elements=st.integers(1, 4096),
    bucket_elements=st.integers(1, 1024),
    compute=st.floats(0.0, 1.0, allow_nan=False),
    staleness=st.integers(1, 6),
)
@settings(max_examples=60, deadline=None)
def test_mode_exposure_ordering(num_elements, bucket_elements, compute, staleness):
    """Deeper staleness exposes less: stale-(k+1) <= stale-k <= overlap <= sync."""
    cluster = single_node(4)

    def reducer(mode):
        return GradientBucketReducer(
            4,
            bucket_bytes=bucket_elements * WIRE_BYTES_PER_ELEMENT,
            mode=mode,
            cluster=cluster,
        )

    times = reducer("sync").bucket_times(num_elements)
    total = float(sum(times))
    exposed = {}
    modes = ("sync", "overlap", f"stale-{staleness}", f"stale-{staleness + 1}")
    for mode in modes:
        # The wire time itself is mode-independent.
        assert reducer(mode).bucket_times(num_elements) == times
        exposed[mode] = reducer(mode).comm_schedule(times).exposed_time(compute)
    assert exposed["sync"] == total
    # stale-k pipelines the reduce behind k compute windows; the remainder
    # is exposed, so staleness buys exposure down monotonically.
    stale_k = exposed[f"stale-{staleness}"]
    stale_deeper = exposed[f"stale-{staleness + 1}"]
    assert stale_k == max(0.0, total - staleness * compute)
    assert stale_deeper <= stale_k <= exposed["overlap"] + 1e-15
    assert 0.0 <= exposed["overlap"] <= total + 1e-15
    # A compute window covering the whole wire time hides stale-1 entirely
    # (the PR 3 behaviour); stale-0 is sync by definition.
    assert reducer("stale-1").comm_schedule(times).exposed_time(total) == 0.0
    assert reducer("stale-0").comm_schedule(times).exposed_time(compute) == total


@st.composite
def merged_gradients(draw):
    """A sorted-unique-index sparse gradient plus a table size bounding it."""
    rows = draw(st.integers(min_value=1, max_value=500))
    nnz = draw(st.integers(min_value=0, max_value=min(rows, 64)))
    indices = draw(
        st.lists(
            st.integers(0, rows - 1), min_size=nnz, max_size=nnz, unique=True
        )
    )
    indices = np.array(sorted(indices), dtype=np.int64)
    values = draw(
        arrays(np.float64, (nnz, 4), elements=st.floats(-100, 100, allow_nan=False))
    )
    return rows, SparseGradient(indices, values)


@given(merged=merged_gradients(), num_shards=st.integers(1, 7))
@settings(max_examples=60, deadline=None)
def test_partition_routing_is_a_partition(merged, num_shards):
    """Routed pieces concatenate back to the original, owners respected."""
    rows, grad = merged
    partition = PartitionedEmbeddingPlacement(
        rows_per_table=(rows,), num_shards=num_shards, embedding_dim=4
    )
    routed = partition.route_gradient(grad)
    assert len(routed) == num_shards
    np.testing.assert_array_equal(
        np.concatenate([piece.indices for piece in routed]), grad.indices
    )
    np.testing.assert_array_equal(
        np.concatenate([piece.values for piece in routed], axis=0), grad.values
    )
    for shard, piece in enumerate(routed):
        if piece.nnz:
            assert set(np.unique(partition.owner_of(0, piece.indices))) == {shard}
    # Ownership covers every row exactly once.
    assert partition.owned_row_count(num_shards - 1) >= 0
    assert sum(partition.owned_row_count(k) for k in range(num_shards)) == rows


@given(merged=merged_gradients(), num_shards=st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_exchange_round_trip_preserves_merge(merged, num_shards):
    """Exchanging split partials reproduces the plain merged gradient."""
    rows, grad = merged
    partition = PartitionedEmbeddingPlacement(
        rows_per_table=(rows,), num_shards=num_shards, embedding_dim=4
    )
    pieces = partition.route_gradient(grad)
    exchange = SparseGradientExchange(partition=partition)
    merged_back = exchange.exchange(pieces)
    reference = merge_sparse_gradients(pieces)
    np.testing.assert_array_equal(merged_back.indices, reference.indices)
    np.testing.assert_array_equal(merged_back.values, reference.values)
    np.testing.assert_array_equal(merged_back.indices, grad.indices)
