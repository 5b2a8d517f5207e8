"""Property-based tests of the collective cost primitives.

The schedule layer (:mod:`repro.core.schedule`) treats every
``*_time`` primitive in :mod:`repro.hwsim.collectives` as a pricing
oracle, so the layer's orderings (deeper staleness never exposes more,
bigger buckets never cost less) only hold if the primitives themselves
are **monotone**:

* every primitive is non-decreasing in its payload (bytes, or rows and
  row-bytes for the embedding kinds);
* the peer-to-peer collectives (all-reduce, tree all-reduce, all-to-all,
  broadcast, hierarchical all-reduce) are non-decreasing in the
  participant count — more peers, more hops;
* the embedding kinds (``embedding_alltoall_time``, ``cache_fill_time``)
  are deliberately **excluded** from participant monotonicity: their
  per-device payload is ``rows * row_bytes / p``, so the bandwidth term
  *shrinks* as ``(p - 1) / p²`` while only the latency term grows —
  adding shards can genuinely cheapen the exchange.

Hypothesis explores random links, payload pairs, and participant pairs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hwsim.collectives import (
    allreduce_time,
    alltoall_time,
    broadcast_time,
    cache_fill_time,
    embedding_alltoall_time,
    hierarchical_allreduce_time,
    tree_allreduce_time,
)
from repro.hwsim.dma import DMAEngine
from repro.hwsim.interconnect import Link

links = st.builds(
    Link,
    name=st.just("test-link"),
    bandwidth=st.floats(1e6, 1e12, allow_nan=False),
    latency_s=st.floats(0.0, 1e-3, allow_nan=False),
)

payloads = st.floats(0.0, 1e12, allow_nan=False)
participant_counts = st.integers(1, 4096)

#: Collectives priced as (num_bytes, participants, link).
PEER_COLLECTIVES = [
    allreduce_time,
    tree_allreduce_time,
    alltoall_time,
    broadcast_time,
]


@given(
    link=links,
    bytes_pair=st.tuples(payloads, payloads),
    participants=participant_counts,
)
@settings(max_examples=80, deadline=None)
def test_peer_collectives_monotone_in_bytes(link, bytes_pair, participants):
    """More payload never costs less, for every peer collective."""
    low, high = sorted(bytes_pair)
    for collective in PEER_COLLECTIVES:
        assert collective(low, participants, link) <= collective(high, participants, link)


@given(
    link=links,
    num_bytes=payloads,
    participant_pair=st.tuples(participant_counts, participant_counts),
)
@settings(max_examples=80, deadline=None)
def test_peer_collectives_monotone_in_participants(link, num_bytes, participant_pair):
    """More peers never cost less, for every peer collective."""
    low, high = sorted(participant_pair)
    for collective in PEER_COLLECTIVES:
        assert collective(num_bytes, low, link) <= collective(num_bytes, high, link)


@given(
    intra=links,
    inter=links,
    bytes_pair=st.tuples(payloads, payloads),
    gpus=st.tuples(st.integers(1, 64), st.integers(1, 64)),
    nodes=st.tuples(st.integers(1, 256), st.integers(1, 256)),
)
@settings(max_examples=80, deadline=None)
def test_hierarchical_allreduce_monotone(intra, inter, bytes_pair, gpus, nodes):
    """Hierarchical all-reduce is monotone in bytes and both level widths."""
    low_bytes, high_bytes = sorted(bytes_pair)
    low_gpus, high_gpus = sorted(gpus)
    low_nodes, high_nodes = sorted(nodes)
    assert hierarchical_allreduce_time(
        low_bytes, low_gpus, low_nodes, intra, inter
    ) <= hierarchical_allreduce_time(high_bytes, high_gpus, high_nodes, intra, inter)


@given(
    link=links,
    rows_pair=st.tuples(payloads, payloads),
    row_bytes=st.floats(1.0, 4096.0, allow_nan=False),
    participants=participant_counts,
)
@settings(max_examples=80, deadline=None)
def test_embedding_kinds_monotone_in_rows(link, rows_pair, row_bytes, participants):
    """The row-based kinds are monotone in the row count."""
    low, high = sorted(rows_pair)
    assert embedding_alltoall_time(
        low, row_bytes, participants, link
    ) <= embedding_alltoall_time(high, row_bytes, participants, link)
    dma = DMAEngine()
    assert cache_fill_time(low, row_bytes, participants, link, dma=dma) <= cache_fill_time(
        high, row_bytes, participants, link, dma=dma
    )


@given(
    link=links,
    rows=st.floats(1.0, 1e9, allow_nan=False),
    row_bytes_pair=st.tuples(
        st.floats(0.0, 4096.0, allow_nan=False), st.floats(0.0, 4096.0, allow_nan=False)
    ),
    participants=participant_counts,
)
@settings(max_examples=80, deadline=None)
def test_embedding_kinds_monotone_in_row_bytes(link, rows, row_bytes_pair, participants):
    """The row-based kinds are monotone in the bytes per row."""
    low, high = sorted(row_bytes_pair)
    assert embedding_alltoall_time(
        rows, low, participants, link
    ) <= embedding_alltoall_time(rows, high, participants, link)
    assert cache_fill_time(rows, low, participants, link) <= cache_fill_time(
        rows, high, participants, link
    )


@given(link=links, participants=participant_counts)
@settings(max_examples=40, deadline=None)
def test_zero_payload_prices_to_zero(link, participants):
    """Nothing to move costs nothing, for every kind."""
    for collective in PEER_COLLECTIVES:
        assert collective(0.0, participants, link) == 0.0
    assert embedding_alltoall_time(0.0, 64.0, participants, link) == 0.0
    assert cache_fill_time(0.0, 64.0, participants, link) == 0.0
    assert hierarchical_allreduce_time(0.0, 4, participants, link, link) == 0.0
