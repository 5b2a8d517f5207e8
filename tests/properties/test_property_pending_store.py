"""Property: the flat pending store matches the dict reference, call by call.

:class:`~repro.core.lookahead.FlatPendingStore` keeps every table's
deferred rows in one flat key space (row ``r`` of table ``t`` is key
``offsets[t] + r``).  Random sequences of multi-table defers, aged
flushes and takes — with duplicate and unsorted keys, which take the
store's duplicate-safe path, two defers at one step, and staleness bounds
0-4 — must leave it indistinguishable from the test oracle's
``ReferencePendingStore``: the same flushed keys, bytes and birth steps
after every call.  Its byte count must equal the arrays it holds.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lookahead import FlatPendingStore
from repro.nn.embedding import SparseGradient
from tests.oracle import ReferencePendingStore

#: Three tables, one of a single row: 13 flat keys.
ROWS = (5, 1, 7)
NUM_KEYS = sum(ROWS)
DIM = 3

keys = st.integers(0, NUM_KEYS - 1)
operation = st.one_of(
    # Defer: any keys (duplicates, any order), at the same step or the next.
    st.tuples(st.just("defer"), st.lists(keys, min_size=1, max_size=10), st.booleans()),
    st.tuples(st.just("aged"), st.integers(0, 4)),
    st.tuples(st.just("take"), st.lists(keys, max_size=8, unique=True)),
    st.tuples(st.just("take_all")),
)


def assert_same(flat: SparseGradient, ref: SparseGradient) -> None:
    assert flat.indices.tobytes() == ref.indices.tobytes()
    assert flat.values.tobytes() == ref.values.tobytes()


@given(ops=st.lists(operation, min_size=1, max_size=40), seed=st.integers(0, 2**16))
@settings(max_examples=150, deadline=None)
def test_flat_store_matches_the_dict_reference(ops, seed):
    rng = np.random.default_rng(seed)
    flat, ref = FlatPendingStore(), ReferencePendingStore()
    step = 0
    for op in ops:
        if op[0] == "defer":
            _, indices, next_step = op
            step += int(next_step)
            grad = SparseGradient(
                np.asarray(indices, dtype=np.int64), rng.normal(size=(len(indices), DIM))
            )
            flat.defer(grad, step)
            ref.defer(grad, step)
        elif op[0] == "aged":
            aged = flat.aged_rows(step, op[1])
            np.testing.assert_array_equal(aged, ref.aged_rows(step, op[1]))
            assert_same(flat.take(aged), ref.take(aged))
        elif op[0] == "take":
            probe = np.asarray(sorted(op[1]), dtype=np.int64)
            np.testing.assert_array_equal(flat.pending_mask(probe), ref.pending_mask(probe))
            assert_same(flat.take(probe), ref.take(probe))
        else:
            assert_same(flat.take_all(), ref.take_all())
        assert flat.total_pending == ref.total_pending
        assert flat.birth_steps() == ref.birth_steps()
        # The bytes counted are the arrays held: an int64 key, an int64
        # birth step and a float64 value row per pending key, 0 when empty.
        assert flat.pending_bytes == flat.total_pending * (16 + DIM * 8)
    assert_same(flat.take_all(), ref.take_all())
    assert flat.pending_bytes == 0
