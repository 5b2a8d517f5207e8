"""The flat key space of the sparse path, at its boundaries.

A model's sparse gradient is one ``SparseGradient`` whose keys are
``offsets[t] + row``.  The risky spots are where two tables meet (the last
row of table ``t`` is the key right before row 0 of table ``t + 1``),
1-row tables, tables a gradient does not touch, and ids outside a table:
with flat keys a wrapped id would name a neighbouring table's row.  These
tests pin each one against the test oracle's sequential µ-batch models and
each table's own lookups.
"""

import numpy as np
import pytest

from repro.core.pipeline import HotlineTrainer
from repro.data.batch import MiniBatch
from repro.data.datasets import DatasetSpec
from repro.data.loader import MiniBatchLoader
from repro.data.synthetic import generate_click_log
from repro.models.configs import ModelConfig
from repro.models.dlrm import DLRM
from repro.models.tbsm import TBSM
from repro.nn.embedding import key_offsets
from tests.oracle import SequentialDLRM, SequentialTBSM

#: Small tables, one of a single row, so keys of different tables sit
#: side by side: table 1's only row is key 7, between table 0's last row
#: (key 6) and table 2's row 0 (key 8).
ROWS = (7, 1, 5, 3)


def make_config(model_cls, pooling: int) -> ModelConfig:
    dataset = DatasetSpec(
        name="flat-keys",
        num_dense=2,
        rows_per_table=ROWS,
        pooling=pooling,
        zipf_alpha=1.2,
        samples_per_epoch=64,
        time_series_length=pooling if model_cls is TBSM else 1,
    )
    return ModelConfig(
        name="flat-keys",
        dataset=dataset,
        embedding_dim=4,
        bottom_mlp="2-4",
        top_mlp="6-1",
        uses_attention=model_cls is TBSM,
    )


def boundary_batch(pooling: int, size: int = 16, seed: int = 0) -> MiniBatch:
    """Random ids plus, in every table, row 0 and the last row."""
    rng = np.random.default_rng(seed)
    sparse = np.stack(
        [rng.integers(0, rows, size=(size, pooling)) for rows in ROWS], axis=1
    )
    sparse[0, :, 0] = 0
    sparse[1, :, -1] = np.asarray(ROWS) - 1
    dense = rng.normal(size=(size, 2)).astype(np.float32)
    labels = (rng.random(size) < 0.5).astype(np.float32)
    return MiniBatch(dense=dense, sparse=sparse, labels=labels)


def random_segments(size: int, parts: int, rng) -> list[np.ndarray]:
    assignment = rng.integers(0, parts, size=size)
    assignment[:parts] = np.arange(parts)  # every segment non-empty
    return [np.flatnonzero(assignment == s) for s in range(parts)]


@pytest.mark.parametrize("num_segments", [1, 2, 3, 8])
@pytest.mark.parametrize("pooling", [1, 3])
@pytest.mark.parametrize(
    "model_cls, oracle_cls", [(DLRM, SequentialDLRM), (TBSM, SequentialTBSM)]
)
def test_fused_flat_gradients_match_the_oracle_per_table(
    model_cls, oracle_cls, pooling, num_segments
):
    """Each segment's flat gradient from the one fused scatter is
    byte-equal to the oracle's per-µ-batch gradient, and table by table
    its keys are exactly the segment's lookups of that table."""
    config = make_config(model_cls, pooling)
    batch = boundary_batch(pooling)
    segments = random_segments(batch.size, num_segments, np.random.default_rng(num_segments))
    fused, oracle = model_cls(config, seed=4), oracle_cls(config, seed=4)
    fused.zero_grad()
    oracle.zero_grad()
    losses, partials = fused.fused_loss_and_gradients(batch, segments, normalizer=batch.size)
    ref_losses, ref_partials = oracle.fused_loss_and_gradients(
        batch, segments, normalizer=batch.size
    )
    assert losses == ref_losses
    assert len(partials) == len(ref_partials) == num_segments
    offsets = key_offsets(ROWS)
    for idx, grad, ref in zip(segments, partials, ref_partials, strict=True):
        keys = grad.indices
        assert np.all(keys[1:] > keys[:-1])  # sorted, unique
        assert keys[0] >= 0 and keys[-1] < sum(ROWS)
        assert keys.tobytes() == ref.indices.tobytes()
        assert grad.values.tobytes() == ref.values.tobytes()
        for t, rows in enumerate(ROWS):
            # Every table's keys are exactly the segment's lookups of it.
            in_table = keys[(keys >= offsets[t]) & (keys < offsets[t] + rows)]
            np.testing.assert_array_equal(
                in_table - offsets[t], np.unique(batch.sparse[idx, t, :])
            )
        # The 1-row table's only row is the key between its neighbours.
        assert offsets[1] in keys


def model_and_batch(model_cls, table: int, bad: int):
    config = make_config(model_cls, pooling=3)
    batch = boundary_batch(3)
    batch.sparse[2, table, 1] = bad
    return model_cls(config, seed=1), batch


@pytest.mark.parametrize("bad_row", ["negative", "past_end"])
@pytest.mark.parametrize("model_cls, table", [(DLRM, 2), (TBSM, 0), (TBSM, 2)])
def test_out_of_range_sparse_ids_raise_and_update_nothing(model_cls, table, bad_row):
    """An id outside its table raises ``ValueError`` naming the table —
    numpy would wrap ``-1`` to the table's last row, and in flat keys to
    the previous table's last row — and no parameter moves."""
    bad = -1 if bad_row == "negative" else ROWS[table]
    model, batch = model_and_batch(model_cls, table, bad)
    before = model.state_snapshot()
    with pytest.raises(ValueError, match=f"for table {table}$"):
        model.train_step(batch, lr=0.5)
    after = model.state_snapshot()
    assert all(np.array_equal(before[key], after[key]) for key in before)

    model, batch = model_and_batch(model_cls, table, bad)
    config = model.config
    trainer = HotlineTrainer(model, sample_fraction=0.5)
    trainer.bind(MiniBatchLoader(generate_click_log(config.dataset, 64, seed=2), batch_size=16))
    before = model.state_snapshot()
    with pytest.raises(ValueError, match=f"for table {table}$"):
        trainer.train_step(batch)
    after = model.state_snapshot()
    assert all(np.array_equal(before[key], after[key]) for key in before)
