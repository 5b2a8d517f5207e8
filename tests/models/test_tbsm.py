"""Unit tests for the TBSM time-series model."""

import numpy as np
import pytest

from repro.data.loader import MiniBatchLoader
from repro.models.tbsm import TBSM
from repro.nn.metrics import roc_auc
from tests.helpers import backward_gradients, rejected_forward


def test_requires_attention_config(tiny_model_config):
    with pytest.raises(ValueError):
        TBSM(tiny_model_config)


def test_top_mlp_must_end_in_one_logit(tiny_ts_model_config):
    from dataclasses import replace

    with pytest.raises(ValueError, match="one logit, not 2$"):
        TBSM(replace(tiny_ts_model_config, top_mlp="12-2"))


def test_forward_shape(tiny_tbsm, tiny_ts_click_log):
    logits = tiny_tbsm.forward(tiny_ts_click_log.batch(0, 16))
    assert logits.shape == (16,)


def test_predict_probabilities(tiny_tbsm, tiny_ts_click_log):
    probs = tiny_tbsm.predict(tiny_ts_click_log.batch(0, 8))
    assert np.all((probs > 0) & (probs < 1))


def test_backward_before_forward_raises(tiny_tbsm):
    with pytest.raises(RuntimeError):
        tiny_tbsm.backward(np.zeros(4))


def test_loss_and_gradients_per_table(tiny_tbsm, tiny_ts_click_log):
    batch = tiny_ts_click_log.batch(0, 32)
    loss, grad = tiny_tbsm.loss_and_gradients(batch)
    assert loss > 0
    # The history table (table 0, keys below its row count) receives
    # gradient for each step's lookup.
    history = grad.indices[grad.indices < tiny_tbsm.config.dataset.rows_per_table[0]]
    np.testing.assert_array_equal(history, np.unique(batch.sparse[:, 0, :]))


def test_train_step_reduces_loss(tiny_ts_model_config, tiny_ts_click_log):
    model = TBSM(tiny_ts_model_config, seed=1)
    batch = tiny_ts_click_log.batch(0, 128)
    first = model.train_step(batch, lr=0.1)
    for _ in range(30):
        last = model.train_step(batch, lr=0.1)
    assert last < first


def test_training_improves_auc(tiny_ts_model_config, tiny_ts_click_log):
    model = TBSM(tiny_ts_model_config, seed=2)
    loader = MiniBatchLoader(tiny_ts_click_log, batch_size=128)
    eval_batch = tiny_ts_click_log.batch(768, 256)
    before = roc_auc(eval_batch.labels, model.predict(eval_batch))
    for _epoch in range(3):
        for batch in loader:
            model.train_step(batch, lr=0.1)
    after = roc_auc(eval_batch.labels, model.predict(eval_batch))
    assert after > before


def test_parameter_counts(tiny_tbsm):
    assert tiny_tbsm.num_dense_parameters > 0
    assert tiny_tbsm.num_sparse_parameters > 0


def test_state_snapshot_keys(tiny_tbsm):
    snapshot = tiny_tbsm.state_snapshot()
    assert any(key.startswith("table_") for key in snapshot)
    assert any(key.startswith("dense_") for key in snapshot)


@pytest.mark.parametrize("between_size", [64, 48], ids=["same-size", "other-size"])
def test_predict_between_forward_and_backward_leaves_the_gradients(
    tiny_ts_model_config, tiny_ts_click_log, between_size
):
    """``predict`` stores nothing on the model, so a forward → predict
    (another batch) → backward gives the gradients of forward → backward,
    bit for bit, whether or not the predicted batch has the same size."""
    batch = tiny_ts_click_log.batch(0, 64)
    other = tiny_ts_click_log.batch(256, between_size)
    expected = backward_gradients(TBSM(tiny_ts_model_config, seed=2), batch)
    got = backward_gradients(
        TBSM(tiny_ts_model_config, seed=2), batch, between=lambda model: model.predict(other)
    )
    assert got == expected


@pytest.mark.parametrize("fault", ["id", "tables", "dense"])
def test_rejected_forward_between_forward_and_backward_leaves_the_gradients(
    tiny_ts_model_config, tiny_ts_click_log, fault
):
    """The model checks the dense width and the bag the id block before
    any layer caches the batch, so a forward rejected for an out-of-range
    id, a missing table or a missing dense column leaves the earlier
    forward's gradients as they were, bit for bit."""
    batch = tiny_ts_click_log.batch(0, 64)
    between = rejected_forward(
        tiny_ts_click_log.batch(256, 64), tiny_ts_model_config.dataset.rows_per_table, fault
    )
    expected = backward_gradients(TBSM(tiny_ts_model_config, seed=2), batch)
    got = backward_gradients(TBSM(tiny_ts_model_config, seed=2), batch, between=between)
    assert got == expected
