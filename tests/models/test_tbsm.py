"""Unit tests for the TBSM time-series model."""

import numpy as np
import pytest

from repro.data.loader import MiniBatchLoader
from repro.models.tbsm import TBSM
from repro.nn.embedding import split_by_table
from repro.nn.metrics import roc_auc
from tests.helpers import backward_gradients


def test_requires_attention_config(tiny_model_config):
    with pytest.raises(ValueError):
        TBSM(tiny_model_config)


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
    loss, grad = tiny_tbsm.loss_and_gradients(tiny_ts_click_log.batch(0, 32))
    assert loss > 0
    grads = split_by_table(grad, tiny_tbsm.config.dataset.rows_per_table)
    assert len(grads) == len(tiny_tbsm.tables)
    # The history table (table 0) receives gradient for each step's lookup.
    assert grads[0].nnz > 0


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
    between = tiny_ts_click_log.batch(256, between_size)
    expected = backward_gradients(TBSM(tiny_ts_model_config, seed=2), batch)
    got = backward_gradients(TBSM(tiny_ts_model_config, seed=2), batch, between=between)
    assert got == expected
