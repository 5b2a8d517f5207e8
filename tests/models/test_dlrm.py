"""Unit tests for the DLRM model: shapes, gradients, and training behaviour."""

import numpy as np
import pytest

from repro.data.loader import MiniBatchLoader
from repro.models.dlrm import DLRM
from repro.nn.embedding import SparseGradient, key_offsets
from repro.nn.metrics import roc_auc
from tests.helpers import backward_gradients, rejected_forward


def test_forward_shape(tiny_dlrm, tiny_click_log):
    batch = tiny_click_log.batch(0, 32)
    logits = tiny_dlrm.forward(batch)
    assert logits.shape == (32,)


def test_predict_probabilities(tiny_dlrm, tiny_click_log):
    probs = tiny_dlrm.predict(tiny_click_log.batch(0, 16))
    assert np.all((probs > 0) & (probs < 1))


def test_mismatched_batch_raises(tiny_dlrm, tiny_ts_click_log):
    with pytest.raises(ValueError):
        tiny_dlrm.forward(tiny_ts_click_log.batch(0, 8))


def test_backward_before_forward_raises(tiny_dlrm):
    with pytest.raises(RuntimeError):
        tiny_dlrm.backward(np.zeros(4))


def test_bottom_mlp_must_match_dense_features(tiny_model_config):
    from dataclasses import replace

    bad = replace(tiny_model_config, bottom_mlp="5-16-8")
    with pytest.raises(ValueError):
        DLRM(bad)


def test_bottom_mlp_must_end_at_embedding_dim(tiny_model_config):
    from dataclasses import replace

    bad = replace(tiny_model_config, bottom_mlp="4-16-4")
    with pytest.raises(ValueError):
        DLRM(bad)


@pytest.mark.parametrize("top_mlp", ["16-2", "16-8-4"])
def test_top_mlp_must_end_in_one_logit(tiny_model_config, top_mlp):
    """A wider output would score each sample more than once; the model
    refuses it at construction, naming the width."""
    from dataclasses import replace

    width = top_mlp.rsplit("-", 1)[1]
    with pytest.raises(ValueError, match=f"one logit, not {width}$"):
        DLRM(replace(tiny_model_config, top_mlp=top_mlp))


def test_loss_and_gradients_returns_one_grad_per_table(tiny_dlrm, tiny_click_log):
    """One flat-keyed gradient whose keys are exactly the batch's lookups,
    row ``r`` of table ``t`` as ``offsets[t] + r``."""
    batch = tiny_click_log.batch(0, 32)
    loss, grad = tiny_dlrm.loss_and_gradients(batch)
    assert loss > 0
    offsets = key_offsets(tiny_dlrm.config.dataset.rows_per_table)
    np.testing.assert_array_equal(grad.indices, np.unique(batch.sparse + offsets[:, None]))


def test_normalizer_scales_gradients(tiny_dlrm, tiny_click_log):
    batch = tiny_click_log.batch(0, 32)
    tiny_dlrm.zero_grad()
    _, grads_sum = tiny_dlrm.loss_and_gradients(batch)
    summed_dense = [grad.copy() for _, grad in tiny_dlrm.dense_parameters()]
    tiny_dlrm.zero_grad()
    _, grads_mean = tiny_dlrm.loss_and_gradients(batch, normalizer=32)
    for (_, grad), summed in zip(tiny_dlrm.dense_parameters(), summed_dense, strict=True):
        np.testing.assert_allclose(grad * 32, summed, rtol=1e-10)
    np.testing.assert_allclose(grads_mean.values * 32, grads_sum.values, rtol=1e-10)


def test_invalid_normalizer_raises(tiny_dlrm, tiny_click_log):
    with pytest.raises(ValueError):
        tiny_dlrm.loss_and_gradients(tiny_click_log.batch(0, 8), normalizer=0)


def test_train_step_reduces_loss(tiny_model_config, tiny_click_log):
    model = DLRM(tiny_model_config, seed=1)
    batch = tiny_click_log.batch(0, 256)
    first = model.train_step(batch, lr=0.1)
    for _ in range(30):
        last = model.train_step(batch, lr=0.1)
    assert last < first


def test_training_improves_auc_on_held_out_data(tiny_model_config, tiny_click_log):
    model = DLRM(tiny_model_config, seed=2)
    loader = MiniBatchLoader(tiny_click_log, batch_size=128)
    eval_batch = tiny_click_log.batch(1536, 512)
    before = roc_auc(eval_batch.labels, model.predict(eval_batch))
    for _epoch in range(3):
        for batch in loader:
            model.train_step(batch, lr=0.1)
    after = roc_auc(eval_batch.labels, model.predict(eval_batch))
    assert after > before
    assert after > 0.55


def test_parameter_counts(tiny_dlrm, tiny_model_config):
    assert tiny_dlrm.num_sparse_parameters == (
        sum(tiny_model_config.dataset.rows_per_table) * tiny_model_config.embedding_dim
    )
    assert tiny_dlrm.num_dense_parameters > 0


def test_state_snapshot_is_a_copy(tiny_dlrm, tiny_click_log):
    snapshot = tiny_dlrm.state_snapshot()
    tiny_dlrm.train_step(tiny_click_log.batch(0, 64), lr=0.5)
    after = tiny_dlrm.state_snapshot()
    changed = any(not np.allclose(snapshot[k], after[k]) for k in snapshot)
    assert changed


def test_apply_sparse_updates_requires_one_grad_per_table(tiny_dlrm):
    """The flat-keyed gradient must stay inside the model's key space: a
    key below 0 or past the last table's last row raises, and nothing is
    updated."""
    total = tiny_dlrm.config.dataset.total_rows
    before = tiny_dlrm.state_snapshot()
    for key in (-1, total):
        values = np.ones((2, tiny_dlrm.config.embedding_dim), dtype=np.float32)
        grad = SparseGradient(np.array([0, key], dtype=np.int64), values)
        with pytest.raises(ValueError, match="outside"):
            tiny_dlrm.apply_sparse_updates(grad, lr=0.1)
    after = tiny_dlrm.state_snapshot()
    assert all(np.array_equal(before[k], after[k]) for k in before)


@pytest.mark.parametrize("between_size", [64, 48], ids=["same-size", "other-size"])
def test_predict_between_forward_and_backward_leaves_the_gradients(
    tiny_model_config, tiny_click_log, between_size
):
    """``predict`` stores nothing on the model, so a forward → predict
    (another batch) → backward gives the gradients of forward → backward,
    bit for bit, whether or not the predicted batch has the same size."""
    batch = tiny_click_log.batch(0, 64)
    other = tiny_click_log.batch(256, between_size)
    expected = backward_gradients(DLRM(tiny_model_config, seed=2), batch)
    got = backward_gradients(
        DLRM(tiny_model_config, seed=2), batch, between=lambda model: model.predict(other)
    )
    assert got == expected


@pytest.mark.parametrize("fault", ["id", "tables", "dense"])
def test_rejected_forward_between_forward_and_backward_leaves_the_gradients(
    tiny_model_config, tiny_click_log, fault
):
    """The model checks the dense width and the bag the id block before
    any layer caches the batch, so a forward rejected for an out-of-range
    id, a missing table or a missing dense column leaves the earlier
    forward's gradients as they were, bit for bit."""
    batch = tiny_click_log.batch(0, 64)
    between = rejected_forward(
        tiny_click_log.batch(256, 64), tiny_model_config.dataset.rows_per_table, fault
    )
    expected = backward_gradients(DLRM(tiny_model_config, seed=2), batch)
    got = backward_gradients(DLRM(tiny_model_config, seed=2), batch, between=between)
    assert got == expected
