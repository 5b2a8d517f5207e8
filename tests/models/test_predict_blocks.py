"""``predict`` scores a batch in certified row blocks and keeps the bits
of ``predicted_probabilities(forward(batch))``.

Each block of :data:`~repro.nn.gemm.INFER_BLOCK_ROWS` rows runs the bottom
MLP, the per-row layers and the top MLP up to its first ``Linear`` not
certified at that height; that ``Linear`` and the rest run once over all
rows.  A short tail joins the last block, and an uncertified bottom-MLP
shape makes the whole batch one block.
"""

import numpy as np
import pytest

from repro.data import generate_click_log
from repro.data.batch import MiniBatch
from repro.models.dlrm import DLRM
from repro.models.tbsm import TBSM
from repro.nn import gemm
from repro.nn.gemm import INFER_BLOCK_ROWS as H
from repro.nn.layers import Linear
from repro.nn.loss import predicted_probabilities

#: Around one and two blocks, a tail, and 2,049 rows, a pass that a
#: two-thread BLAS splits at row 1,025, off the block grid.
SIZES = [0, 1, H - 1, H, H + 1, 2 * H - 1, 2 * H, 2 * H + 1, 4 * H + 7, 2049, 4096]


@pytest.fixture(scope="module")
def trained(scaled_rm2, tiny_ts_model_config):
    """A DLRM over RM2 (scaled) and a TBSM over the tiny time-series
    config, each trained three steps, with a 4,096-sample click log."""
    models = {}
    for name, cls, config in (("dlrm", DLRM, scaled_rm2), ("tbsm", TBSM, tiny_ts_model_config)):
        log = generate_click_log(config.dataset, 4096, seed=5)
        model = cls(config, seed=3)
        for step in range(3):
            model.train_step(log.batch(step * 128, 128), lr=0.1)
        models[name] = model, log
    return models


def linears(mlp) -> list[Linear]:
    return [layer for layer in mlp.layers if isinstance(layer, Linear)]


def spy_rows(monkeypatch, owner) -> list[int]:
    """Record the row count of every ``owner.infer`` call."""
    rows: list[int] = []
    infer = owner.infer

    def recording(x, *args):
        rows.append(x.shape[0])
        return infer(x, *args)

    monkeypatch.setattr(owner, "infer", recording)
    return rows


def never_packed(monkeypatch, linear: Linear) -> None:
    """Make ``linear``'s forward GEMM shape uncertified at every height."""
    key = (linear.in_features, linear.out_features, np.dtype(linear.weight.dtype).str, False)
    monkeypatch.setitem(gemm._STABLE_FROM, key, gemm.NEVER_PACKED)


def assert_predict_keeps_the_bits(model, batch) -> None:
    expected = predicted_probabilities(model.forward(batch))
    assert model.predict(batch).tobytes() == expected.tobytes()


def block_rows(rows: int) -> list[int]:
    blocks = max(1, rows // H)
    return [H] * (blocks - 1) + [rows - (blocks - 1) * H]


@pytest.mark.parametrize("rows", SIZES)
@pytest.mark.parametrize("name", ["dlrm", "tbsm"])
def test_predict_keeps_the_bits_of_forward(trained, monkeypatch, name, rows):
    """At every size around the block height, ``predict`` equals
    ``predicted_probabilities(forward(batch))`` bit for bit; the blocks are
    at least ``H`` rows (the tail merged), and the logit layer, which
    never certifies, runs once over all rows."""
    model, log = trained[name]
    bottom_rows = spy_rows(monkeypatch, model.bottom_mlp.layers[0])
    logit_rows = spy_rows(monkeypatch, linears(model.top_mlp)[-1])
    assert_predict_keeps_the_bits(model, log.batch(0, rows))
    # forward ran first, over the whole batch.
    assert bottom_rows == [rows] + block_rows(rows)
    assert logit_rows == [rows, rows]


@pytest.mark.parametrize("name", ["dlrm", "tbsm"])
def test_uncertified_bottom_shape_scores_the_batch_as_one_block(trained, monkeypatch, name):
    model, log = trained[name]
    never_packed(monkeypatch, linears(model.bottom_mlp)[-1])
    bottom_rows = spy_rows(monkeypatch, model.bottom_mlp.layers[0])
    assert_predict_keeps_the_bits(model, log.batch(0, 4096))
    assert bottom_rows == [4096, 4096]


@pytest.mark.parametrize("name", ["dlrm", "tbsm"])
def test_uncertified_hidden_top_shape_ends_the_blocked_prefix(trained, monkeypatch, name):
    """The first top-MLP ``Linear`` does not certify: the blocks stop
    before it, at the interaction or attention output, so the bottom MLP
    still runs per block and every top layer runs once over all rows."""
    model, log = trained[name]
    first = linears(model.top_mlp)[0]
    shape = (first.in_features, first.out_features)
    # A bottom layer of that shape would make the whole batch one block.
    assert shape not in [(lin.in_features, lin.out_features) for lin in linears(model.bottom_mlp)]
    never_packed(monkeypatch, first)
    bottom_rows = spy_rows(monkeypatch, model.bottom_mlp.layers[0])
    top_rows = spy_rows(monkeypatch, first)
    assert_predict_keeps_the_bits(model, log.batch(0, 4096))
    assert bottom_rows == [4096] + block_rows(4096)
    assert top_rows == [4096, 4096]


@pytest.mark.parametrize("name", ["dlrm", "tbsm"])
def test_predict_checks_the_dense_width_first(trained, name):
    """A dense block one column short raises the config's message before
    any block runs, as ``forward`` does, not numpy's matmul mismatch."""
    model, log = trained[name]
    batch = log.batch(0, 2 * H)
    narrow = MiniBatch(batch.dense[:, :-1], batch.sparse, batch.labels)
    width = model.config.num_dense_features
    message = f"dense block has {width - 1} features, the model takes {width}"
    with pytest.raises(ValueError, match=message):
        model.predict(narrow)
