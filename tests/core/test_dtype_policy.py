"""One training dtype, float32, from the initialisers to the optimiser,
and one id dtype, ``ID_DTYPE`` (int32), from the click log to every id check.

``ModelConfig.dtype_bytes = 4`` prices every placement, tier, DMA and
all-to-all with 4-byte rows.  These tests train DLRM and TBSM for three
steps through each trainer configuration and check, after every step,
that each array a step produces or updates is float32: dense parameters
and gradients, table weights, every sparse gradient built (merged,
exchanged, deferred or flushed), the logits and logit gradients of the
loss epilogue, the sharded trainer's in-flight stale gradients, and the
lookahead pending store's value slabs.
They also check that the bytes the process holds are the bytes priced.

The id tests check that the log, its batches and shards, the learning
phase's sampled batches and the held-out batch hold ``ID_DTYPE`` ids, that
no consumer copies them into a wider block, and that a block of another
kind (float, bool) or a table too large for the dtype is rejected.
"""

import numpy as np
import pytest

import repro.data.synthetic as synthetic_module
import repro.models.dlrm as dlrm_module
from repro.core.accelerator import HotlineAccelerator
from repro.core.distributed import ShardedHotlineTrainer
from repro.core.eal import EALConfig, EmbeddingAccessLogger
from repro.core.pipeline import HotlineTrainer, ReferenceTrainer
from repro.data import DatasetSpec, MiniBatch, SyntheticClickLog, generate_click_log
from repro.data.loader import MiniBatchLoader
from repro.models import RM2
from repro.models.dlrm import DLRM
from repro.models.tbsm import TBSM
from repro.nn.embedding import ID_DTYPE, SparseGradient, check_ids

STEPS = 3


def single(model, config):
    accelerator = HotlineAccelerator(
        config.dataset.rows_per_table,
        row_bytes=config.embedding_dim * config.dtype_bytes,
        eal_config=EALConfig(size_bytes=1 << 16, ways=8),
    )
    return HotlineTrainer(model, accelerator, lr=0.05, sample_fraction=0.25)


def k2_sync(model, config):
    return ShardedHotlineTrainer(model, 2, lr=0.05, sample_fraction=0.25)


def k2_stale2_lookahead_tier(model, config):
    return ShardedHotlineTrainer(
        model, 2, lr=0.05, sample_fraction=0.25, mode="stale-2",
        lookahead_window=4, tiered_hot_bytes=0.25 * config.embedding_bytes,
    )


def k8_over_batch_6(model, config):
    return ShardedHotlineTrainer(model, 8, lr=0.05, sample_fraction=0.25)


#: (trainer factory, batch size).  Batches of 6 over K=8 shards leave two
#: shards empty every step.
TRAINERS = {
    "single": (single, 64),
    "k2-sync": (k2_sync, 64),
    "k2-stale2-w4-tier": (k2_stale2_lookahead_tier, 64),
    "k8-batch6": (k8_over_batch_6, 6),
}


@pytest.fixture()
def dtype_log(monkeypatch):
    """``(kind, dtype)`` of every sparse gradient built and of every loss
    epilogue's logits and logit gradient, in order."""
    seen: list[tuple[str, np.dtype]] = []
    post_init = SparseGradient.__post_init__

    def recording_post_init(grad):
        post_init(grad)
        seen.append(("sparse gradient values", grad.values.dtype))

    monkeypatch.setattr(SparseGradient, "__post_init__", recording_post_init)
    # Both models train through the skeleton's epilogue in ``models.dlrm``.
    epilogue = dlrm_module.fused_bce_epilogue

    def recording_epilogue(logits, targets):
        loss, grad = epilogue(logits, targets)
        seen.append(("logits", logits.dtype))
        seen.append(("logit gradient", grad.dtype))
        return loss, grad

    monkeypatch.setattr(dlrm_module, "fused_bce_epilogue", recording_epilogue)
    return seen


def step_arrays(trainer):
    """``(kind, array)`` for every array a step leaves behind."""
    model = trainer.model
    for param, grad in model.dense_parameters():
        yield "dense parameter", param
        yield "dense gradient", grad
    yield "table weight", model.embedding.weight
    for flat in getattr(trainer, "_pending_dense", []):
        if flat is not None:
            yield "in-flight dense gradient", flat
    lookahead = getattr(trainer, "lookahead", None)
    if lookahead is not None:
        for slab in lookahead.pending._values:
            if slab is not None:
                yield "pending value slab", slab


#: Kinds every run must have inspected, so that no check is vacuous.
ALWAYS_SEEN = {
    "sparse gradient values", "logits", "logit gradient",
    "dense parameter", "dense gradient", "table weight",
}
#: Sync steps update from the layers; only stale-k holds flat buffers.
EXTRA_SEEN = {
    "single": set(),
    "k2-sync": set(),
    "k2-stale2-w4-tier": {"in-flight dense gradient", "pending value slab"},
    "k8-batch6": set(),
}


@pytest.mark.parametrize("trainer_name", list(TRAINERS))
@pytest.mark.parametrize(
    "model_cls, config_fixture",
    [(DLRM, "tiny_model_config"), (TBSM, "tiny_ts_model_config")],
    ids=["DLRM", "TBSM"],
)
def test_every_training_array_is_float32_and_priced(
    request, dtype_log, model_cls, config_fixture, trainer_name
):
    config = request.getfixturevalue(config_fixture)
    factory, batch_size = TRAINERS[trainer_name]
    model = model_cls(config, seed=3)
    trainer = factory(model, config)
    log = generate_click_log(config.dataset, STEPS * batch_size, seed=5)
    step = trainer.run_step

    def run_step(batch):
        outcome = step(batch)
        dtype_log.extend((kind, array.dtype) for kind, array in step_arrays(trainer))
        return outcome

    trainer.run_step = run_step
    result = trainer.train(MiniBatchLoader(log, batch_size=batch_size), epochs=1)

    assert result.iterations == STEPS
    wrong = sorted({f"{kind}: {dtype}" for kind, dtype in dtype_log if dtype != np.float32})
    assert not wrong, wrong
    assert log.dense.dtype == log.labels.dtype == np.float32
    assert {kind for kind, _ in dtype_log} == ALWAYS_SEEN | EXTRA_SEEN[trainer_name]
    # Bytes held are bytes priced.
    assert model.embedding.weight.nbytes == config.embedding_bytes
    for param, grad in model.dense_parameters():
        assert param.itemsize == grad.itemsize == config.dtype_bytes
    assert model.embedding.weight.itemsize == config.dtype_bytes
    if trainer_name == "k2-stale2-w4-tier":
        assert trainer.tier.row_bytes == model.embedding.weight[0].nbytes


def test_ids_are_id_dtype_from_the_log_to_the_held_out_batch(monkeypatch):
    """The log and its rank -> row maps, every loader batch and shard
    (sequential and shuffled), the learning phase's sampled batches as the
    EAL reads them, and the held-out batch all hold ``ID_DTYPE`` ids."""
    config = RM2.scaled(300)
    train, held = 1024, 256
    full = generate_click_log(config.dataset, train + held, seed=4)
    assert full.sparse.dtype == ID_DTYPE
    assert [m.dtype for m in full.rank_to_row] == [ID_DTYPE] * config.num_sparse_features
    log = SyntheticClickLog(
        config.dataset, full.dense[:train], full.sparse[:train], full.labels[:train]
    )
    held_out = full.batch(train, held)
    assert held_out.sparse.dtype == ID_DTYPE

    for shuffle in (False, True):
        loader = MiniBatchLoader(log, batch_size=128, shuffle=shuffle, seed=2)
        for batch in loader:
            assert batch.sparse.dtype == ID_DTYPE
            assert {shard.sparse.dtype for shard in batch.shards(3)} == {np.dtype(ID_DTYPE)}

    sampled, learned = [], []
    sample_batches = MiniBatchLoader.sample_batches
    access_batch = EmbeddingAccessLogger.access_batch

    def recording_sample(loader, fraction, seed=0):
        batches = sample_batches(loader, fraction, seed=seed)
        sampled.extend(batch.sparse.dtype for batch in batches)
        return batches

    def recording_access(eal, sparse):
        learned.append(sparse.dtype)
        return access_batch(eal, sparse)

    monkeypatch.setattr(MiniBatchLoader, "sample_batches", recording_sample)
    monkeypatch.setattr(EmbeddingAccessLogger, "access_batch", recording_access)
    trainer = ShardedHotlineTrainer(DLRM(config, seed=1), 2, sample_fraction=0.25)
    trainer.bind(loader)
    assert sampled and set(sampled) == {np.dtype(ID_DTYPE)}
    assert learned and set(learned) == {np.dtype(ID_DTYPE)}


def test_check_ids_returns_an_id_dtype_block_itself():
    block = np.array([[[0], [2]], [[1], [0]], [[1], [1]]], dtype=ID_DTYPE)
    assert check_ids(block, (2, 3)) is block
    strided = block[::2]
    assert check_ids(strided, (2, 3)) is strided


@pytest.mark.parametrize(
    "model_cls, config_fixture",
    [(DLRM, "tiny_model_config"), (TBSM, "tiny_ts_model_config")],
    ids=["DLRM", "TBSM"],
)
def test_the_bag_keeps_the_batch_block_not_a_copy(request, model_cls, config_fixture):
    """After a training step, the bag's kept block (its backward's keys) is
    the trained batch's own ``ID_DTYPE`` block, through either trainer."""
    config = request.getfixturevalue(config_fixture)
    log = generate_click_log(config.dataset, 128, seed=5)
    loader = MiniBatchLoader(log, batch_size=64)
    for make in (
        lambda model: ReferenceTrainer(model),
        lambda model: HotlineTrainer(model, sample_fraction=0.5),
    ):
        model = model_cls(config, seed=3)
        trainer = make(model)
        trainer.bind(loader)
        batch = next(iter(loader))
        trainer.run_step(batch)
        assert model.embedding._last_indices is batch.sparse
        assert batch.sparse.dtype == ID_DTYPE


def test_generate_click_log_rejects_a_table_past_id_dtype(monkeypatch):
    """A table with more rows than ``ID_DTYPE`` ids name is rejected before
    its Zipf probabilities (16 GiB here) are allocated; a table of exactly
    2**31 rows passes the check."""

    class Allocated(Exception):
        pass

    def allocate(num_rows, alpha):
        raise Allocated(num_rows)

    monkeypatch.setattr(synthetic_module, "_zipf_probabilities", allocate)
    too_wide = DatasetSpec("too-wide", num_dense=1, rows_per_table=(2**31 + 1,))
    with pytest.raises(ValueError, match="table 0 has 2147483649 rows"):
        generate_click_log(too_wide, num_samples=1)
    widest = DatasetSpec("widest", num_dense=1, rows_per_table=(2**31,))
    with pytest.raises(Allocated):
        generate_click_log(widest, num_samples=1)


def test_non_integer_ids_are_rejected_before_any_state_changes():
    """``check_ids`` names the dtype of a float or bool block instead of
    truncating it, and a training step on float ids raises before any
    parameter moves, through the baseline and the Hotline trainer."""
    for bad in (np.array([[[1.7], [0.2]]]), np.array([[[True], [False]]])):
        with pytest.raises(ValueError, match=f"not {bad.dtype}$"):
            check_ids(bad, (3, 3))

    config = RM2.scaled(300)
    log = generate_click_log(config.dataset, 128, seed=6)
    loader = MiniBatchLoader(log, batch_size=64)
    batch = next(iter(loader))
    floats = MiniBatch(batch.dense, batch.sparse + 0.7, batch.labels)
    for make in (
        lambda model: ReferenceTrainer(model, lr=0.5),
        lambda model: HotlineTrainer(model, lr=0.5, sample_fraction=0.5),
    ):
        model = DLRM(config, seed=2)
        trainer = make(model)
        trainer.bind(loader)
        before = model.state_snapshot()
        with pytest.raises(ValueError, match="not float64$"):
            trainer.run_step(floats)
        after = model.state_snapshot()
        assert all(before[key].tobytes() == after[key].tobytes() for key in before)
