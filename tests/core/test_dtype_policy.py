"""One training dtype, float32, from the initialisers to the optimiser.

``ModelConfig.dtype_bytes = 4`` prices every placement, tier, DMA and
all-to-all with 4-byte rows.  These tests train DLRM and TBSM for three
steps through each trainer configuration and check, after every step,
that each array a step produces or updates is float32: dense parameters
and gradients, table weights, every sparse gradient built (merged,
exchanged, deferred or flushed), the logits and logit gradients of the
loss epilogue, the sharded trainer's in-flight stale gradients, and the
lookahead pending store's value slabs.
They also check that the bytes the process holds are the bytes priced.
"""

import numpy as np
import pytest

import repro.models.dlrm as dlrm_module
from repro.core.accelerator import HotlineAccelerator
from repro.core.distributed import ShardedHotlineTrainer
from repro.core.eal import EALConfig
from repro.core.pipeline import HotlineTrainer
from repro.data import generate_click_log
from repro.data.loader import MiniBatchLoader
from repro.models.dlrm import DLRM
from repro.models.tbsm import TBSM
from repro.nn.embedding import SparseGradient

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
