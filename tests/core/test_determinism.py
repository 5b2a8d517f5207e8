"""Seeded-determinism guarantees of the training engine.

Two runs with identical seeds must produce bit-identical
:class:`~repro.core.engine.TrainingResult` losses for every trainer —
reference, Hotline, and sharded — guarding the PR 2 fixes that made the
loader prefetch thread and ``sample_batches`` side-effect free (a perturbed
RNG or a racy prefetch would show up here first).
"""

import numpy as np

from repro.core.distributed import ShardedHotlineTrainer
from repro.core.pipeline import HotlineTrainer, ReferenceTrainer
from repro.data.loader import MiniBatchLoader
from repro.models.dlrm import DLRM


def _run(make_trainer, log, *, shuffle=False):
    loader = MiniBatchLoader(log, batch_size=128, shuffle=shuffle, seed=3)
    trainer = make_trainer()
    result = trainer.train(loader, epochs=2, eval_batch=log.batch(0, 256))
    return result, trainer.model.state_snapshot()


def assert_identical_runs(make_trainer, log, *, shuffle=False):
    first, first_state = _run(make_trainer, log, shuffle=shuffle)
    second, second_state = _run(make_trainer, log, shuffle=shuffle)
    assert first.losses == second.losses
    assert first.auc_history == second.auc_history
    assert first.final_metrics == second.final_metrics
    for key in first_state:
        np.testing.assert_array_equal(first_state[key], second_state[key], err_msg=key)


def test_reference_trainer_is_seed_deterministic(tiny_model_config, tiny_click_log):
    assert_identical_runs(
        lambda: ReferenceTrainer(DLRM(tiny_model_config, seed=9), lr=0.05),
        tiny_click_log,
    )


def test_reference_trainer_deterministic_with_shuffle(tiny_model_config, tiny_click_log):
    """Shuffled epochs draw from the loader's seeded RNG — still repeatable."""
    assert_identical_runs(
        lambda: ReferenceTrainer(DLRM(tiny_model_config, seed=9), lr=0.05),
        tiny_click_log,
        shuffle=True,
    )


def test_hotline_trainer_is_seed_deterministic(tiny_model_config, tiny_click_log):
    assert_identical_runs(
        lambda: HotlineTrainer(
            DLRM(tiny_model_config, seed=9), lr=0.05, sample_fraction=0.25
        ),
        tiny_click_log,
    )


def test_sharded_trainer_is_seed_deterministic(tiny_model_config, tiny_click_log):
    assert_identical_runs(
        lambda: ShardedHotlineTrainer(
            DLRM(tiny_model_config, seed=9), 2, lr=0.05, sample_fraction=0.25
        ),
        tiny_click_log,
    )


def test_sharded_trainer_deterministic_with_prefetch_and_shuffle(
    tiny_model_config, tiny_click_log
):
    """The full overlap stack at once — prefetched loader (which also runs
    the µ-batch pre-classification on its worker thread) and shuffled
    epochs — keeps the sharded trainer seed-deterministic."""
    assert_identical_runs(
        lambda: ShardedHotlineTrainer(
            DLRM(tiny_model_config, seed=9), 2, lr=0.05, sample_fraction=0.25
        ),
        tiny_click_log,
        shuffle=True,
    )


def test_replica_stacked_dense_is_seed_deterministic(tiny_model_config, tiny_click_log):
    """The replica-stacked dense pass, which runs in every mode, is
    repeatable at K=4 under staleness too."""
    assert_identical_runs(
        lambda: ShardedHotlineTrainer(
            DLRM(tiny_model_config, seed=9), 4,
            lr=0.05, sample_fraction=0.25, mode="stale-2",
        ),
        tiny_click_log,
    )


def test_stale_mode_is_seed_deterministic(tiny_model_config, tiny_click_log):
    """Staleness delays the dense update but stays perfectly repeatable."""
    assert_identical_runs(
        lambda: ShardedHotlineTrainer(
            DLRM(tiny_model_config, seed=9), 2, lr=0.05, sample_fraction=0.25,
            mode="stale-1",
        ),
        tiny_click_log,
    )


def test_stale_k_is_seed_deterministic(tiny_model_config, tiny_click_log):
    """The whole stale-k family is repeatable — the k-deep deque and the
    bounded-staleness sparse flush introduce no hidden nondeterminism."""
    for staleness in (2, 4):
        assert_identical_runs(
            lambda staleness=staleness: ShardedHotlineTrainer(
                DLRM(tiny_model_config, seed=9), 2, lr=0.05, sample_fraction=0.25,
                mode=f"stale-{staleness}", lookahead_window=3,
            ),
            tiny_click_log,
        )


def test_lookahead_pipeline_deterministic_with_shuffle(
    tiny_model_config, tiny_click_log
):
    """The lookahead window walks the shuffled epoch order eagerly, so
    shuffled cached runs repeat bit for bit (and never touch the RNG)."""
    assert_identical_runs(
        lambda: ShardedHotlineTrainer(
            DLRM(tiny_model_config, seed=9), 2, lr=0.05, sample_fraction=0.25,
            mode="stale-2", lookahead_window=4,
        ),
        tiny_click_log,
        shuffle=True,
    )


def test_prefetch_depth_never_changes_results(tiny_model_config, tiny_click_log):
    """Synchronous, double-buffered, and deep prefetch yield the same run."""
    from repro.core.engine import TrainingEngine

    results = []
    for depth in (0, 1, 4):
        model = DLRM(tiny_model_config, seed=9)
        trainer = HotlineTrainer(model, lr=0.05, sample_fraction=0.25)
        engine = TrainingEngine(trainer, prefetch=depth)
        loader = MiniBatchLoader(tiny_click_log, batch_size=128)
        results.append(engine.train(loader, epochs=1, eval_batch=tiny_click_log.batch(0, 256)))
    assert results[0].losses == results[1].losses == results[2].losses
    assert (
        results[0].final_metrics == results[1].final_metrics == results[2].final_metrics
    )
