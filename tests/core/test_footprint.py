"""What evaluation and the learning phase leave in memory.

Traced with :mod:`tracemalloc`, to which numpy reports its buffers, so the
counts repeat exactly from run to run:

* ``evaluate`` runs the models' inference forward, which stores nothing
  on the model: no layer activations, no interaction cache or pooled
  Gram, no lookup indices.  It scores the batch in row blocks, so what
  it holds grows with the batch only by the one array its logit layer
  reads.
* An EAL holds its two ``(sets, ways)`` arrays, a flat key and an int8
  RRPV per entry (5 bytes in a key space of at most 2**32 rows), only
  while it learns.  The sharded trainer learns one shard at a time, and
  each EAL hands its released arrays to the next, so a learning phase
  allocates one array set and holds it until the last shard's hot sets
  are taken.
"""

import tracemalloc

import pytest

from repro.core.distributed import ShardedHotlineTrainer
from repro.core.eal import EmbeddingAccessLogger
from repro.core.engine import evaluate
from repro.core.pipeline import HotlineTrainer
from repro.data import generate_click_log
from repro.data.loader import MiniBatchLoader
from repro.models.dlrm import DLRM
from repro.models.tbsm import TBSM
from repro.nn.gemm import INFER_BLOCK_ROWS
from tests.oracle import held_arrays

#: What an evaluation may leave behind: module-level index caches, not
#: a batch's activations.
RETAINED_BOUND = 64 * 1024


def eal_bytes(eal) -> int:
    """Bytes of the arrays an EAL of ``eal``'s key space and SRAM holds
    once it learns."""
    twin = EmbeddingAccessLogger(eal.rows_per_table, eal.config)
    twin.access(0, 0)
    return sum(array.nbytes for array in twin.release())


@pytest.mark.parametrize("model_cls", [DLRM, TBSM])
def test_evaluate_retains_no_batch_state(
    model_cls, tiny_model_config, tiny_ts_model_config, tiny_click_log, tiny_ts_click_log
):
    """Two evaluations of a 1,024-sample batch on a trained model retain
    less than 64 KiB between them (the batch's activations alone are
    several times that)."""
    config, log = (
        (tiny_model_config, tiny_click_log)
        if model_cls is DLRM
        else (tiny_ts_model_config, tiny_ts_click_log)
    )
    model = model_cls(config, seed=0)
    model.train_step(log.batch(0, 64), lr=0.1)
    batch = log.batch(0, 1024)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        first = evaluate(model, batch)
        second = evaluate(model, batch)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert first == second
    assert retained < RETAINED_BOUND


def test_predict_peak_grows_with_the_batch_by_the_gathered_array_alone(
    tiny_ts_model_config, tiny_ts_click_log
):
    """TBSM's ``predict`` of 16 blocks peaks above its ``predict`` of 2
    blocks by no more than the ``(rows, 12)`` float32 array its logit
    layer reads: each block's history sequences and pooled rows die with
    the block."""
    model = TBSM(tiny_ts_model_config, seed=0)
    model.train_step(tiny_ts_click_log.batch(0, 64), lr=0.1)
    log = generate_click_log(tiny_ts_model_config.dataset, 16 * INFER_BLOCK_ROWS, seed=3)
    hidden = model.top_mlp.layer_sizes[-2]
    peaks = {}
    for blocks in (2, 16):
        batch = log.batch(0, blocks * INFER_BLOCK_ROWS)
        model.predict(batch)  # certify the GEMM shapes outside the trace
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            model.predict(batch)
            peaks[blocks] = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    gathered_bytes = 16 * INFER_BLOCK_ROWS * hidden * 4
    assert peaks[16] - peaks[2] <= gathered_bytes


@pytest.mark.parametrize("num_shards", [1, 4])
def test_bound_trainer_holds_no_eal_arrays(
    tiny_model_config, tiny_click_log, num_shards
):
    """After bind every EAL has released its arrays and kept its counters."""
    model = DLRM(tiny_model_config, seed=1)
    if num_shards == 1:
        trainer = HotlineTrainer(model, sample_fraction=0.25)
        eals = [trainer.accelerator.eal]
    else:
        trainer = ShardedHotlineTrainer(model, num_shards, sample_fraction=0.25)
        eals = [shard.accelerator.eal for shard in trainer.shards]
    trainer.bind(MiniBatchLoader(tiny_click_log, batch_size=128))
    for eal in eals:
        assert held_arrays(eal) is None
        assert eal.insertions > 0 and eal.hits + eal.misses > 0


def test_sharded_learning_phase_peaks_with_one_eal_live(tiny_model_config, tiny_click_log):
    """Constructing a K=4 trainer and running its learning phase allocates
    one default (4 MB SRAM) EAL's arrays, 10 MiB at 5 bytes per entry, and
    every shard learns in them: the traced peak is above one EAL's bytes
    and below two, where EALs that each hold their arrays from
    construction peak above four."""
    model = DLRM(tiny_model_config, seed=1)
    loader = MiniBatchLoader(tiny_click_log, batch_size=128)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        trainer = ShardedHotlineTrainer(model, 4, sample_fraction=0.25)
        trainer.learning_phase(loader)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    one_eal = eal_bytes(trainer.shards[0].accelerator.eal)
    assert one_eal == 10 * 2**20
    assert one_eal <= peak < 2 * one_eal
    assert all(held_arrays(shard.accelerator.eal) is None for shard in trainer.shards)
