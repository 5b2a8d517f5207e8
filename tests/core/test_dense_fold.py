"""A steady K-shard step allocates nothing proportional to the dense gradient.

The sharded trainer accumulates every µ-batch's dense gradient in the
model's layers; ``stale-k`` copies the sum into a flat buffer recycled
through a free list.  Once warm, the peak traced allocation of one
``train_step`` above its start must therefore stay under two flat dense
gradients (2 × P × itemsize, P = ``num_dense_parameters``).  The
per-segment flat copies of an earlier design peaked at 6–10× that.
"""

import tracemalloc

import pytest

from repro.core.distributed import ShardedHotlineTrainer
from repro.data import generate_click_log
from repro.data.loader import MiniBatchLoader
from repro.models import RM2
from repro.models.dlrm import DLRM

WARMUP_STEPS = 4
STEADY_STEPS = 4
BATCH_SIZE = 256


@pytest.mark.parametrize("mode", ["sync", "stale-2"])
def test_steady_step_peak_allocation_is_below_two_dense_gradients(mode):
    config = RM2.scaled(200)
    model = DLRM(config, seed=5)
    trainer = ShardedHotlineTrainer(model, 4, mode=mode, sample_fraction=0.25)
    log = generate_click_log(
        config.dataset, BATCH_SIZE * (WARMUP_STEPS + STEADY_STEPS), seed=3
    )
    loader = MiniBatchLoader(log, batch_size=BATCH_SIZE)
    trainer.bind(loader)
    batches = list(loader)
    for batch in batches[:WARMUP_STEPS]:
        trainer.train_step(batch)
    gradient_bytes = model.num_dense_parameters * model.dense_parameters()[0][1].itemsize
    peaks = []
    tracemalloc.start()
    try:
        for batch in batches[WARMUP_STEPS:]:
            start, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            trainer.train_step(batch)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
    finally:
        tracemalloc.stop()
    assert len(peaks) == STEADY_STEPS
    # The message lists each step's peak in units of one dense gradient.
    assert max(peaks) < 2 * gradient_bytes, [round(p / gradient_bytes, 2) for p in peaks]
