"""Batched dense path: parity and fig18 step speedup.

PR 7's batched dense execution (:mod:`repro.nn.gemm`) replaces many small
MLP GEMMs with few large ones, in two composable pieces:

* **Segment-packed µ-batch MLPs** — ``fused_loss_and_gradients`` runs the
  bottom MLP, interaction, and top MLP over one contiguous packed block
  instead of once per µ-batch segment (``batched=True``, the default).
* **Replica-stacked sync GEMMs** — in stale-0/sync mode all K replicas
  hold bit-identical weights, so :class:`~repro.core.distributed.
  ShardedHotlineTrainer` stacks the K shards' dense passes into one
  global-batch GEMM per layer (``dense_batching="replica"``, the
  default), turning K·segments small GEMMs into one.

Both are bit-identical to the retained sequential path (the parity grid
in ``tests/core/test_batched_dense.py``; asserted end-to-end here before
timing anything).

Two measurements on the fig18 config (RM2.scaled, batch 256):

* **Sharded fig18 step, K=4 sync** — the headline: replica stacking plus
  segment packing vs the PR 6 per-replica sequential path.  Measured
  ~1.25-1.35x on the single-core container (gated >= 1.15x under
  ``BENCH_STRICT``): per-shard µ-batches are ~32 rows, where BLAS
  efficiency and per-call overhead are worst, so stacking 4 shards x 2
  segments into one 256-row GEMM per layer is exactly the Amdahl lever
  ROADMAP item 4 asked for.
* **Single-trainer fig18 step** — segment packing alone: two ~128-row
  segments per layer are already near BLAS peak, so packing buys only
  the fused bias+ReLU, workspace reuse, and the skipped first-layer
  input-gradient GEMM (~1.0-1.12x, noise-bound).  Recorded with a
  no-regression gate, not a speedup claim.
"""

import os
import time

import numpy as np

from benchmarks.figutils import record_bench
from repro.core.accelerator import HotlineAccelerator
from repro.core.distributed import ShardedHotlineTrainer
from repro.core.eal import EALConfig
from repro.core.pipeline import HotlineTrainer
from repro.data import MiniBatchLoader, generate_click_log
from repro.models import RM2
from repro.models.dlrm import DLRM

#: The replica-stacked + packed dense path must beat the PR 6 sequential
#: per-replica path by this factor on the sharded fig18 config.
MIN_STACKED_SPEEDUP = 1.15
#: Packing alone (single trainer) must never *lose* to sequential.
MAX_PACKED_SLOWDOWN = 1.05

BATCH_SIZE = 256
NUM_SHARDS = 4
ROUNDS = 4


def fig18_workload():
    config = RM2.scaled(max_rows_per_table=1200, samples_per_epoch=3072)
    log = generate_click_log(config.dataset, 3072, seed=41)
    return config, log


def make_single_trainer(config, log, *, batched):
    accelerator = HotlineAccelerator(
        row_bytes=config.embedding_dim * 4,
        eal_config=EALConfig(size_bytes=1 << 17, ways=16),
    )
    trainer = HotlineTrainer(
        DLRM(config, seed=13, batched=batched),
        accelerator,
        lr=0.3,
        sample_fraction=0.25,
    )
    trainer.bind(MiniBatchLoader(log, batch_size=BATCH_SIZE))
    return trainer


def make_sharded_trainer(config, log, *, batched, dense_batching):
    trainer = ShardedHotlineTrainer(
        DLRM(config, seed=13, batched=batched),
        NUM_SHARDS,
        lr=0.3,
        sample_fraction=0.25,
        dense_batching=dense_batching,
    )
    trainer.bind(MiniBatchLoader(log, batch_size=BATCH_SIZE))
    return trainer


def timed_epoch(trainer, batches):
    """One epoch's per-step wall times."""
    walls = np.empty(len(batches))
    for i, batch in enumerate(batches):
        start = time.perf_counter()
        trainer.run_step(batch)
        walls[i] = time.perf_counter() - start
    return walls


def interleaved_best(trainers, batches, rounds=ROUNDS):
    """Best-of per-step walls, per name."""
    names = list(trainers)
    best = {name: np.full(len(batches), np.inf) for name in names}
    for round_index in range(rounds):
        ordered = names if round_index % 2 == 0 else list(reversed(names))
        for name in ordered:
            walls = timed_epoch(trainers[name], batches)
            improved = walls < best[name]
            best[name][improved] = walls[improved]
    return best


def assert_sharded_parity(reference, stacked, batch):
    """One step on each trainer must agree bit-for-bit."""
    loss_ref = reference.run_step(batch).loss
    loss_stacked = stacked.run_step(batch).loss
    assert loss_stacked == loss_ref
    assert stacked.replica_drift() == 0.0
    state_ref = reference.replicas[0].model.state_snapshot()
    state_stacked = stacked.replicas[0].model.state_snapshot()
    for key, value in state_ref.items():
        np.testing.assert_array_equal(state_stacked[key], value, err_msg=key)


def test_replica_stacked_dense_path_fig18(benchmark):
    """K=4 sync sharded step: replica-stacked + packed vs PR 6 sequential."""
    config, log = fig18_workload()
    sequential = make_sharded_trainer(
        config, log, batched=False, dense_batching="per-replica"
    )
    stacked = make_sharded_trainer(config, log, batched=True, dense_batching="replica")
    batches = list(MiniBatchLoader(log, batch_size=BATCH_SIZE))

    assert_sharded_parity(sequential, stacked, batches[0])

    best = interleaved_best({"sequential": sequential, "stacked": stacked}, batches[1:])
    benchmark.pedantic(
        lambda: [stacked.run_step(batch) for batch in batches[1:]],
        rounds=1,
        iterations=1,
    )
    seq_s = float(best["sequential"].sum())
    stacked_s = float(best["stacked"].sum())
    speedup = seq_s / stacked_s
    strict = bool(os.environ.get("BENCH_STRICT"))
    steps = len(batches) - 1
    print(
        f"\nsharded fig18 step (K={NUM_SHARDS} sync, batch {BATCH_SIZE}, "
        f"{steps} steps): sequential {seq_s / steps * 1e3:.2f} ms, "
        f"replica-stacked {stacked_s / steps * 1e3:.2f} ms, speedup "
        f"{speedup:.3f}x (bit-identical)"
    )
    record_bench(
        "dense_path_fig18",
        config=f"RM2.scaled(1200) batch={BATCH_SIZE}, K={NUM_SHARDS} sync "
        "shards, replica-stacked packed GEMMs vs per-replica sequential",
        seconds=stacked_s / steps,
        speedup=speedup,
        gate=MIN_STACKED_SPEEDUP,
        enforced=strict,
    )
    if strict:
        assert speedup >= MIN_STACKED_SPEEDUP


def test_packed_single_trainer_no_regression():
    """Segment packing alone must hold the line on the single-trainer step."""
    config, log = fig18_workload()
    sequential = make_single_trainer(config, log, batched=False)
    packed = make_single_trainer(config, log, batched=True)
    batches = list(MiniBatchLoader(log, batch_size=BATCH_SIZE))

    loss_seq = sequential.run_step(batches[0]).loss
    loss_packed = packed.run_step(batches[0]).loss
    assert loss_packed == loss_seq

    best = interleaved_best({"sequential": sequential, "packed": packed}, batches[1:])
    seq_s = float(best["sequential"].sum())
    packed_s = float(best["packed"].sum())
    speedup = seq_s / packed_s
    strict = bool(os.environ.get("BENCH_STRICT"))
    steps = len(batches) - 1
    print(
        f"\nsingle-trainer fig18 step (batch {BATCH_SIZE}, {steps} steps): "
        f"sequential {seq_s / steps * 1e3:.2f} ms, packed "
        f"{packed_s / steps * 1e3:.2f} ms, speedup {speedup:.3f}x"
    )
    record_bench(
        "packed_dense_single_fig18",
        config=f"RM2.scaled(1200) batch={BATCH_SIZE}, single trainer, "
        "segment-packed vs sequential dense pass (no-regression guard)",
        seconds=packed_s / steps,
        speedup=speedup,
        gate=1.0 / MAX_PACKED_SLOWDOWN,
        enforced=strict,
    )
    if strict:
        assert packed_s <= seq_s * MAX_PACKED_SLOWDOWN
