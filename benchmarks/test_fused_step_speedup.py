"""Fused µ-batch execution on the Figure 18 config: parity + step time.

Hotline's acceleration phase trains every mini-batch as a popular and a
non-popular µ-batch.  The fused execution path runs the two µ-batches
through **one** embedding gather and **one** scatter per table and one
segment-packed dense pass — the update is **bit-identical** to the
sequential two-pass schedule of the test oracle's ``SequentialDLRM``
(asserted here end-to-end, and enforced by
``tests/core/test_fused_microbatch.py``).

The step-time claim is bounded by Amdahl: on the Figure 18 config the MLP
and interaction passes dominate (~85 % of a step under cProfile), so
halving the sparse path's kernel launches moves the end-to-end time by a
few percent at best.  This benchmark measures interleaved per-step best-of
timing and records the measured ratio in ``BENCH_sparse_path.json`` so the
trajectory is tracked on quiet CI hardware.  The bit-identity assertions
always run; the wall-clock non-regression gate is enforced only when
``BENCH_STRICT`` is set (the nightly job), because the measured ratio
(~0.99-1.02x) sits within shared-runner noise of any tight threshold —
a tier-1 PR gate would be a coin flip on a noisy neighbour.
"""

import os
import time

import numpy as np

from benchmarks.figutils import record_bench
from repro.core.accelerator import HotlineAccelerator
from repro.core.eal import EALConfig
from repro.core.pipeline import HotlineTrainer
from repro.data import MiniBatchLoader, generate_click_log
from repro.models import RM2
from repro.models.dlrm import DLRM
from tests.oracle import SequentialDLRM

#: The fused path must not regress the Figure 18 step time beyond noise.
#: Ratcheted 1.05 -> 1.04 once interleaved timing alternated the A/B order
#: per round (killing the warm-cache bias that inflated the bound), then
#: 1.04 -> 1.03 with the PR 7 packed dense path: the fused step now beats
#: sequential outright (~0.93-1.00x recorded).  Tightened 1.03 -> 1.02 with
#: the PR 10 single-pass interaction + fused loss epilogue: the dense work
#: both contenders share shrank (~1.1x+ step speedup), so the fused path's
#: relative overhead bound keeps ratcheting toward 1.0 as ROADMAP item 4
#: asks.
MAX_SLOWDOWN = 1.02


def make_trainer(config, log, model_cls):
    accelerator = HotlineAccelerator(
        row_bytes=config.embedding_dim * 4,
        eal_config=EALConfig(size_bytes=1 << 17, ways=16),
    )
    trainer = HotlineTrainer(
        model_cls(config, seed=13), accelerator, lr=0.3, sample_fraction=0.25
    )
    trainer.learning_phase(MiniBatchLoader(log, batch_size=256))
    return trainer


def test_fused_step_matches_and_does_not_regress(benchmark):
    config = RM2.scaled(max_rows_per_table=1200, samples_per_epoch=3072)
    log = generate_click_log(config.dataset, 3072, seed=41)
    batches = list(MiniBatchLoader(log, batch_size=256))

    fused = make_trainer(config, log, DLRM)
    sequential = make_trainer(config, log, SequentialDLRM)

    # Bit-identity first (one full epoch): losses and every parameter.
    fused_losses = [fused.train_step(batch)[0] for batch in batches]
    sequential_losses = [sequential.train_step(batch)[0] for batch in batches]
    assert fused_losses == sequential_losses
    fused_state = fused.model.state_snapshot()
    for key, value in sequential.model.state_snapshot().items():
        np.testing.assert_array_equal(fused_state[key], value, err_msg=key)

    # Interleaved per-step best-of timing: the minimum of each individual
    # step across rounds filters background-noise spikes far better than
    # whole-epoch minima.  The A/B order flips every round so neither
    # contender systematically inherits the other's warm caches.
    rounds = 8
    fused_steps = np.full(len(batches), np.inf)
    sequential_steps = np.full(len(batches), np.inf)
    for round_index in range(rounds):
        for i, batch in enumerate(batches):
            contenders = [
                (fused, fused_steps),
                (sequential, sequential_steps),
            ]
            if round_index % 2:
                contenders.reverse()
            for trainer, steps in contenders:
                start = time.perf_counter()
                trainer.train_step(batch)
                steps[i] = min(steps[i], time.perf_counter() - start)
    best_fused = float(fused_steps.sum())
    best_sequential = float(sequential_steps.sum())
    benchmark.pedantic(
        lambda: [fused.train_step(batch) for batch in batches], rounds=1, iterations=1
    )
    speedup = best_sequential / best_fused
    print(
        f"\nfig18 epoch ({len(batches)} steps): sequential "
        f"{best_sequential * 1e3:.1f} ms, fused {best_fused * 1e3:.1f} ms, "
        f"speedup {speedup:.3f}x (bit-identical losses)"
    )
    strict = bool(os.environ.get("BENCH_STRICT"))
    record_bench(
        "fused_microbatch_step_fig18",
        config="RM2.scaled(1200) batch=256, 26 tables, fused vs sequential epoch",
        seconds=best_fused / len(batches),
        speedup=speedup,
        gate=1.0 / MAX_SLOWDOWN,
        enforced=strict,
    )
    if strict:
        assert best_fused <= best_sequential * MAX_SLOWDOWN
