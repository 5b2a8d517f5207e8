"""Bit-parity grid for the batched dense path (PR 7).

The segment-packed dense pass (:mod:`repro.nn.gemm`) and the sharded
trainer's replica-stacked GEMMs both claim *bit*-identity with the
sequential per-µ-batch schedule of the test oracle
(``tests/oracle.py``: ``SequentialDLRM``/``SequentialTBSM``).  This grid
proves it:

* ``fused_loss_and_gradients`` packed-vs-oracle on DLRM and TBSM,
  across segment shapes {whole batch, contiguous halves,
  popular/non-popular-style interleaved partition, segments below the
  certification threshold} — comparing
  losses, every dense gradient and every sparse gradient.
* A real RM2-width DLRM (K=512 hidden layers), where the OpenBLAS
  small-matrix kernel actually diverges from the blocked path and the
  per-shape certification (:func:`repro.nn.gemm.packed_rows_threshold`)
  has to route individual layers to their per-segment fallback.
* The replica-stacked sharded step vs the same trainer running the oracle
  model (per-µ-batch passes) at K ∈ {1, 2, 4}: bitwise-equal losses and
  final parameters.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.distributed import ShardedHotlineTrainer
from repro.data import generate_click_log
from repro.data.loader import MiniBatchLoader
from repro.models import RM2
from repro.models.dlrm import DLRM
from repro.models.tbsm import TBSM
from repro.nn.gemm import NEVER_PACKED, PackedMLP, packed_rows_threshold, segment_bounds
from repro.nn.layers import Linear, ReLU
from repro.nn.mlp import MLP
from tests.helpers import CROSS_ORDER_ATOL, CROSS_ORDER_RTOL
from tests.oracle import SequentialDLRM, SequentialTBSM, reference_kernels


def whole(batch_size):
    return [np.arange(batch_size)]


def halves(batch_size):
    half = batch_size // 2
    return [np.arange(0, half), np.arange(half, batch_size)]


def interleaved(batch_size):
    """Popular/non-popular shape: two ascending, interleaved index sets."""
    idx = np.arange(batch_size)
    return [idx[idx % 3 == 0], idx[idx % 3 != 0]]


def tiny_segments(batch_size):
    """Segments below any GEMM certification threshold (fallback path)."""
    return [np.arange(0, 2), np.arange(2, 3), np.arange(3, batch_size)]


SEGMENT_GRIDS = {
    "whole": whole,
    "halves": halves,
    "interleaved": interleaved,
    "tiny": tiny_segments,
}


def run_dense_pass(model, batch, segments):
    """Losses, sparse grads and dense grads of one fused pass."""
    model.zero_grad()
    losses, sparse = model.fused_loss_and_gradients(batch, segments, normalizer=batch.size)
    dense = [g.copy() for _p, g in model.dense_parameters()]
    return losses, sparse, dense


def assert_bitwise_equal_pass(model_seq, model_packed, batch, segments):
    seq = run_dense_pass(model_seq, batch, segments)
    packed = run_dense_pass(model_packed, batch, segments)
    assert packed[0] == seq[0], "per-segment losses diverged"
    for seg, (gs, gp) in enumerate(zip(seq[1], packed[1], strict=True)):
        np.testing.assert_array_equal(gp.indices, gs.indices, err_msg=f"segment {seg} keys")
        np.testing.assert_array_equal(gp.values, gs.values, err_msg=f"segment {seg} values")
    for i, (gs, gp) in enumerate(zip(seq[2], packed[2], strict=True)):
        np.testing.assert_array_equal(gp, gs, err_msg=f"dense grad {i}")


@pytest.mark.parametrize("grid", sorted(SEGMENT_GRIDS), ids=sorted(SEGMENT_GRIDS))
def test_dlrm_batched_matches_sequential(tiny_model_config, tiny_click_log, grid):
    batch = tiny_click_log.batch(0, 128)
    segments = SEGMENT_GRIDS[grid](batch.size)
    assert_bitwise_equal_pass(
        SequentialDLRM(tiny_model_config, seed=3),
        DLRM(tiny_model_config, seed=3),
        batch,
        segments,
    )


@pytest.mark.parametrize("grid", sorted(SEGMENT_GRIDS), ids=sorted(SEGMENT_GRIDS))
def test_tbsm_batched_matches_sequential(
    tiny_ts_model_config, tiny_ts_click_log, grid
):
    batch = tiny_ts_click_log.batch(0, 128)
    segments = SEGMENT_GRIDS[grid](batch.size)
    assert_bitwise_equal_pass(
        SequentialTBSM(tiny_ts_model_config, seed=3),
        TBSM(tiny_ts_model_config, seed=3),
        batch,
        segments,
    )


@pytest.mark.parametrize("grid", sorted(SEGMENT_GRIDS), ids=sorted(SEGMENT_GRIDS))
def test_rm2_width_dlrm_batched_matches_sequential(grid):
    """Real RM2 MLP widths (K=512): certification must route the unstable
    GEMM shapes per-segment and still reproduce the sequential bits."""
    config = RM2.scaled(max_rows_per_table=600, samples_per_epoch=512)
    log = generate_click_log(config.dataset, 512, seed=17)
    batch = log.batch(0, 256)
    segments = SEGMENT_GRIDS[grid](batch.size)
    assert_bitwise_equal_pass(
        SequentialDLRM(config, seed=5),
        DLRM(config, seed=5),
        batch,
        segments,
    )


def test_packed_pass_is_deterministic_across_block_heights(tiny_model_config, tiny_click_log):
    """The same segment trained alone or packed with others yields the
    same bits — the certification's two-heights guarantee, end to end."""
    batch = tiny_click_log.batch(0, 128)
    model = DLRM(tiny_model_config, seed=3)
    losses_whole, _, dense_whole = run_dense_pass(model, batch, whole(batch.size))
    losses_again, _, dense_again = run_dense_pass(model, batch, whole(batch.size))
    assert losses_whole == losses_again
    for a, b in zip(dense_whole, dense_again, strict=True):
        np.testing.assert_array_equal(a, b)


# --------------------------------------------------------------------- #
# Replica-stacked sync GEMMs
# --------------------------------------------------------------------- #
def run_sharded(model, log, num_shards, steps=6):
    trainer = ShardedHotlineTrainer(model, num_shards, lr=0.1, sample_fraction=0.25)
    loader = MiniBatchLoader(log, batch_size=128)
    trainer.bind(loader)
    losses = [trainer.run_step(batch).loss for batch in list(loader)[:steps]]
    return trainer, losses


@pytest.mark.parametrize("num_shards", [1, 2, 4])
def test_replica_stacked_matches_per_replica(
    tiny_model_config, tiny_click_log, num_shards
):
    """Stacking K sync replicas into one packed pass changes no bit
    against per-µ-batch passes of the oracle model."""
    baseline, losses_ref = run_sharded(
        SequentialDLRM(tiny_model_config, seed=9), tiny_click_log, num_shards
    )
    stacked, losses_stacked = run_sharded(
        DLRM(tiny_model_config, seed=9), tiny_click_log, num_shards
    )
    assert losses_stacked == losses_ref
    state_ref = baseline.model.state_snapshot()
    state_stacked = stacked.model.state_snapshot()
    for key, value in state_ref.items():
        np.testing.assert_array_equal(state_stacked[key], value, err_msg=key)


# --------------------------------------------------------------------- #
# Kernel-layer units
# --------------------------------------------------------------------- #
def test_packed_rows_threshold_is_cached_and_sane():
    first = packed_rows_threshold(16, 64)
    again = packed_rows_threshold(16, 64)
    assert first == again
    assert first >= 2
    transposed = packed_rows_threshold(16, 64, transposed=True)
    assert transposed >= 2
    assert NEVER_PACKED > 1 << 20


def test_segment_bounds_partition_in_order():
    segments = [np.array([0, 2, 4]), np.array([1, 3]), np.array([5])]
    assert segment_bounds(segments) == [(0, 3), (3, 5), (5, 6)]


def test_packed_mlp_packs_each_linear_with_its_relu(rng):
    units = PackedMLP(MLP([4, 8, 2], rng)).units
    assert [(type(u.linear), type(u.relu)) for u in units] == [
        (Linear, ReLU),
        (Linear, type(None)),
    ]


# --------------------------------------------------------------------- #
# New-kernel vs reference-kernel parity
# --------------------------------------------------------------------- #
def test_epilogue_reference_training_is_bit_identical(
    tiny_model_config, tiny_click_log
):
    """The fused loss epilogue claims *bit*-identity with the retained
    two-pass pair — so a whole training run forced through the reference
    epilogue must reproduce the fused run's losses and parameters exactly."""
    batches = [tiny_click_log.batch(i * 128, 128) for i in range(4)]
    model_fused = DLRM(tiny_model_config, seed=21)
    losses_fused = [model_fused.train_step(b, lr=0.1) for b in batches]
    model_ref = DLRM(tiny_model_config, seed=21)
    with reference_kernels(interaction=False):
        losses_ref = [model_ref.train_step(b, lr=0.1) for b in batches]
    assert losses_fused == losses_ref
    state_fused = model_fused.state_snapshot()
    for key, value in model_ref.state_snapshot().items():
        np.testing.assert_array_equal(state_fused[key], value, err_msg=key)


def test_interaction_reference_training_stays_close(
    tiny_model_config, tiny_click_log
):
    """The batched interaction GEMM is allclose (not bitwise) to the einsum
    reference — certification guarantees *row stability across execution
    paths*, not equality with einsum.  A short training run through each
    must stay within the cross-order tolerance."""
    batches = [tiny_click_log.batch(i * 128, 128) for i in range(4)]
    model_new = DLRM(tiny_model_config, seed=23)
    losses_new = [model_new.train_step(b, lr=0.1) for b in batches]
    model_ref = DLRM(tiny_model_config, seed=23)
    with reference_kernels(loss=False):
        losses_ref = [model_ref.train_step(b, lr=0.1) for b in batches]
    np.testing.assert_allclose(losses_new, losses_ref, rtol=CROSS_ORDER_RTOL)
    state_new = model_new.state_snapshot()
    for key, value in model_ref.state_snapshot().items():
        np.testing.assert_allclose(
            state_new[key], value, rtol=CROSS_ORDER_RTOL, atol=CROSS_ORDER_ATOL
        )


# --------------------------------------------------------------------- #
# FLOP accounting (satellite bugfix)
# --------------------------------------------------------------------- #
def test_config_mlp_flops_count_bias_and_activation():
    """RM2 arch strings (bottom 13-512-256-64-16, top 512-256-1), by hand:
    2*in*out MACs + out bias adds per layer, + out ReLU ops per hidden."""
    bottom = (
        (2 * 13 * 512 + 512 + 512)
        + (2 * 512 * 256 + 256 + 256)
        + (2 * 256 * 64 + 64 + 64)
        + (2 * 64 * 16 + 16)
    )
    top = (2 * 512 * 256 + 256 + 256) + (2 * 256 * 1 + 1)
    assert RM2.mlp_flops_per_sample == bottom + top


def test_model_flops_match_actual_layer_sizes(tiny_model_config):
    """``ModelConfig.mlp_flops_per_sample`` over arch strings spelling the
    model's *actual* widths (the top MLP's input is the interaction output,
    which the config's top arch string leaves out) counts what those layers
    compute."""
    model = DLRM(tiny_model_config, seed=0)
    expected = 0.0
    for mlp in (model.bottom_mlp, model.top_mlp):
        sizes = mlp.layer_sizes
        for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:], strict=True)):
            expected += 2.0 * fan_in * fan_out + fan_out
            if i != len(sizes) - 2:
                expected += fan_out
    actual = dataclasses.replace(
        tiny_model_config,
        bottom_mlp="-".join(map(str, model.bottom_mlp.layer_sizes)),
        top_mlp="-".join(map(str, model.top_mlp.layer_sizes)),
    )
    assert actual.mlp_flops_per_sample == expected
