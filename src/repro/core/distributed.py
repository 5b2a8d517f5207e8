"""True multi-replica data/model-parallel Hotline training.

PR 2 made Figure 30 *functional* with a shortcut: one shared numeric
replica stood in for all K data-parallel shards (every shard's update is
identical, so training one model and accumulating gradients in its layers
is numerically the same).  That shortcut cannot express staleness, overlap,
or hybrid data+model parallelism, because there is nothing to desynchronise
and no per-shard parameter state.  This module removes it:

* :class:`ShardedHotlineTrainer` now trains **K genuinely separate model
  replicas** — each :class:`ShardReplica` owns its own dense parameters and
  optimizer state (a deep copy of the template model) plus its own
  accelerator/EAL and EAL-derived placement.
* **Dense gradients** flow through an explicit
  :class:`~repro.core.reducer.GradientBucketReducer` as a streaming
  fold: right after each µ-batch's backward, the replica's gradient
  arrays are added, in ``dense_parameters()`` order, straight into one
  P-sized accumulator (:class:`~repro.core.reducer.DenseGradientFold`)
  in one fixed rank-major association order, and the layers are zeroed
  for the next µ-batch.  No flat per-µ-batch copy is made.  The reduced
  gradient is scaled by the learning rate once, in place, and its
  per-parameter slices are subtracted from every replica; its buffer
  then returns to a free list the next step's fold draws from, so a
  steady step allocates nothing proportional to P (sync holds one
  buffer, ``stale-k`` holds k+1).  The reducer's ``mode`` knob
  selects ``sync`` (communication exposed after backward), ``overlap``
  (buckets pipeline behind backward; numerics unchanged), or ``stale-<k>``
  (a k-deep deque of in-flight reduces: each step's reduce may hide under
  the next k compute windows and the reduced dense gradient lands k steps
  late — ``stale-0`` is exactly ``sync`` and keeps the bit-parity
  guarantee; any ``k > 0`` changes numerics but stays deterministic and
  drift-free).
* **Bounded-staleness embedding pipeline** — with ``lookahead_window=W``
  a :class:`~repro.core.lookahead.CachedEmbeddingPipeline` walks the
  loader's eagerly-drawn epoch order W batches ahead of training
  (BagPipe-style), prefetches the rows upcoming batches touch into a
  coherent per-replica cache (priced via
  :func:`~repro.hwsim.collectives.cache_fill_time`), and defers merged
  sparse-gradient write-backs until a row leaves the window or the
  reducer's staleness bound ``k`` is hit.  With ``k = 0`` the pipeline is
  pure accounting (bit-identical numerics); cache hit/staleness counters
  surface through :class:`~repro.core.engine.StepOutcome`.
* **Sparse gradients** go through
  :class:`~repro.core.reducer.SparseGradientExchange` — per-table merge in
  deterministic ``(replica, µ-batch)`` order, exactly the accumulation a
  parameter-less embedding all-reduce performs.
* With ``partition_embeddings=True`` a
  :class:`~repro.core.placement.PartitionedEmbeddingPlacement` splits every
  table row-wise across the shards (model parallelism).  Ownership drives
  per-shard memory accounting, the priced all-to-all of remotely-owned
  lookups (:func:`~repro.hwsim.collectives.embedding_alltoall_time`), and
  the routing of merged sparse gradients back to their owner shards; each
  replica keeps a coherent full copy, so partitioning changes
  *communication accounting*, never numerics.

**One dense pass per step.**  Every replica applies identical dense and
sparse updates in every mode (sync, overlap, stale-k, with or without the
lookahead cache or a tier), so replica 0's weights are every replica's
weights: each step runs the K shards' µ-batches as **one** pass of replica
0's model over the whole mini-batch (segments offset into global-batch
coordinates, in shard order), folding per-µ-batch dense partials in the
replica-major order K separate passes would produce.  With the
segment-packed dense path that turns K·S small GEMMs per layer into one.

**The parity guarantee.**  In ``sync`` (and ``overlap``) mode the K-replica
run is **bit-identical** to a merged-gradient trainer that accumulates all
shards' gradients in one shared model — the numerical reference kept in
the test oracle (``tests/oracle.py``: ``MergedGradientTrainer``), which
``tests/core/test_replica_parity.py`` compares against for K ∈ {1, 2, 4}
on DLRM and TBSM.  The guarantee holds because every floating-point
addition happens in the same order: per-µ-batch gradient partials are
chain-summed by the reducer's ring fold in the same rank-major sequence
the shared model accumulates them in its layers, and
``merge_sparse_gradients`` sees the identical ordered partial list.  The
oracle's ``SequentialDLRM``/``SequentialTBSM`` models, passed to this
trainer, give the per-µ-batch sequential schedule the fused pass must
reproduce in every mode.  All replicas apply identical updates, so they
stay bit-identical to each other
(:meth:`ShardedHotlineTrainer.replica_drift` is exactly zero) — a property
the test harness also asserts.

Simulated time: per-shard compute comes from the perf model; the dense
synchronisation term is the reducer's per-bucket schedule (ring or tree,
hierarchical across nodes), reported per bucket in
:class:`~repro.core.engine.TrainingResult.bucket_comm_s`; partitioned runs
add the embedding all-to-all term Figure 1b attributes to model-parallel
lookups.
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.baselines.base import ExecutionModel
from repro.core.accelerator import HotlineAccelerator
from repro.core.classifier import split_minibatch
from repro.core.engine import StepExecutor, StepOutcome, TrainingEngine, TrainingResult
from repro.core.lookahead import (
    CachedEmbeddingPipeline,
    epoch_row_stream,
    shard_epoch_row_stream,
)
from repro.core.placement import EmbeddingPlacement, PartitionedEmbeddingPlacement
from repro.core.reducer import GradientBucketReducer, SparseGradientExchange
from repro.core.schedule import CommOp, ComposedSchedule, FlatLinks, StepSchedule
from repro.data.batch import MiniBatch
from repro.data.loader import MiniBatchLoader
from repro.hwsim.cluster import Cluster, single_node
from repro.hwsim.collectives import comm_op_time
from repro.nn.embedding import TieredEmbeddingStore


@dataclass
class ShardReplica:
    """One logical data-parallel replica.

    Attributes:
        accelerator: The shard's Hotline accelerator (its own EAL).
        model: The replica's own model instance (dense parameters and
            embedding tables).
        placement: The shard's EAL-derived embedding placement, built by the
            learning phase.
    """

    accelerator: HotlineAccelerator
    model: Any
    placement: EmbeddingPlacement | None = None


class ShardedHotlineTrainer(StepExecutor):
    """Hotline training over K genuinely separate model replicas.

    Each replica owns its own dense parameters, optimizer state, embedding
    tables, accelerator, and placement.  Dense gradients synchronise through
    an explicit :class:`~repro.core.reducer.GradientBucketReducer`; sparse
    gradients through a :class:`~repro.core.reducer.SparseGradientExchange`;
    optional row-wise table partitioning adds the model-parallel dimension.
    The trainer's ``cluster`` is authoritative for pricing: a replaced
    ``reducer`` or a mid-run ``cluster`` swap is re-pointed at it on the
    next priced step, so every communication term re-prices consistently.

    Args:
        model: Template model.  Replica 0 adopts this exact instance (so the
            caller's reference observes training); replicas 1..K-1 are deep
            copies, bit-identical at start.
        num_shards: Number of data-parallel replicas (one per logical GPU).
        cluster: Hardware topology the shards map onto, one shard per GPU;
            defaults to a single node with ``num_shards`` GPUs.
        lr: SGD learning rate.
        sample_fraction: Learning-phase sampling fraction per shard.
        hbm_budget_bytes: Per-GPU budget for each shard's hot replica.
        perf_model: Optional execution model pricing per-shard compute.
        seed: Base seed; shard k's accelerator is seeded ``seed + k`` so
            the per-shard EALs track their own access streams.
        bucket_bytes: Fixed wire-byte bucket size of the dense all-reduce.
        mode: ``"sync"`` / ``"overlap"`` / ``"stale-<k>"`` — see
            :class:`~repro.core.reducer.GradientBucketReducer`.  ``sync``,
            ``overlap``, and ``stale-0`` are bit-identical to a
            merged-gradient trainer; ``stale-k`` (k > 0) applies the
            reduced dense gradient k steps late through a k-deep deque of
            in-flight reduces (deterministic and drift-free, but a
            different trajectory).
        algorithm: ``"ring"`` or ``"tree"`` association order.  Only
            ``"ring"`` carries the bit-parity guarantee (it reproduces the
            reference's sequential accumulation); ``"tree"`` is a
            deterministic alternative that changes the association.
        partition_embeddings: Row-partition every embedding table across the
            K shards (hybrid data+model parallelism).  Affects memory and
            communication accounting only — never numerics.
        lookahead_window: Enable the BagPipe-style
            :class:`~repro.core.lookahead.CachedEmbeddingPipeline` with a
            window of this many batches (0 disables it).  The pipeline
            shares the reducer's staleness bound: sparse write-backs defer
            until a row leaves the window or is k steps stale, so with
            ``sync``/``stale-0`` it is pure accounting (numerics
            untouched).
        per_shard_lookahead: Give each replica its own *accounting*
            lookahead cache keyed to its contiguous shard slice of every
            batch (:func:`~repro.core.lookahead.shard_epoch_row_stream`),
            so per-GPU cache capacity and fill traffic differentiate by
            shard — skewed shards fill more.  The per-shard pipelines
            price the fills (each shard fills its own cache in parallel,
            so the step charges the slowest shard); the global pipeline
            keeps owning the deferral *numerics* but stops pricing fills
            (``price_fills=False``) so no fill is charged twice.
            Requires ``lookahead_window > 0``.
        tiered_hot_bytes: Front every replica's embedding tables with one
            shared :class:`~repro.nn.embedding.TieredEmbeddingStore` of
            this byte capacity (``None`` disables tiering).  The tier is
            built at :meth:`bind`: the learning-phase placement's hot rows
            are pinned resident (they replicate on every device), every
            lookup resolves through the tier (bit-identical numerics —
            pricing and hit/miss/eviction counters only), and LFU
            eviction keeps the resident set within capacity.  Tier
            counters surface through
            :class:`~repro.core.engine.StepOutcome`.
    """

    def __init__(
        self,
        model,
        num_shards: int,
        *,
        cluster: Cluster | None = None,
        lr: float = 0.05,
        sample_fraction: float = 0.05,
        hbm_budget_bytes: float = 512 * 1024 * 1024,
        perf_model: ExecutionModel | None = None,
        seed: int = 0,
        bucket_bytes: int = 4 * 1024 * 1024,
        mode: str = "sync",
        algorithm: str = "ring",
        partition_embeddings: bool = False,
        lookahead_window: int = 0,
        per_shard_lookahead: bool = False,
        tiered_hot_bytes: float | None = None,
    ):
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        self.model = model
        self.num_shards = num_shards
        self.cluster = cluster or single_node(num_shards)
        if self.cluster.total_gpus != num_shards:
            raise ValueError(
                f"cluster has {self.cluster.total_gpus} GPUs but {num_shards} shards "
                "were requested (one shard per GPU)"
            )
        self.lr = lr
        self.sample_fraction = sample_fraction
        self.hbm_budget_bytes = hbm_budget_bytes
        self.perf_model = perf_model
        row_bytes = model.config.embedding_dim * model.config.dtype_bytes
        # Replica 0 adopts the caller's instance; the rest start as exact
        # deep copies and stay bit-identical through identical updates.
        self.replicas: list[ShardReplica] = [
            ShardReplica(
                accelerator=HotlineAccelerator(row_bytes=row_bytes, seed=seed + k),
                model=model if k == 0 else copy.deepcopy(model),
            )
            for k in range(num_shards)
        ]
        self.reducer = GradientBucketReducer(
            num_shards,
            bucket_bytes=bucket_bytes,
            mode=mode,
            algorithm=algorithm,
            cluster=self.cluster,
        )
        config = model.config
        self.partition: PartitionedEmbeddingPlacement | None = None
        if partition_embeddings:
            self.partition = PartitionedEmbeddingPlacement(
                rows_per_table=tuple(config.dataset.rows_per_table),
                num_shards=num_shards,
                embedding_dim=config.embedding_dim,
                dtype_bytes=config.dtype_bytes,
            )
        self.exchange = SparseGradientExchange(
            config.num_sparse_features, partition=self.partition
        )
        if lookahead_window < 0:
            raise ValueError("lookahead_window must be >= 0")
        if per_shard_lookahead and lookahead_window <= 0:
            raise ValueError("per_shard_lookahead requires lookahead_window > 0")
        #: Optional BagPipe-style cached-embedding lookahead pipeline.
        self.lookahead: CachedEmbeddingPipeline | None = None
        #: Per-shard accounting pipelines (empty unless per_shard_lookahead).
        self.shard_lookaheads: list[CachedEmbeddingPipeline] = []
        if lookahead_window > 0:
            self.lookahead = CachedEmbeddingPipeline(
                tuple(config.dataset.rows_per_table),
                window=lookahead_window,
                staleness=self.reducer.staleness,
                row_bytes=row_bytes,
                # Fills cross the owner all-to-all only when tables are
                # actually partitioned; with fully-replicated tables every
                # shard fills straight from its host DRAM (DMA term only),
                # so a non-partitioned run never pays a remote owner that
                # does not exist.
                num_replicas=num_shards if partition_embeddings else 1,
                link=self._fill_link(),
                # With per-shard caches the fills are priced per shard
                # slice below; the global pipeline keeps the deferral
                # numerics but must not charge the same fill again.
                price_fills=not per_shard_lookahead,
            )
            if per_shard_lookahead:
                self.shard_lookaheads = [
                    CachedEmbeddingPipeline(
                        tuple(config.dataset.rows_per_table),
                        window=lookahead_window,
                        staleness=0,  # accounting-only: never defers
                        row_bytes=row_bytes,
                        num_replicas=num_shards if partition_embeddings else 1,
                        link=self._fill_link(),
                    )
                    for _ in range(num_shards)
                ]
        if tiered_hot_bytes is not None and tiered_hot_bytes < 0:
            raise ValueError("tiered_hot_bytes must be >= 0 (or None to disable)")
        #: Byte capacity of the hot embedding tier (None = no tiering).
        self.tiered_hot_bytes = tiered_hot_bytes
        #: The shared hot/cold tier, built at bind() from the placements.
        self.tier: TieredEmbeddingStore | None = None
        #: Tier counters at the end of the previous step (delta tracking).
        self._tier_seen = (0, 0, 0)
        #: Reduced dense gradients in flight (``stale-k``: a k-deep deque —
        #: the gradient of step t is applied at step t + k).
        self._pending_dense: deque[np.ndarray | None] = deque()
        #: Free list of P-sized fold buffers: applied gradients return here
        #: and the next step's fold draws from it.
        self._dense_spare: list[np.ndarray] = []
        #: Cached per-bucket wire times, keyed on the reducer configuration
        #: and gradient size so a mid-run reconfiguration re-prices.
        self._bucket_times: list[float] | None = None
        self._bucket_times_key: tuple | None = None
        #: Loader bound by the engine (drives the lookahead epoch stream).
        self._bound_loader: MiniBatchLoader | None = None
        self._epoch_step = 0
        #: Remote (non-owned) lookups of the most recent step, all shards.
        self.last_remote_lookups: int = 0
        #: Merged sparse-gradient rows routed to owners in the last step.
        self.last_routed_rows: int = 0

    # ------------------------------------------------------------------ #
    # Learning phase (per shard)
    # ------------------------------------------------------------------ #
    def learning_phase(self, loader: MiniBatchLoader, seed: int = 0) -> list[EmbeddingPlacement]:
        """Profile each shard's slice of the sampled batches into its EAL.

        Every shard sees only its own contiguous slice of each sampled
        mini-batch — the same data it will train on — so its placement
        tracks the skew of *its* partition, exactly as a per-node EAL would.
        """
        sampled = loader.sample_batches(self.sample_fraction, seed=seed)
        for batch in sampled:
            shards = batch.shards(self.num_shards)
            for shard_batch, replica in zip(shards, self.replicas, strict=True):
                if shard_batch.size:
                    replica.accelerator.learn_from_batch(shard_batch.sparse)
        config = self.model.config
        num_tables = config.num_sparse_features
        for replica in self.replicas:
            hot_sets = replica.accelerator.hot_sets(num_tables)
            if replica.placement is None:
                replica.placement = EmbeddingPlacement(
                    hot_sets=hot_sets,
                    rows_per_table=config.dataset.rows_per_table,
                    embedding_dim=config.embedding_dim,
                    dtype_bytes=config.dtype_bytes,
                    hbm_budget_bytes=self.hbm_budget_bytes,
                )
            else:
                replica.placement.update_hot_sets(hot_sets)
        return [replica.placement for replica in self.replicas]

    def recalibrate(self, loader: MiniBatchLoader, seed: int = 0) -> None:
        """Re-enter the learning phase on every shard's EAL."""
        for replica in self.replicas:
            replica.accelerator.recalibrate()
        self.learning_phase(loader, seed=seed)

    # ------------------------------------------------------------------ #
    # Simulated timing
    # ------------------------------------------------------------------ #
    def shard_compute_time(self, batch_size: int) -> float:
        """Simulated compute time of one data-parallel step, sans collective.

        The perf model's cost layer already apportions a *global* batch
        across the cluster's GPUs (one shard each here), so it receives the
        full mini-batch size; dividing by ``num_shards`` first would charge
        each GPU for ``batch/K²`` samples.  The collective term is carved
        out because it is accounted separately (``dense_sync_time`` /
        the reducer's bucket schedule).
        """
        if self.perf_model is None:
            return 0.0
        # Same arithmetic as StepExecutor.timed_outcome's split
        # (step - min(step, collective) == max(0, step - collective)).
        step_time = self.perf_model.step_time(batch_size)
        return max(0.0, step_time - self.perf_model.collective_time())

    # ------------------------------------------------------------------ #
    # StepExecutor interface
    # ------------------------------------------------------------------ #
    def train(
        self,
        loader: MiniBatchLoader,
        *,
        epochs: int = 1,
        eval_batch: MiniBatch | None = None,
        eval_every: int = 0,
        recalibrations_per_epoch: int = 0,
    ) -> TrainingResult:
        """Train for ``epochs`` epochs with the sharded Hotline schedule."""
        return TrainingEngine(self).train(
            loader,
            epochs=epochs,
            eval_batch=eval_batch,
            eval_every=eval_every,
            recalibrations_per_epoch=recalibrations_per_epoch,
        )

    # ------------------------------------------------------------------ #
    # Dense-gradient plumbing
    # ------------------------------------------------------------------ #
    def _apply_dense_gradient(self, flat: np.ndarray) -> None:
        """SGD-update every replica's dense parameters from one reduced
        flat gradient, then recycle its buffer.

        The length is checked against every replica before anything
        changes — the replicas and ``flat`` itself.  Then ``flat`` is
        scaled by ``lr`` once, in place (``np.multiply(flat, lr,
        out=flat)`` gives the bits of ``lr * segment``), and each
        replica's parameters subtract their slices: the same arithmetic
        as ``model.apply_dense_update`` on in-layer gradients, which is
        what keeps the replica path bit-identical to the merged-gradient
        reference.
        """
        for replica in self.replicas:
            expected = replica.model.num_dense_parameters
            if flat.shape[0] != expected:
                raise ValueError(
                    f"reduced gradient has {flat.shape[0]} elements, model exposes {expected}"
                )
        np.multiply(flat, self.lr, out=flat)
        for replica in self.replicas:
            offset = 0
            for param, _grad in replica.model.dense_parameters():
                param -= flat[offset : offset + param.size].reshape(param.shape)
                offset += param.size
        self._dense_spare.append(flat)

    # ------------------------------------------------------------------ #
    # Lookahead plumbing
    # ------------------------------------------------------------------ #
    def _fill_link(self):
        """The link cache fills travel over (follows the live cluster)."""
        return (
            self.cluster.inter_link
            if self.cluster.num_nodes > 1
            else self.cluster.node.gpu_link
        )

    def bind(self, loader: MiniBatchLoader) -> None:
        """Prepare placements; start the run from a clean staleness state.

        A reused trainer must not leak one run's in-flight synchronisation
        into the next: the dense stale-k deque still holds the last k
        reduces of the previous run, and the lookahead still holds its
        deferred write-backs — both belong to the old schedule and are
        dropped here, so run B's first steps never apply run A's
        gradients.  Runs the per-shard learning phase if any shard lacks a
        placement.
        """
        if any(replica.placement is None for replica in self.replicas):
            self.learning_phase(loader)
        self._bound_loader = loader
        self._epoch_step = 0
        self._pending_dense.clear()
        if self.lookahead is not None:
            self.lookahead.reset()
        for pipe in self.shard_lookaheads:
            pipe.reset()
        if self.tiered_hot_bytes is not None:
            self._build_tier()

    def _build_tier(self) -> None:
        """(Re)build the shared hot/cold tier from the current placements.

        Called at :meth:`bind` so the tier pins the hot rows the learning
        phase just placed; rebinding rebuilds from scratch — fresh
        counters, fresh residency — so a reused trainer never reports a
        previous run's tier traffic (the counter-lifetime contract the
        DMA regression suite pins for the lookahead path).  One tier is
        shared by every replica's tables: it models one device's HBM
        front (replicated hot rows are pinned once).
        """
        config = self.model.config
        self.tier = TieredEmbeddingStore(
            tuple(config.dataset.rows_per_table),
            config.embedding_dim,
            hot_bytes=float(self.tiered_hot_bytes),
            dtype_bytes=config.dtype_bytes,
        )
        placement = self.replicas[0].placement
        if placement is not None:
            for table, hot in enumerate(placement.hot_sets):
                self.tier.pin_rows(table, hot)
        for replica in self.replicas:
            for table, bag in enumerate(replica.model.tables):
                bag.attach_tier(self.tier, table)
        self._tier_seen = (0, 0, 0)

    def _advance_lookahead(self, batch: MiniBatch) -> None:
        """Drive the cached pipeline's epoch window for one step.

        At each epoch boundary the pipeline restarts on the loader's
        freshly (and eagerly) drawn epoch order; anything still deferred
        from the previous epoch is applied first, *before* this step's
        forward pass, so no gradient is ever lost across epochs.  Without a
        bound loader the pipeline self-feeds (no lookahead, same
        guarantees).
        """
        assert self.lookahead is not None
        # The pipeline shares the reducer's *live* staleness bound and the
        # *live* cluster link, so a mid-run reconfiguration (mode flip,
        # cluster swap) keeps sparse staleness and fill pricing in step
        # with the dense path (defer flushes any over-aged backlog on its
        # own).
        self.lookahead.staleness = self.reducer.staleness
        self.lookahead.link = self._fill_link()
        epoch_len = len(self._bound_loader) if self._bound_loader is not None else 0
        if self._epoch_step == 0 or (epoch_len and self._epoch_step >= epoch_len):
            stream = (
                epoch_row_stream(self._bound_loader)
                if self._bound_loader is not None
                else None
            )
            carry = self.lookahead.begin_epoch(stream)
            if carry is not None:
                for replica in self.replicas:
                    replica.model.apply_sparse_updates(carry, self.lr)
            for shard, pipe in enumerate(self.shard_lookaheads):
                # Accounting-only pipelines (staleness 0, nothing ever
                # deferred): the epoch carry is always None.
                pipe.begin_epoch(
                    shard_epoch_row_stream(self._bound_loader, shard, self.num_shards)
                    if self._bound_loader is not None
                    else None
                )
            self._epoch_step = 0
        self._epoch_step += 1
        self.lookahead.observe(batch.sparse)
        if self.shard_lookaheads:
            # Each shard's cache windows its own contiguous slice — the
            # same bounds arithmetic as MiniBatch.shards — so fill traffic
            # and capacity differentiate by shard.  Empty slices still
            # observe: every pipeline must advance its window every step.
            size = batch.size
            for shard, pipe in enumerate(self.shard_lookaheads):
                lo = (shard * size) // self.num_shards
                hi = ((shard + 1) * size) // self.num_shards
                pipe.observe(batch.sparse[lo:hi])

    # ------------------------------------------------------------------ #
    # Acceleration phase
    # ------------------------------------------------------------------ #
    def _placement_token(self) -> tuple:
        """Identity + version fingerprint of every replica's hot-set index.

        A classification mask computed ahead of time is only valid while
        the bitmaps it was computed against are unchanged; comparing this
        token at consume time catches both in-place recalibration deltas
        (the version counter) and wholesale index replacement (the id).
        """
        return tuple(
            (id(replica.placement.index), replica.placement.index.version)
            for replica in self.replicas
        )

    def prepare_batch(self, batch: MiniBatch) -> MiniBatch:
        """Classify a future batch's shards off the critical path.

        The engine threads this through the loader's ``transform`` hook, so
        with prefetching enabled batch N+1's popular/non-popular bitmap
        pass (the `split_minibatch` classification) runs on the loader's
        worker thread while batch N's backward/optimizer work runs on the
        main thread — the accelerator-lane overlap of the hwsim schedule,
        now on the functional path.  The masks are annotated onto the
        batch together with a placement fingerprint;
        :meth:`train_step` uses them only while the fingerprint still
        matches (a recalibration in the gap invalidates them, and the step
        re-classifies inline).  ``classify`` is pure, so a valid
        precomputed mask is bit-identical to the inline pass — prefetch
        depth can never change numerics.
        """
        if any(replica.placement is None for replica in self.replicas):
            return batch
        token = self._placement_token()
        masks = tuple(
            replica.placement.index.classify(shard_batch.sparse)
            if shard_batch.size
            else None
            for shard_batch, replica in zip(
                batch.shards(self.num_shards), self.replicas, strict=True
            )
        )
        batch._hotline_masks = (token, masks)
        return batch

    def _take_masks(self, batch: MiniBatch) -> tuple | None:
        """The batch's precomputed per-shard masks, if still valid."""
        annotation = getattr(batch, "_hotline_masks", None)
        if annotation is None:
            return None
        token, masks = annotation
        if token != self._placement_token():
            return None
        return masks

    def train_step(self, batch: MiniBatch) -> tuple[float, float]:
        """One data-parallel step across the K replicas of ``batch``.

        Each shard is classified against its own replica's placement; then
        all K shards' µ-batches run as ONE pass of replica 0's model over
        the whole mini-batch, with each shard's segments offset into
        global-batch coordinates and concatenated in shard order.  The
        ``after_segment`` hook folds every µ-batch's dense gradient into
        the reducer's streaming fold as it is produced and zeroes the
        layers, so partials reach the fold — and per-segment sparse
        partials reach the exchange — in exactly the replica-major order K
        per-replica passes would produce (bit-identical to the
        merged-gradient reference in sync mode).  One pass stands for K
        because every replica applies the identical update, so replica 0's
        weights are every replica's weights.

        In ``stale-k`` mode (k > 0) the reduced dense gradient is applied
        ``k`` steps late through a k-deep deque (the first k steps apply
        none), modelling a pipeline of in-flight reduces at the cost of
        staleness; with a lookahead pipeline attached, merged sparse
        gradients defer under the same bound (flush on window exit or at
        age k).  Staleness is uniform across replicas, so they still never
        drift.

        Returns:
            ``(loss, popular_fraction)`` summed / averaged over the batch.
        """
        if any(replica.placement is None for replica in self.replicas):
            raise RuntimeError("learning_phase must run before training")
        if self.lookahead is not None:
            self._advance_lookahead(batch)
        precomputed = self._take_masks(batch)
        segments: list[np.ndarray] = []
        popular_size = 0
        remote_lookups = 0
        for shard_id, (shard_batch, replica) in enumerate(
            zip(batch.shards(self.num_shards), self.replicas, strict=True)
        ):
            if shard_batch.size == 0:
                continue
            if self.partition is not None:
                remote_lookups += self.partition.remote_lookup_count(
                    shard_batch.sparse, shard_id
                )
            micro = split_minibatch(
                shard_batch,
                replica.placement.index,
                mask=precomputed[shard_id] if precomputed is not None else None,
            )
            start = (shard_id * batch.size) // self.num_shards
            segments.extend(seg + start for seg in micro.segment_indices())
            popular_size += micro.popular_count
        self.last_remote_lookups = remote_lookups

        model = self.replicas[0].model
        fold = self.reducer.fold(model.num_dense_parameters, self._dense_spare)

        def after_segment(_segment, _loss):
            fold.add([grad for _param, grad in model.dense_parameters()])
            model.zero_grad()

        model.zero_grad()
        # Global-batch normalisation keeps the reduced K-replica update
        # identical to the single-replica one (Eq. 5).
        losses, partial_sparse = model.fused_loss_and_gradients(
            batch, segments, normalizer=batch.size, after_segment=after_segment
        )
        # Sequential adds in segment order: the merged reference's sum.
        total_loss = 0.0
        for loss in losses:
            total_loss += loss

        reduced = fold.result() if fold.count else None
        merged = self.exchange.exchange(partial_sparse)
        if self.partition is not None:
            # The modeled sparse-gradient all-to-all of hybrid parallelism:
            # actually route every table's merged rows to their owner shards
            # and count what arrived, so the reported stat reflects the
            # routing that ran (a partition of the merged rows — the
            # property suite proves the pieces reassemble exactly).
            self.last_routed_rows = sum(
                piece.nnz
                for table, grad in enumerate(merged)
                for piece in self.exchange.route(table, grad)
            )

        # The k-deep staleness pipeline: this step's reduce joins the queue
        # and everything deeper than the *current* bound drains out.  One
        # pop per step in steady state; if the bound shrank mid-run (a
        # reconfigured reducer), the whole backlog drains this step rather
        # than being stranded in the deque — no gradient is ever dropped.
        staleness = self.reducer.staleness
        self._pending_dense.append(reduced)
        dense_updates: list[np.ndarray] = []
        while len(self._pending_dense) > staleness:
            popped = self._pending_dense.popleft()
            if popped is not None:
                dense_updates.append(popped)
        if self.lookahead is not None:
            # Staleness was synced from the reducer in _advance_lookahead;
            # defer flushes any over-aged backlog on its own.
            sparse_updates = self.lookahead.defer(merged)
        else:
            sparse_updates = merged
        for flat in dense_updates:
            self._apply_dense_gradient(flat)
        for replica in self.replicas:
            replica.model.apply_sparse_updates(sparse_updates, self.lr)
        popular_fraction = popular_size / batch.size if batch.size else 0.0
        return total_loss, popular_fraction

    # ------------------------------------------------------------------ #
    # End-of-run drain
    # ------------------------------------------------------------------ #
    def finalize(self) -> StepOutcome | None:
        """Apply every in-flight gradient before the final evaluation.

        Drains the stale-k deque of reduced dense gradients (in flight
        order) and the lookahead pipeline's still-deferred sparse
        write-backs (:meth:`~repro.core.lookahead.CachedEmbeddingPipeline.
        drain`), applying both to every replica.  Without this, the last k
        dense reduces and the deferred rows died with the run — so a
        stale-k sweep's final metrics compared models trained on different
        numbers of gradients.  Sync-mode runs have nothing in flight and
        return ``None``.
        """
        dense_updates = [flat for flat in self._pending_dense if flat is not None]
        self._pending_dense.clear()
        sparse_updates = None
        stale_rows = 0
        prefetch = 0.0
        if self.lookahead is not None:
            sparse_updates = self.lookahead.drain()
            if sparse_updates is not None:
                stats = self.lookahead.last_stats
                stale_rows = stats.stale_rows
                prefetch = stats.prefetch_time_s
        if not dense_updates and sparse_updates is None:
            return None
        for flat in dense_updates:
            self._apply_dense_gradient(flat)
        if sparse_updates is not None:
            for replica in self.replicas:
                replica.model.apply_sparse_updates(sparse_updates, self.lr)
        # The drain's write-back traffic has no step to hide under, so it
        # is exposed communication in full.
        return StepOutcome(
            loss=0.0,
            communication_time_s=prefetch,
            comm_lanes_s=(("prefetch", prefetch),),
            stale_rows=stale_rows,
            prefetch_time_s=prefetch,
            pending_bytes=(
                self.lookahead.peak_pending_bytes if self.lookahead is not None else 0
            ),
        )

    # ------------------------------------------------------------------ #
    # Replica invariants
    # ------------------------------------------------------------------ #
    def replica_drift(self) -> float:
        """Maximum absolute parameter deviation of any replica from replica 0.

        Identical updates keep replicas bit-identical, so this is exactly
        ``0.0`` in every mode (even ``stale-1`` — staleness is uniform);
        the test harness asserts it.
        """
        reference = self.replicas[0].model
        drift = 0.0
        for replica in self.replicas[1:]:
            for (param, _), (other, _) in zip(
                reference.dense_parameters(), replica.model.dense_parameters(), strict=True
            ):
                drift = max(drift, float(np.max(np.abs(param - other), initial=0.0)))
            for table, other_table in zip(
                reference.tables, replica.model.tables, strict=True
            ):
                drift = max(
                    drift, float(np.max(np.abs(table.weight - other_table.weight), initial=0.0))
                )
        return drift

    # ------------------------------------------------------------------ #
    # Simulated timing
    # ------------------------------------------------------------------ #
    def _step_bucket_times(self) -> list[float]:
        """Per-bucket wire times of one step's dense all-reduce.

        Cached, but keyed on the reducer's configuration signature and the
        gradient size: a reducer reconfigured (or swapped) mid-run — bucket
        bytes, mode, replica count, cluster — re-prices the schedule
        instead of reporting stale wire times.
        """
        # The trainer's cluster is authoritative for *all* of its pricing
        # (dense wire, lookups all-to-all, cache fills): a mid-run
        # ``trainer.cluster`` swap re-prices the bucket schedule too, not
        # just the sparse paths.
        if self.reducer.cluster is not self.cluster:
            self.reducer.cluster = self.cluster
        key = (self.reducer.signature, self.model.num_dense_parameters)
        if self._bucket_times is None or self._bucket_times_key != key:
            self._bucket_times = self.reducer.bucket_times(self.model.num_dense_parameters)
            self._bucket_times_key = key
        return self._bucket_times

    def dense_schedule(self) -> StepSchedule:
        """One step's dense all-reduce as a mode-composed schedule object."""
        return self.reducer.comm_schedule(self._step_bucket_times())

    def dense_sync_time(self) -> float:
        """Total wire time of one step's bucketed dense all-reduce."""
        return self.dense_schedule().total_s

    def alltoall_time(self, remote_lookups: int) -> float:
        """Priced all-to-all of remotely-owned lookups (partitioned runs)."""
        if self.partition is None or remote_lookups <= 0:
            return 0.0
        op = CommOp(
            "embedding_alltoall",
            tier="node",
            rows=float(remote_lookups),
            row_bytes=self.partition.row_bytes,
            participants=self.num_shards,
        )
        return comm_op_time(op, FlatLinks(self._fill_link()))

    # ------------------------------------------------------------------ #
    # StepExecutor interface
    # ------------------------------------------------------------------ #
    def run_step(self, batch: MiniBatch) -> StepOutcome:
        """One replicated step with its per-bucket communication schedule.

        The exposed communication term combines the reducer's bucket
        schedule, the partitioned-lookup all-to-all, and the lookahead
        prefetch tail (fill traffic runs W steps ahead, so only the part
        that outlives one compute window is exposed); the cache and
        staleness counters come straight from the pipeline's step stats.

        With the lookahead attached, the per-lookup all-to-all of
        partitioned runs is *not* charged: every looked-up row sits in the
        window cache, whose fills already paid the owner round-trip
        (:func:`~repro.hwsim.collectives.cache_fill_time`) — the BagPipe
        trade of per-lookup exchange for per-fill prefetch traffic.
        ``last_remote_lookups`` keeps reporting the avoided volume.
        """
        loss, popular_fraction = self.train_step(batch)
        compute = self.shard_compute_time(batch.size)
        bucket_times = self._step_bucket_times()
        dense = self.reducer.comm_schedule(bucket_times)
        stats = self.lookahead.last_stats if self.lookahead is not None else None
        prefetch = stats.prefetch_time_s if stats is not None else 0.0
        if self.shard_lookaheads:
            # K shards fill their caches in parallel: the step waits for
            # the slowest shard's fills, on top of the global pipeline's
            # (fill-unpriced) write-back traffic.
            prefetch += max(
                pipe.last_stats.prefetch_time_s for pipe in self.shard_lookaheads
            )
        lookup_alltoall = (
            0.0 if self.lookahead is not None
            else self.alltoall_time(self.last_remote_lookups)
        )
        # Three independent lanes expose against the same compute window:
        # the mode-composed dense all-reduce, the (fully exposed) lookup
        # all-to-all, and the prefetch traffic that runs one step ahead —
        # a staged(1) schedule, so only the tail outliving one compute
        # window is paid.
        comm = ComposedSchedule(
            (
                dense,
                StepSchedule.sequential((lookup_alltoall,), label="lookup-alltoall"),
                StepSchedule.staged((prefetch,), 1, label="prefetch"),
            )
        )
        tier_hits = tier_misses = tier_evictions = 0
        if self.tier is not None:
            seen = self._tier_seen
            now = (self.tier.hits, self.tier.misses, self.tier.evictions)
            tier_hits, tier_misses, tier_evictions = (
                now[0] - seen[0],
                now[1] - seen[1],
                now[2] - seen[2],
            )
            self._tier_seen = now
        return StepOutcome(
            loss=loss,
            popular_fraction=popular_fraction,
            compute_time_s=compute,
            communication_time_s=comm.exposed_time(compute),
            comm_lanes_s=comm.lane_exposures(compute),
            bucket_times_s=tuple(bucket_times),
            cache_hits=stats.cache_hits if stats is not None else 0,
            cache_misses=stats.cache_misses if stats is not None else 0,
            cache_fill_rows=stats.fill_rows if stats is not None else 0,
            stale_rows=stats.stale_rows if stats is not None else 0,
            prefetch_time_s=prefetch,
            pending_bytes=(
                self.lookahead.peak_pending_bytes if self.lookahead is not None else 0
            ),
            tier_hits=tier_hits,
            tier_misses=tier_misses,
            tier_evictions=tier_evictions,
        )
