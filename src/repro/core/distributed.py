"""K-shard data/model-parallel Hotline training on one model.

:class:`ShardedHotlineTrainer` splits every mini-batch into K contiguous
shards, one per logical GPU.  Data-parallel replicas hold identical weights
and apply identical updates, so the trainer keeps **one** model and, per
shard, only what differs between shards: the accelerator with its EAL and
the EAL-derived placement (:class:`Shard`).  The GPU-only objection the
paper raises, a full copy of the tables on every device, is a cost the
simulated cluster pays, not one this host pays K times.

* **One dense pass per step.**  Each shard is classified against its own
  placement; then all K shards' µ-batches run as one pass of the model
  over the whole mini-batch, with segments offset into global-batch
  coordinates in shard order.  With the segment-packed dense path that
  turns K·S small GEMMs per layer into one.
* **Dense gradients** accumulate in the model's layers, segment after
  segment in shard order.  That is the association a ring all-reduce of
  the per-µ-batch partials produces, and the one the merged-gradient
  oracle accumulates in.  The
  :class:`~repro.core.reducer.GradientBucketReducer` prices the
  all-reduce per bucket; its ``mode`` selects ``sync`` (communication
  exposed after backward), ``overlap`` (buckets pipeline behind backward;
  numerics unchanged) or ``stale-<k>``.  Under ``stale-k`` the layers'
  sum is copied into a recycled flat buffer that waits in a k-deep deque
  and lands k steps late (``stale-0`` is exactly ``sync``; any ``k > 0``
  changes numerics but stays deterministic).  The oldest gradient lands
  before the newest is copied into its buffer, so at most k such buffers
  are live: BagPipe's bound of k updates in flight.
* **Sparse gradients** stay in one flat key space over every table (row
  ``r`` of table ``t`` is key ``offsets[t] + r``, see
  :mod:`repro.nn.embedding`) from the scatter to the update, so each
  sparse stage runs once per step.  The one pass over the whole batch
  yields one flat-keyed partial per µ-batch, in shard order;
  :class:`~repro.core.reducer.SparseGradientExchange` merges them with
  one merge in deterministic ``(shard, µ-batch)`` order, exactly the
  accumulation a parameter-less embedding all-reduce performs; the model
  splits the result by table offsets at the update.
* **Bounded-staleness embedding pipeline** — with ``lookahead_window=W``
  one :class:`~repro.core.lookahead.CachedEmbeddingPipeline` walks the
  loader's eagerly-drawn epoch order W batches ahead of training
  (BagPipe-style), prefetches the rows upcoming batches touch into a
  coherent cache (priced via
  :func:`~repro.hwsim.collectives.cache_fill_time`), and defers the
  merged gradient's write-backs until a row leaves the window or the
  reducer's staleness bound ``k`` is hit.  With ``k = 0`` the pipeline is
  pure accounting (bit-identical numerics); cache hit/staleness counters
  surface through :class:`~repro.core.engine.StepOutcome`.
* With ``partition_embeddings=True`` a
  :class:`~repro.core.placement.PartitionedEmbeddingPlacement` splits every
  table row-wise across the shards (model parallelism).  Ownership drives
  per-shard memory accounting and the priced all-to-all of remotely-owned
  lookups (:func:`~repro.hwsim.collectives.embedding_alltoall_time`); the
  one model keeps the full tables, so partitioning changes *communication
  accounting*, never numerics.

**The parity guarantee.**  In ``sync``, ``overlap`` and ``stale-0`` mode
the K-shard run is **bit-identical** to the test oracle's merged-gradient
trainer (``tests/oracle.py``: ``MergedGradientTrainer``), which
``tests/core/test_replica_parity.py`` compares against for K ∈ {1, 2, 4}
on DLRM and TBSM.  Both accumulate the same per-µ-batch partials in the
same layers in the same order, and ``merge_sparse_gradients`` sees the
identical ordered partial list.  The oracle's
``SequentialDLRM``/``SequentialTBSM`` models, passed to this trainer, give
the per-µ-batch sequential schedule the fused pass must reproduce in every
mode.

Simulated time: per-shard compute comes from the perf model; the dense
synchronisation term is the reducer's per-bucket ring schedule
(hierarchical across nodes), reported per bucket in
:class:`~repro.core.engine.TrainingResult.bucket_comm_s`; partitioned runs
add the embedding all-to-all term Figure 1b attributes to model-parallel
lookups, and a bound hot tier adds the DMA traffic it priced in the step.

With ``num_shards=1`` this is the single-GPU Hotline schedule;
:class:`~repro.core.pipeline.HotlineTrainer` is that one-shard trainer.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.baselines.base import ExecutionModel
from repro.core.accelerator import HotlineAccelerator
from repro.core.classifier import split_minibatch
from repro.core.engine import StepExecutor, StepOutcome
from repro.core.lookahead import CachedEmbeddingPipeline, epoch_row_stream
from repro.core.placement import EmbeddingPlacement, PartitionedEmbeddingPlacement
from repro.core.reducer import GradientBucketReducer, SparseGradientExchange
from repro.core.schedule import CommOp, ComposedSchedule, FlatLinks, StepSchedule
from repro.data.batch import MiniBatch
from repro.data.loader import MiniBatchLoader
from repro.hwsim.cluster import Cluster, single_node
from repro.hwsim.collectives import comm_op_time
from repro.nn.embedding import TieredEmbeddingStore


@dataclass
class Shard:
    """What one data-parallel shard holds beyond the shared model.

    Attributes:
        accelerator: The shard's Hotline accelerator (its own EAL).
        placement: The shard's EAL-derived embedding placement, built by the
            learning phase.
    """

    accelerator: HotlineAccelerator
    placement: EmbeddingPlacement | None = None


class ShardedHotlineTrainer(StepExecutor):
    """Hotline training of one model over K data-parallel shards.

    Every shard has its own accelerator and placement; the dense
    parameters, optimizer state and embedding tables are the one model's.
    Dense gradients accumulate in the model's layers and are priced by an
    explicit :class:`~repro.core.reducer.GradientBucketReducer`; sparse
    gradients merge through a
    :class:`~repro.core.reducer.SparseGradientExchange`; optional row-wise
    table partitioning adds the model-parallel dimension.  The
    configuration is fixed at construction: the constructor prices the
    dense all-reduce once on ``cluster``, and every step reuses that
    schedule, so a different mode, bucket size or cluster is a new
    trainer (as the fig30r/fig30s sweeps build one per mode).

    Args:
        model: The model every shard trains; the caller's instance is
            updated in place.
        num_shards: Number of data-parallel shards (one per logical GPU).
        cluster: Hardware topology the shards map onto, one shard per GPU;
            defaults to a single node with ``num_shards`` GPUs.
        lr: SGD learning rate.
        sample_fraction: Learning-phase sampling fraction per shard.
        perf_model: Optional execution model pricing per-shard compute.
        seed: Base seed; shard k's accelerator is seeded ``seed + k`` so
            the per-shard EALs track their own access streams.
        bucket_bytes: Fixed wire-byte bucket size of the dense all-reduce.
        mode: ``"sync"`` / ``"overlap"`` / ``"stale-<k>"`` — see
            :class:`~repro.core.reducer.GradientBucketReducer`.  ``sync``,
            ``overlap``, and ``stale-0`` are bit-identical to a
            merged-gradient trainer; ``stale-k`` (k > 0) applies the
            reduced dense gradient k steps late through a k-deep deque of
            in-flight reduces (deterministic, but a different trajectory).
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
        tiered_hot_bytes: Front the model's embedding tables with a
            :class:`~repro.nn.embedding.TieredEmbeddingStore` of
            this byte capacity (``None`` disables tiering).  The tier is
            built at :meth:`bind`: shard 0's learning-phase hot rows are
            pinned resident in one call (they replicate on every device,
            bounded by the EAL's capacity), each step's whole lookup
            block resolves through the tier in one touch (bit-identical
            numerics — pricing and hit/miss/eviction counters only), and
            LFU eviction keeps the cached rows beside the pinned ones
            within this capacity.  Tier counters surface through
            :class:`~repro.core.engine.StepOutcome`, and the tier's priced
            DMA seconds join the step's communication schedule as the
            ``tier-fetch`` and ``tier-writeback`` lanes (see
            :meth:`run_step`).
    """

    def __init__(
        self,
        model,
        num_shards: int,
        *,
        cluster: Cluster | None = None,
        lr: float = 0.05,
        sample_fraction: float = 0.05,
        perf_model: ExecutionModel | None = None,
        seed: int = 0,
        bucket_bytes: int = 4 * 1024 * 1024,
        mode: str = "sync",
        partition_embeddings: bool = False,
        lookahead_window: int = 0,
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
        self.perf_model = perf_model
        rows_per_table = model.config.dataset.rows_per_table
        row_bytes = model.config.embedding_dim * model.config.dtype_bytes
        self.shards: list[Shard] = [
            Shard(HotlineAccelerator(rows_per_table, row_bytes=row_bytes, seed=seed + k))
            for k in range(num_shards)
        ]
        self.reducer = GradientBucketReducer(
            num_shards, bucket_bytes=bucket_bytes, mode=mode, cluster=self.cluster
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
        self.exchange = SparseGradientExchange(partition=self.partition)
        #: The link cache fills and the lookup all-to-all travel over.
        self._link = (
            self.cluster.inter_link
            if self.cluster.num_nodes > 1
            else self.cluster.node.gpu_link
        )
        #: One step's dense all-reduce, priced once: per-bucket wire times
        #: in the reducer mode's composition.
        self._dense_schedule = self.reducer.comm_schedule(
            self.reducer.bucket_times(model.num_dense_parameters)
        )
        if lookahead_window < 0:
            raise ValueError("lookahead_window must be >= 0")
        #: Optional BagPipe-style cached-embedding lookahead pipeline.
        self.lookahead: CachedEmbeddingPipeline | None = None
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
                link=self._link,
            )
        if tiered_hot_bytes is not None and tiered_hot_bytes < 0:
            raise ValueError("tiered_hot_bytes must be >= 0 (or None to disable)")
        #: Byte capacity of the hot embedding tier (None = no tiering).
        self.tiered_hot_bytes = tiered_hot_bytes
        #: The shared hot/cold tier, built at bind() from the placements.
        self.tier: TieredEmbeddingStore | None = None
        #: Tier counters and priced fetch/write-back seconds at the end of
        #: the previous step (delta tracking; see _tier_totals).
        self._tier_seen = (0, 0, 0, 0.0, 0.0)
        #: Reduced dense gradients in flight (``stale-k``: a k-deep deque —
        #: the gradient of step t is applied at step t + k, and its buffer
        #: then takes step t + k's gradient).
        self._pending_dense: deque[np.ndarray | None] = deque()
        #: Loader bound by the engine (drives the lookahead epoch stream).
        self._bound_loader: MiniBatchLoader | None = None
        self._epoch_step = 0
        #: Remote (non-owned) lookups of the most recent step, all shards.
        self.last_remote_lookups: int = 0

    # ------------------------------------------------------------------ #
    # Learning phase (per shard)
    # ------------------------------------------------------------------ #
    def learning_phase(self, loader: MiniBatchLoader, seed: int = 0) -> list[EmbeddingPlacement]:
        """Profile each shard's slice of the sampled batches into its EAL.

        Every shard sees only its own contiguous slice of each sampled
        mini-batch — the same data it will train on — so its placement
        tracks the skew of *its* partition, exactly as a per-node EAL would.
        The shards learn one after the other in one set of EAL arrays:
        shard k reads its slice of every sampled batch, its hot sets are
        taken and its EAL releases the arrays (counters kept), and shard
        k + 1's EAL reuses them from empty.  So a phase allocates one
        array set, dropped once the last shard's hot sets are taken.  Each
        EAL sees exactly its own accesses in batch order, as when the
        shards interleave.
        """
        sampled = [
            batch.shards(self.num_shards)
            for batch in loader.sample_batches(self.sample_fraction, seed=seed)
        ]
        config = self.model.config
        num_tables = config.num_sparse_features
        arrays = None
        for k, shard in enumerate(self.shards):
            shard.accelerator.eal.reuse(arrays)
            for shards in sampled:
                if shards[k].size:
                    shard.accelerator.learn_from_batch(shards[k].sparse)
            hot_sets = shard.accelerator.hot_sets(num_tables)
            arrays = shard.accelerator.eal.release()
            if shard.placement is None:
                shard.placement = EmbeddingPlacement(
                    hot_sets=hot_sets,
                    rows_per_table=config.dataset.rows_per_table,
                    embedding_dim=config.embedding_dim,
                    dtype_bytes=config.dtype_bytes,
                )
            else:
                shard.placement.update_hot_sets(hot_sets)
        return [shard.placement for shard in self.shards]

    def recalibrate(self, loader: MiniBatchLoader, seed: int = 0) -> None:
        """Re-enter the learning phase on every shard's EAL.

        Every EAL is cleared, and the phase learns in one fresh array set
        as :meth:`learning_phase` does.  A bound tier then re-pins shard
        0's new hot set
        (:meth:`~repro.nn.embedding.TieredEmbeddingStore.repin`: only the
        rows that drifted move); the next step's tier counters and priced
        seconds include the move's preload and any eviction it caused.
        """
        for shard in self.shards:
            shard.accelerator.recalibrate()
        self.learning_phase(loader, seed=seed)
        if self.tier is not None:
            self.tier.repin(self.shards[0].placement.index.hot_keys)

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
    # Dense-gradient plumbing
    # ------------------------------------------------------------------ #
    def _copy_dense_gradient(self, flat: np.ndarray | None) -> np.ndarray:
        """The layers' accumulated dense gradient as one flat array, copied
        into ``flat`` (a landed gradient's buffer) or, without one, into a
        new array (``stale-k`` keeps it in flight)."""
        grads = [grad.ravel() for _param, grad in self.model.dense_parameters()]
        if flat is None:
            flat = np.empty(sum(grad.size for grad in grads), dtype=grads[0].dtype)
        return np.concatenate(grads, out=flat)

    def _apply_dense_gradient(self, flat: np.ndarray) -> None:
        """SGD-update the dense parameters from one flat gradient, which
        holds ``lr`` times the gradient afterwards.

        The length is checked before anything changes — the parameters
        and ``flat`` itself.  Then ``flat`` is scaled by ``lr`` once, in
        place (``np.multiply(flat, lr, out=flat)`` gives the bits of
        ``lr * segment``), and the parameters subtract their slices: the
        same arithmetic as ``model.apply_dense_update`` on in-layer
        gradients, so a gradient that waited in the ``stale-k`` deque
        lands with the bits it would have had in sync mode.
        """
        expected = self.model.num_dense_parameters
        if flat.shape[0] != expected:
            raise ValueError(
                f"reduced gradient has {flat.shape[0]} elements, model exposes {expected}"
            )
        np.multiply(flat, self.lr, out=flat)
        offset = 0
        for param, _grad in self.model.dense_parameters():
            param -= flat[offset : offset + param.size].reshape(param.shape)
            offset += param.size

    # ------------------------------------------------------------------ #
    # Lookahead plumbing
    # ------------------------------------------------------------------ #
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
        if any(shard.placement is None for shard in self.shards):
            self.learning_phase(loader)
        self._bound_loader = loader
        self._epoch_step = 0
        self._pending_dense.clear()
        if self.lookahead is not None:
            self.lookahead.reset()
        if self.tiered_hot_bytes is not None:
            self._build_tier()

    def _build_tier(self) -> None:
        """(Re)build the hot/cold tier from the current placements.

        Called at :meth:`bind` so the tier pins the hot rows the learning
        phase just placed, every table's in one
        :meth:`~repro.nn.embedding.TieredEmbeddingStore.repin` of shard 0's
        flat hot keys (:meth:`recalibrate` re-pins the same way);
        rebinding rebuilds from scratch — fresh counters, fresh residency —
        so a reused trainer never reports a previous run's tier traffic
        (the counter-lifetime contract the DMA regression suite pins for
        the lookahead path).  The tier fronts the model's tables: it models
        one device's HBM front (replicated hot rows are pinned once).
        """
        config = self.model.config
        self.tier = TieredEmbeddingStore(
            tuple(config.dataset.rows_per_table),
            config.embedding_dim,
            hot_bytes=float(self.tiered_hot_bytes),
            dtype_bytes=config.dtype_bytes,
        )
        self.tier.repin(self.shards[0].placement.index.hot_keys)
        self.model.embedding.attach_tier(self.tier)
        # The preload of the pinned rows is set-up, not a step's traffic.
        self._tier_seen = self._tier_totals()

    def _tier_totals(self) -> tuple:
        """The bound tier's running counters and priced seconds."""
        tier = self.tier
        return (
            tier.hits,
            tier.misses,
            tier.evictions,
            tier.fetch_time_s,
            tier.writeback_time_s,
        )

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
        epoch_len = len(self._bound_loader) if self._bound_loader is not None else 0
        if self._epoch_step == 0 or (epoch_len and self._epoch_step >= epoch_len):
            stream = (
                epoch_row_stream(self._bound_loader, self.lookahead.rows_per_table)
                if self._bound_loader is not None
                else None
            )
            carry = self.lookahead.begin_epoch(stream)
            if carry is not None:
                self.model.apply_sparse_updates(carry, self.lr)
            self._epoch_step = 0
        self._epoch_step += 1
        self.lookahead.observe(batch.sparse)

    # ------------------------------------------------------------------ #
    # Acceleration phase
    # ------------------------------------------------------------------ #
    def _placement_token(self) -> tuple:
        """Identity + version fingerprint of every shard's hot-set index.

        A classification mask computed ahead of time is only valid while
        the bitmap it was computed against is unchanged; comparing this
        token at consume time catches both in-place recalibration deltas
        (the version counter) and wholesale index replacement (the id).
        """
        return tuple(
            (id(shard.placement.index), shard.placement.index.version)
            for shard in self.shards
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
        if any(shard.placement is None for shard in self.shards):
            return batch
        token = self._placement_token()
        masks = tuple(
            shard.placement.index.classify(shard_batch.sparse)
            if shard_batch.size
            else None
            for shard_batch, shard in zip(
                batch.shards(self.num_shards), self.shards, strict=True
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
        """One data-parallel step across the K shards of ``batch``.

        Each shard is classified against its own placement; then all K
        shards' µ-batches run as ONE pass of the model over the whole
        mini-batch, with each shard's segments offset into global-batch
        coordinates and concatenated in shard order.  Dense partials
        accumulate in the layers and the flat-keyed sparse partials reach
        the exchange in that shard-major order: the ring sum of K
        per-shard passes, and bit-identical to the merged-gradient
        reference in sync mode.

        In ``stale-k`` mode (k > 0) the layers' dense gradient is copied
        into a k-deep deque and applied ``k`` steps late (the first k
        steps apply none), modelling a pipeline of in-flight reduces at the
        cost of staleness; with a lookahead pipeline attached, merged
        sparse gradients defer under the same bound (flush on window exit
        or at age k).

        Returns:
            ``(loss, popular_fraction)`` summed / averaged over the batch.
        """
        if any(shard.placement is None for shard in self.shards):
            raise RuntimeError("learning_phase must run before training")
        if self.lookahead is not None:
            self._advance_lookahead(batch)
        precomputed = self._take_masks(batch)
        segments: list[np.ndarray] = []
        popular_size = 0
        remote_lookups = 0
        for shard_id, (shard_batch, shard) in enumerate(
            zip(batch.shards(self.num_shards), self.shards, strict=True)
        ):
            if shard_batch.size == 0:
                continue
            if self.partition is not None:
                remote_lookups += self.partition.remote_lookup_count(
                    shard_batch.sparse, shard_id
                )
            micro = split_minibatch(
                shard_batch,
                shard.placement.index,
                mask=precomputed[shard_id] if precomputed is not None else None,
            )
            start = (shard_id * batch.size) // self.num_shards
            segments.extend(seg + start for seg in micro.segment_indices())
            popular_size += micro.popular_count
        self.last_remote_lookups = remote_lookups

        model = self.model
        model.zero_grad()
        # Global-batch normalisation keeps the K-shard update identical to
        # the single-replica one (Eq. 5).
        losses, partials = model.fused_loss_and_gradients(
            batch, segments, normalizer=batch.size
        )
        # Sequential adds in segment order: the merged reference's sum.
        total_loss = 0.0
        for loss in losses:
            total_loss += loss

        merged = self.exchange.exchange(partials)

        # Sync applies the layers' sum in place.  Otherwise, once the
        # k-deep staleness queue is full, its oldest gradient lands (the
        # layers' gradients stay as they are), and this step's gradient
        # joins the queue as a flat copy in the landed one's buffer.
        staleness = self.reducer.staleness
        if staleness == 0:
            if segments:
                model.apply_dense_update(self.lr)
        else:
            flat = None
            if len(self._pending_dense) == staleness:
                flat = self._pending_dense.popleft()
                if flat is not None:
                    self._apply_dense_gradient(flat)
            self._pending_dense.append(self._copy_dense_gradient(flat) if segments else None)
        if self.lookahead is not None:
            sparse_updates = self.lookahead.defer(merged)
        else:
            sparse_updates = merged
        model.apply_sparse_updates(sparse_updates, self.lr)
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
        drain`), applying both to the model.  Without this, the last k
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
            self.model.apply_sparse_updates(sparse_updates, self.lr)
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
    # Simulated timing
    # ------------------------------------------------------------------ #
    def dense_sync_time(self) -> float:
        """Total wire time of one step's bucketed dense all-reduce."""
        return self._dense_schedule.total_s

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
        return comm_op_time(op, FlatLinks(self._link))

    # ------------------------------------------------------------------ #
    # StepExecutor interface
    # ------------------------------------------------------------------ #
    def run_step(self, batch: MiniBatch) -> StepOutcome:
        """One data-parallel step with its per-bucket communication schedule.

        The exposed communication term combines the reducer's bucket
        schedule, the partitioned-lookup all-to-all, and the lookahead
        prefetch tail (fill traffic runs W steps ahead, so only the part
        that outlives one compute window is exposed); the cache and
        staleness counters come straight from the pipeline's step stats.
        A bound tier adds what it priced since the previous step: its
        demand fetches in full (a missing row blocks the gather) and the
        tail of its dirty write-backs that outlives one compute window
        (they run off the critical path, as the scheduler's cold-row
        write-back does).  A recalibration's re-pin is priced in the step
        after it; the preload at :meth:`bind` is set-up.

        With the lookahead attached, the per-lookup all-to-all of
        partitioned runs is *not* charged: every looked-up row sits in the
        window cache, whose fills already paid the owner round-trip
        (:func:`~repro.hwsim.collectives.cache_fill_time`) — the BagPipe
        trade of per-lookup exchange for per-fill prefetch traffic.
        ``last_remote_lookups`` keeps reporting the avoided volume.
        """
        loss, popular_fraction = self.train_step(batch)
        compute = self.shard_compute_time(batch.size)
        dense = self._dense_schedule
        stats = self.lookahead.last_stats if self.lookahead is not None else None
        prefetch = stats.prefetch_time_s if stats is not None else 0.0
        lookup_alltoall = (
            0.0 if self.lookahead is not None
            else self.alltoall_time(self.last_remote_lookups)
        )
        # Independent lanes expose against the same compute window: the
        # mode-composed dense all-reduce, the (fully exposed) lookup
        # all-to-all, and the prefetch traffic that runs one step ahead —
        # a staged(1) schedule, so only the tail outliving one compute
        # window is paid.
        lanes = (
            dense,
            StepSchedule.sequential((lookup_alltoall,), label="lookup-alltoall"),
            StepSchedule.staged((prefetch,), 1, label="prefetch"),
        )
        tier_hits = tier_misses = tier_evictions = 0
        if self.tier is not None:
            now = self._tier_totals()
            tier_hits, tier_misses, tier_evictions, fetch, writeback = (
                total - seen for total, seen in zip(now, self._tier_seen, strict=True)
            )
            self._tier_seen = now
            lanes += (
                StepSchedule.sequential((fetch,), label="tier-fetch"),
                StepSchedule.staged((writeback,), 1, label="tier-writeback"),
            )
        comm = ComposedSchedule(lanes)
        return StepOutcome(
            loss=loss,
            popular_fraction=popular_fraction,
            compute_time_s=compute,
            communication_time_s=comm.exposed_time(compute),
            comm_lanes_s=comm.lane_exposures(compute),
            bucket_times_s=dense.segments_s,
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
