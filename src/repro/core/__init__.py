"""Hotline core: the accelerator and the heterogeneous training pipeline.

This package implements the paper's contribution:

* :mod:`repro.core.eal` — the Embedding Access Logger, a 4 MB multi-banked
  SRAM cache with SRRIP replacement that tracks frequently-accessed
  embedding indices online (Section V-B, Figures 14-16).
* :mod:`repro.core.lookup_engine` — the Feistel-network randomizer that
  hashes keys onto EAL sets, and the cycle model of the parallel 2-D lookup
  network that classifies inputs as popular or non-popular (Section V-C,
  Figure 17).
* :mod:`repro.core.reducer` — the cycle model of the sparse-length-sum
  pooling ALU array (Section V-D) and the gradient collectives.
* :mod:`repro.core.hotset` / :mod:`repro.core.classifier` /
  :mod:`repro.core.placement` — the flat hot-set bitmap that classifies a
  mini-batch, µ-batch fragmentation and the access-aware embedding layout.
* :mod:`repro.core.accelerator` — the assembled Hotline accelerator device
  model with Table IV specs, segregation, gather, scatter and write-back
  timing, and area/power.  The Data Dispatcher (Section V-A) and the ISA
  (Section V-E, Table I) are priced through that timing and the
  dispatcher's area/power row, not modelled as objects.
* :mod:`repro.core.scheduler` — the layout-aware pipeline scheduler that
  overlaps non-popular parameter gathering with popular µ-batch execution
  (Figure 12).
* :mod:`repro.core.engine` — the pluggable training engine: one train loop
  (epochs, eval cadence, recalibration schedule, prefetching, result
  recording) shared by every functional trainer via step executors.
* :mod:`repro.core.pipeline` — the single-replica trainers: the baseline
  :class:`~repro.core.pipeline.ReferenceTrainer` and
  :class:`~repro.core.pipeline.HotlineTrainer`, the one-shard
  :class:`~repro.core.distributed.ShardedHotlineTrainer` (learning phase +
  acceleration phase), priced as the baseline is.
* :mod:`repro.core.distributed` — K-shard data/model-parallel training:
  :class:`~repro.core.distributed.ShardedHotlineTrainer` trains one model
  over K shards, each with its own accelerator and placement; the dense
  gradient's ring sum accumulates in the model's layers and a bucketed
  all-reduce (:class:`~repro.core.reducer.GradientBucketReducer`, with
  ``sync``/``overlap``/``stale-<k>`` modes) prices it, beside a
  deterministic sparse exchange, optionally with row-partitioned
  embedding tables
  (:class:`~repro.core.placement.PartitionedEmbeddingPlacement`).
* :mod:`repro.core.lookahead` — the BagPipe-style bounded-staleness
  embedding pipeline: :class:`~repro.core.lookahead.CachedEmbeddingPipeline`
  walks the loader's eager epoch order a window ahead, prefetches upcoming
  rows into a coherent per-replica cache (window refcounts over flat
  keys), and defers sparse write-backs until a row leaves the window or
  hits the staleness bound.
"""

from repro.core.accelerator import (
    HOTLINE_ACCELERATOR_SPEC,
    AcceleratorSpec,
    HotlineAccelerator,
)
from repro.core.classifier import MicroBatches, split_minibatch
from repro.core.distributed import Shard, ShardedHotlineTrainer
from repro.core.eal import (
    EALConfig,
    EmbeddingAccessLogger,
    OracleLFUTracker,
    expected_parallel_requests,
)
from repro.core.engine import (
    StepExecutor,
    StepOutcome,
    TrainingEngine,
    TrainingResult,
    evaluate,
    recalibration_points,
)
from repro.core.hotset import HotSetIndex, as_hot_set_index
from repro.core.lookahead import (
    CachedEmbeddingPipeline,
    LookaheadStats,
    epoch_row_stream,
)
from repro.core.lookup_engine import FeistelRandomizer, LookupEngineArray
from repro.core.pipeline import HotlineTrainer, ReferenceTrainer
from repro.core.placement import EmbeddingPlacement, PartitionedEmbeddingPlacement
from repro.core.reducer import GradientBucketReducer, Reducer, SparseGradientExchange
from repro.core.scheduler import HotlineScheduler, HotlineStepPlan

__all__ = [
    "HotSetIndex",
    "as_hot_set_index",
    "EALConfig",
    "EmbeddingAccessLogger",
    "OracleLFUTracker",
    "expected_parallel_requests",
    "FeistelRandomizer",
    "LookupEngineArray",
    "Reducer",
    "MicroBatches",
    "split_minibatch",
    "EmbeddingPlacement",
    "PartitionedEmbeddingPlacement",
    "GradientBucketReducer",
    "SparseGradientExchange",
    "AcceleratorSpec",
    "HotlineAccelerator",
    "HOTLINE_ACCELERATOR_SPEC",
    "HotlineStepPlan",
    "HotlineScheduler",
    "StepExecutor",
    "StepOutcome",
    "TrainingEngine",
    "TrainingResult",
    "evaluate",
    "recalibration_points",
    "ReferenceTrainer",
    "HotlineTrainer",
    "ShardedHotlineTrainer",
    "Shard",
    "CachedEmbeddingPipeline",
    "LookaheadStats",
    "epoch_row_stream",
]
