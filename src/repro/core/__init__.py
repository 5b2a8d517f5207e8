"""Hotline core: the accelerator and the heterogeneous training pipeline.

This package implements the paper's contribution:

* :mod:`repro.core.eal` — the Embedding Access Logger, a 4 MB multi-banked
  SRAM cache with SRRIP replacement that tracks frequently-accessed
  embedding indices online (Section V-B, Figures 14-16).
* :mod:`repro.core.lookup_engine` — the parallel 2-D lookup network with a
  Feistel-network randomizer that classifies inputs as popular or
  non-popular (Section V-C, Figure 17).
* :mod:`repro.core.dispatcher` — the Data Dispatcher: address registers,
  memory controller, input classifier, and input eDRAM (Section V-A).
* :mod:`repro.core.reducer` — sparse-length-sum pooling ALU array
  (Section V-D).
* :mod:`repro.core.isa` — the accelerator's six-instruction ISA and driver
  (Section V-E, Table I).
* :mod:`repro.core.classifier` / :mod:`repro.core.placement` — µ-batch
  fragmentation and the access-aware embedding layout.
* :mod:`repro.core.accelerator` — the assembled Hotline accelerator device
  model with Table IV specs, segregation-cycle and area/energy models.
* :mod:`repro.core.scheduler` — the layout-aware pipeline scheduler that
  overlaps non-popular parameter gathering with popular µ-batch execution
  (Figure 12).
* :mod:`repro.core.engine` — the pluggable training engine: one train loop
  (epochs, eval cadence, recalibration schedule, prefetching, result
  recording) shared by every functional trainer via step executors.
* :mod:`repro.core.pipeline` — the single-replica executors: the baseline
  :class:`~repro.core.pipeline.ReferenceTrainer` and the Hotline
  :class:`~repro.core.pipeline.HotlineTrainer` (learning phase +
  acceleration phase).
* :mod:`repro.core.distributed` — true multi-replica data/model-parallel
  training: :class:`~repro.core.distributed.ShardedHotlineTrainer` trains
  K genuinely separate replicas synchronised through a bucketed dense
  all-reduce (:class:`~repro.core.reducer.GradientBucketReducer`, with
  ``sync``/``overlap``/``stale-<k>`` modes) and a deterministic sparse
  exchange, optionally with row-partitioned embedding tables
  (:class:`~repro.core.placement.PartitionedEmbeddingPlacement`).
* :mod:`repro.core.lookahead` — the BagPipe-style bounded-staleness
  embedding pipeline: :class:`~repro.core.lookahead.CachedEmbeddingPipeline`
  walks the loader's eager epoch order a window ahead, prefetches upcoming
  rows into a coherent per-replica cache (HotSetIndex bitmaps), and defers
  sparse write-backs until a row leaves the window or hits the staleness
  bound.
"""

from repro.core.accelerator import (
    HOTLINE_ACCELERATOR_SPEC,
    AcceleratorSpec,
    HotlineAccelerator,
)
from repro.core.classifier import MicroBatches, split_minibatch
from repro.core.dispatcher import AddressRegisters, DataDispatcher, InputEDRAM
from repro.core.distributed import ShardedHotlineTrainer, ShardReplica
from repro.core.eal import (
    EALConfig,
    EmbeddingAccessLogger,
    OracleLFUTracker,
    expected_parallel_requests,
    simulate_parallel_requests,
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
from repro.core.isa import AcceleratorInterpreter, Instruction, InstructionDriver, Opcode
from repro.core.lookahead import (
    CachedEmbeddingPipeline,
    LookaheadStats,
    epoch_row_stream,
)
from repro.core.lookup_engine import FeistelRandomizer, LookupEngine, LookupEngineArray
from repro.core.pipeline import HotlineTrainer, ReferenceTrainer
from repro.core.placement import EmbeddingPlacement, PartitionedEmbeddingPlacement
from repro.core.reducer import (
    BucketSchedule,
    GradientBucketReducer,
    Reducer,
    SparseGradientExchange,
)
from repro.core.scheduler import HotlineScheduler, HotlineStepPlan

__all__ = [
    "HotSetIndex",
    "as_hot_set_index",
    "EALConfig",
    "EmbeddingAccessLogger",
    "OracleLFUTracker",
    "expected_parallel_requests",
    "simulate_parallel_requests",
    "FeistelRandomizer",
    "LookupEngine",
    "LookupEngineArray",
    "AddressRegisters",
    "DataDispatcher",
    "InputEDRAM",
    "Reducer",
    "Opcode",
    "Instruction",
    "InstructionDriver",
    "AcceleratorInterpreter",
    "MicroBatches",
    "split_minibatch",
    "EmbeddingPlacement",
    "PartitionedEmbeddingPlacement",
    "BucketSchedule",
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
    "ShardReplica",
    "CachedEmbeddingPipeline",
    "LookaheadStats",
    "epoch_row_stream",
]
