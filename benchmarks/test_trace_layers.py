"""The step trace sees every layer of the step: one gather, one scatter
and, on the tiered workloads, one tier touch a step, and at least one span
of each dense layer.

Every step-benchmark workload trains a model whose tables sit in one
table-batched :class:`~repro.nn.embedding.EmbeddingBag`, so each steady
step makes exactly one ``nn.embedding.gather`` call over the whole
``(batch, tables, pooling)`` block and one ``nn.embedding.scatter`` call
producing every µ-batch's flat-keyed gradient.  With a hot tier attached
the gather resolves the block's flat keys through it in one
``nn.embedding.tier`` call; without one there is none.  This drives the
tracer of ``benchmarks/step`` on its ``TINY`` plan and counts what it
recorded per steady step.

The tracer patches names in ``src/`` where it expects the step to look
them up (the loss epilogue in ``repro.models.dlrm``, the model's update
methods, the packed MLP instances, the interaction kernel); a refactor that
moves one would make its layer read zero, so each must show up every step.
"""

from __future__ import annotations

import multiprocessing
import threading

import pytest

from benchmarks.step.trace import Tracer, installed
from benchmarks.step.workloads import TINY, WORKLOADS, make_inputs, train_once

GATHER = "nn.embedding.gather"
SCATTER = "nn.embedding.scatter"
TIER = "nn.embedding.tier"
#: Layers every steady step must record at least once on the step's thread.
STEP_LAYERS = (
    "nn.loss.epilogue",
    "models.dlrm.update",
    "nn.gemm.bottom_mlp",
    "nn.gemm.top_mlp",
    "nn.interaction.dot",
)


def steady_step_counts(workload: str) -> list[dict[str, float]]:
    """Per steady step: the gather, scatter and tier spans on the step's
    thread, the traced gather rows and scatter nnz, the rows of the step's
    whole id block, and the spans of each of :data:`STEP_LAYERS`."""
    spec = WORKLOADS[workload]
    inputs = make_inputs(spec, 3, TINY)
    tracer = Tracer()
    with installed(tracer):
        run = train_once(spec, inputs, TINY, 0.0, tracer)
    main = threading.main_thread().ident
    dataset = inputs.config.dataset
    counts = []
    for step in range(TINY.warmup, run.steps):
        names = [span.name for span in tracer.spans if span.tid == main and span.step == step]
        counters = tracer.counters[step]
        counts.append(
            {
                "gather_spans": names.count(GATHER),
                "scatter_spans": names.count(SCATTER),
                "tier_spans": names.count(TIER),
                "gather_rows": counters[f"{GATHER}_rows"],
                "block_rows": run.samples[step] * dataset.num_sparse * dataset.pooling,
                "scatter_nnz": counters[f"{SCATTER}_nnz"],
                "layer_spans": {layer: names.count(layer) for layer in STEP_LAYERS},
            }
        )
    return counts


@pytest.fixture(scope="module")
def counts():
    names = sorted(WORKLOADS)
    # Train in a fresh interpreter, as the step benchmark's smoke test does,
    # so the runs' heap and BLAS state stay out of later timing tests.
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        return dict(zip(names, pool.map(steady_step_counts, names), strict=True))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_one_gather_and_one_scatter_per_steady_step(counts, workload):
    steps = counts[workload]
    assert len(steps) >= TINY.min_steady
    for step in steps:
        assert step["gather_spans"] == 1 and step["scatter_spans"] == 1, step
        assert step["gather_rows"] == step["block_rows"], step
        assert step["scatter_nnz"] > 0, step


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_one_tier_touch_per_steady_step_on_tiered_workloads(counts, workload):
    tiered = WORKLOADS[workload].tier_share is not None
    assert tiered == workload.endswith("-tier")
    steps = counts[workload]
    assert len(steps) >= TINY.min_steady
    for step in steps:
        assert step["tier_spans"] == int(tiered), step


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_dense_layer_is_traced_each_steady_step(counts, workload):
    steps = counts[workload]
    assert len(steps) >= TINY.min_steady
    for step in steps:
        assert all(spans >= 1 for spans in step["layer_spans"].values()), step
