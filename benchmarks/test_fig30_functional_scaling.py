"""Figure 30 companion — multi-node scaling from a *functional* sharded run.

The original fig30 rows come from the timing model alone.  Here the
sync-mode :class:`~repro.core.distributed.ShardedHotlineTrainer` (its
reducer-mode sweep is ``fig30r``) actually trains a (scaled-down) DLRM at
4 shards per node and the engine reports per-shard compute plus the dense
all-reduce term from :mod:`repro.hwsim.collectives`.
The paper-shaped claims checked:

* the recorded losses are numerically identical at every node count — the
  K-shard update is the single-replica update (Eq. 5 across shards), so
  scaling out does not change what the model learns;
* the communication term grows with the node count and matches the
  hierarchical all-reduce cost model exactly.
"""

import pytest

from repro.analysis.report import format_table
from repro.experiments import run_experiment
from repro.hwsim.cluster import multi_node
from repro.hwsim.collectives import hierarchical_allreduce_time
from tests.helpers import CROSS_ORDER_RTOL


def test_fig30f_functional_scaling(benchmark):
    data = benchmark.pedantic(lambda: run_experiment("fig30f"), rounds=1, iterations=1)
    rows = [
        (
            label,
            entry["shards"],
            round(entry["final_loss"], 6),
            round(entry["compute_time_s"] * 1e3, 3),
            round(entry["communication_time_s"] * 1e3, 3),
        )
        for label, entry in data.items()
    ]
    print()
    print(
        format_table(
            ["nodes", "shards", "final loss", "compute ms", "allreduce ms"],
            rows,
            title="Figure 30 (functional): sharded Hotline scaling",
        )
    )
    one, two, four = (data[f"{n} node(s)"] for n in (1, 2, 4))
    # Eq. 5 across shards: scaling out never changes the training result.
    assert two["final_loss"] == pytest.approx(one["final_loss"], rel=CROSS_ORDER_RTOL)
    assert four["final_loss"] == pytest.approx(one["final_loss"], rel=CROSS_ORDER_RTOL)
    # The all-reduce term appears as soon as there is more than one shard
    # and grows once the ring spans InfiniBand instead of NVLink.
    assert one["communication_time_s"] > 0.0
    assert four["communication_time_s"] > two["communication_time_s"] > (
        one["communication_time_s"]
    )
    # And the multi-node term is exactly hwsim's hierarchical all-reduce
    # per iteration (4 steps of the 1024-sample epoch at batch 256).
    from repro.models import RM2
    from repro.models.dlrm import DLRM

    config = RM2.scaled(max_rows_per_table=600, samples_per_epoch=1024)
    grad_bytes = DLRM(config, seed=5).num_dense_parameters * 4.0
    steps = 4
    cluster = multi_node(4, 4)
    expected_per_step = hierarchical_allreduce_time(
        grad_bytes, 4, 4, cluster.node.gpu_link, cluster.inter_link
    )
    assert four["communication_time_s"] == pytest.approx(expected_per_step * steps)
