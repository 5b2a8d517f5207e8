"""Tests for the programmatic experiment registry."""

import pytest

from repro.experiments import Experiment, list_experiments, run_experiment
from tests.helpers import CROSS_ORDER_RTOL


def test_registry_lists_all_performance_figures():
    ids = [experiment.id for experiment in list_experiments()]
    assert ids == sorted(ids, key=ids.index)  # stable order
    for expected in ("fig3", "fig5", "fig19", "fig22", "fig25", "fig26", "fig30"):
        assert expected in ids
    assert all(isinstance(e, Experiment) and e.title for e in list_experiments())


def test_unknown_experiment_raises():
    with pytest.raises(KeyError):
        run_experiment("fig99")


def test_fig19_structure_and_claims():
    data = run_experiment("fig19")
    assert "Criteo Terabyte / 4 GPU" in data
    entry = data["Criteo Terabyte / 4 GPU"]
    assert entry["over_xdl"] > entry["over_dlrm"] > entry["over_fae"] > 1.0


def test_fig22_contains_oom_markers():
    data = run_experiment("fig22")
    assert data["Criteo Terabyte / 1 GPU"] == "OOM"
    assert isinstance(data["Criteo Terabyte / 4 GPU"], float)


def test_fig25_gather_hidden_at_default_ratio():
    data = run_experiment("fig25")
    assert data[0.8]["hidden"] is True
    assert data[0.2]["exposed_ms"] >= data[0.8]["exposed_ms"]


def test_fig26_speedups_grow_with_batch():
    data = run_experiment("fig26")
    for label, sweep in data.items():
        batches = sorted(sweep)
        assert sweep[batches[-1]] > sweep[batches[1]], label


def test_fig30_oom_pattern():
    data = run_experiment("fig30")
    assert data["SYN-M2 / 4 node(s)"] == "OOM"
    assert isinstance(data["SYN-M1 / 4 node(s)"], float)


def test_fig30f_functional_scaling_is_loss_invariant():
    data = run_experiment("fig30f")
    losses = [entry["final_loss"] for entry in data.values()]
    assert losses[0] == pytest.approx(losses[1], rel=CROSS_ORDER_RTOL)
    assert losses[0] == pytest.approx(losses[2], rel=CROSS_ORDER_RTOL)
    comm = [entry["communication_time_s"] for entry in data.values()]
    assert comm[0] > 0.0 and comm[2] > comm[1] > comm[0]
    for entry in data.values():
        assert entry["simulated_time_s"] == pytest.approx(
            entry["compute_time_s"] + entry["communication_time_s"]
        )


def test_breakdowns_sum_to_one():
    for fig in ("fig3", "fig4", "fig5"):
        data = run_experiment(fig)
        for label, breakdown in data.items():
            assert sum(breakdown.values()) == pytest.approx(1.0), (fig, label)


def test_fig30_replicated_registered():
    ids = [experiment.id for experiment in list_experiments()]
    assert "fig30r" in ids
    assert ids.index("fig30r") == ids.index("fig30f") + 1


def test_fig30_stale_lookahead_registered():
    ids = [experiment.id for experiment in list_experiments()]
    assert "fig30s" in ids
    assert ids.index("fig30s") == ids.index("fig30r") + 1


def test_fig30_nested_pipeline_registered():
    ids = [experiment.id for experiment in list_experiments()]
    assert "fig30n" in ids
    assert ids.index("fig30n") == ids.index("fig30s") + 1


@pytest.mark.slow
def test_fig30n_sweeps_past_1024_devices_and_reports_crossover():
    """Acceptance: the nested-pipelining sweep reaches >= 1,024 simulated
    devices on the hierarchical topology and locates the scale where the
    Hotline split stops paying relative to nested stage pipelining."""
    data = run_experiment("fig30n")
    sweep = data["sweep"]
    assert max(sweep) >= 1024
    for devices, row in sweep.items():
        assert row["nodes"] * 8 == devices
        assert row["hotline_step_s"] > 0.0 and row["nested_step_s"] > 0.0
        assert row["pipeline_stages"] * row["pipeline_replicas"] == row["nodes"]
    smallest, largest = min(sweep), max(sweep)
    # The popular/non-popular split pays at testbed scale...
    assert sweep[smallest]["nested_speedup"] < 1.0
    # ...and stops paying at the large end, inside the sweep.
    assert sweep[largest]["nested_speedup"] > 1.0
    crossover = data["crossover_devices"]
    assert crossover is not None and smallest < crossover <= largest
    # Hotline's whole-cluster spine all-reduce is what grows; the nested
    # arm's per-stage replica ring stays far cheaper at the large end.
    assert (
        sweep[largest]["hotline_dense_sync_s"]
        > 5.0 * sweep[largest]["nested_dense_sync_s"]
    )
