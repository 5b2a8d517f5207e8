"""Smoke test of the step benchmark: every workload at a tiny size."""

from __future__ import annotations

import json
import multiprocessing

import pytest

from benchmarks.step import run as bench
from benchmarks.step import trace as steptrace
from benchmarks.step.workloads import TINY, WORKLOADS


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    out = tmp_path_factory.mktemp("trace")
    keys = [(name, trace) for name in WORKLOADS for trace in (False, True)]
    jobs = [(name, 3, 0.0, trace, TINY, 1, out) for name, trace in keys]
    # Train in a fresh interpreter: the runs' heap and BLAS state would
    # otherwise stay in this process and shift the timing tests after it.
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        done = pool.starmap(bench.measure, jobs)
    return dict(zip(keys, done, strict=True)), out


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_metric_names_and_units_match_benchmark_json(reports, workload):
    runs, _ = reports
    for trace, spec in ((False, bench.END_TO_END), (True, bench.PER_LAYER)):
        result = runs[(workload, trace)].result
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            k: m["unit"] for k, m in spec.items()
        }


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_layer_self_times_add_up_to_the_step(reports, workload):
    report = reports[0][(workload, True)]
    on_path = sum(
        ms
        for name, (ms, _calls) in report.layers.items()
        if name not in (steptrace.LOADER_WAIT, steptrace.CLASSIFY)
    )
    step_ms = report.result["metrics"]["trace.step_ms"]["value"]
    assert on_path == pytest.approx(step_ms, rel=0.01)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_losses_equal_untraced(reports, workload):
    # The per-layer pass fails its check when the two runs' losses differ.
    report = reports[0][(workload, True)]
    assert report.problems == []
    assert report.result["attempted"] == 2 * (TINY.warmup + TINY.trace_min_steady)


def test_tracer_restores_every_patched_attribute():
    def current():
        return [getattr(owner, attr) for _, owner, attr, _ in steptrace.GLOBAL_PATCHES]

    before = current()
    with steptrace.installed(steptrace.Tracer()):
        assert all(hasattr(fn, "__wrapped__") for fn in current())
    assert all(a is b for a, b in zip(current(), before, strict=True))


def test_chrome_trace_has_complete_events_per_thread(reports):
    _, out = reports
    for name in WORKLOADS:
        events = json.loads((out / f"{name}.trace.json").read_text())["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert complete
        for event in complete:
            assert {"name", "ph", "ts", "dur", "pid", "tid"} <= set(event)
        assert any(e["name"] == steptrace.STEP for e in complete)
        # The loader's prefetch thread classifies on its own tid.
        assert len({e["tid"] for e in complete}) >= 2


def _entries(workload, values):
    return [
        {"workload": workload, "seed": i, "trace": False,
         "metrics": {"samples_per_s": {"value": v, "unit": "samples/s"}}}
        for i, v in enumerate(values)
    ]


@pytest.mark.parametrize(
    ("parent", "change", "expected"),
    [
        ([100, 101, 99, 100, 100], [130, 131, 129, 130, 130], "improved"),
        ([100, 101, 99, 100, 100], [101, 100, 102, 101, 100], "unchanged"),
        ([100, 101, 99, 100, 100], [70, 71, 69, 70, 70], "regressed"),
        ([60, 140, 80, 120, 100], [95, 100, 105, 90, 110], "unresolved"),
        ([60, 140, 80, 120, 100], [150, 160, 170, 155, 165], "improved"),
        ([60, 140, 80, 120, 100], [40, 45, 50, 55, 42], "regressed"),
    ],
)
def test_compare_verdicts(tmp_path, parent, change, expected):
    a, b = tmp_path / "parent.json", tmp_path / "change.json"
    a.write_text(json.dumps(_entries("k4-sync", parent)))
    b.write_text(json.dumps(_entries("k4-sync", change)))
    rows = bench.compare(a, b)
    assert [(r[0], r[1], r[-1]) for r in rows] == [("k4-sync", "samples_per_s", expected)]
