"""Step benchmark for Hotline training: host throughput end to end, per layer.

Run every workload, one fresh subprocess at a time, and print a table::

    PYTHONPATH=src python -m benchmarks.step.run --seed 41

Run one workload (the form ``BENCHMARK.json``'s command takes)::

    python3 benchmarks/step/run.py --workload k4-sync --seed 41 --seconds 15 --trace 0

End-to-end times are reference times: each measured wall time is scaled
by how fast a fixed calibration kernel ran alongside it, so that the
host's drifting speed cancels (see ``Calibrator`` and README.md).

``--trace 1`` replaces the end-to-end metrics by the per-layer ones: an
untraced and a traced run, each in a fresh subprocess, share the time
budget, their losses must agree bit for bit, and the traced run's first
32 steady steps are written as a Chrome trace to ``benchmarks/step/out/``.
``--out FILE`` appends each result to a JSON list; ``--compare PARENT
CHANGE`` reads two such files and gives a verdict per (workload, metric)
using the bounds in ``BENCHMARK.json``.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; the exit code is non-zero when a correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"no library to benchmark: {ROOT / 'src' / 'repro'} is missing")
    # Import the benchmark as a package and the library from the checkout.
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))
    # One BLAS thread, set before numpy loads and inherited by every
    # subprocess: on a host of few shared cores a second BLAS thread makes
    # each GEMM wait for whichever core another tenant holds (README.md).
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"

import numpy as np  # noqa: E402

from benchmarks.step import trace as steptrace  # noqa: E402
from benchmarks.step.workloads import (  # noqa: E402
    FULL,
    WORKLOADS,
    Plan,
    Run,
    make_inputs,
    nonfinite_steps,
    train_once,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

#: Set-ups measured per untraced run: this process's own plus fresh
#: subprocesses, so every one pays the lazy per-process GEMM certification.
SETUP_REPEATS = 5
#: Steady steps written to the Chrome trace.
TRACE_STEPS = 32
OUT_DIR = HERE / "out"

#: The calibrator's duration at the reference speed.  Every reported time
#: is a measured wall time scaled by ``CALIBRATION_REF_S`` over the
#: calibrator's duration measured alongside it, so it reads as the time the
#: same work takes when the machine runs at the reference speed.  The
#: value is about the calibrator's median on the machine the bounds were
#: set on (see README.md); it fixes the scale and nothing else.
CALIBRATION_REF_S = 0.8e-3


# ---------------------------------------------------------------------- #
# End-to-end metrics
# ---------------------------------------------------------------------- #
def cycles_s(run: Run) -> np.ndarray:
    """Wall seconds from each step's start to the next one's, less the
    benchmark's pause after it; the last step's own wall time."""
    starts = np.asarray(run.starts)
    cycles = np.diff(starts) - np.asarray(run.pauses[:-1])
    return np.append(cycles, run.ends[-1] - run.starts[-1])


def scales(run: Run) -> np.ndarray:
    """Per step, the factor turning its wall seconds into reference
    seconds, from the calibration right after it."""
    return CALIBRATION_REF_S / np.asarray(run.calibrations)


def samples_per_s(run: Run, warmup: int) -> float:
    """Steady samples per reference second.  A step's time runs from its
    start to the next step's start, so engine bookkeeping and loader waits
    count."""
    cycles = (cycles_s(run) * scales(run))[warmup:]
    return sum(run.samples[warmup:]) / float(cycles.sum())


def step_ms(run: Run, warmup: int) -> np.ndarray:
    """Steady ``run_step`` times in reference milliseconds."""
    return (np.subtract(run.ends, run.starts) * scales(run))[warmup:] * 1e3


def setup_s(run: Run) -> float:
    """The run's set-up time in reference seconds."""
    return run.setup_s * CALIBRATION_REF_S / run.setup_calibration_s


def end_to_end_metrics(run: Run, plan: Plan, setups: list[float]) -> dict[str, float]:
    """The end-to-end metrics of one untraced run."""
    return {
        "samples_per_s": samples_per_s(run, plan.warmup),
        "step_ms_p50": float(np.median(step_ms(run, plan.warmup))),
        "setup_s": statistics.median(setups),
        # Linux reports ru_maxrss in KiB.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "heldout_logloss": float(run.heldout_logloss),
    }


def printed_only(run: Run, plan: Plan) -> dict[str, tuple[float, str]]:
    """Values the table prints but the result line leaves out: the step
    time's 90th percentile, too noisy to bound (README.md), the unscaled
    wall-clock values, and the calibrator's own timing."""
    steady = slice(plan.warmup, None)
    return {
        "step_ms_p90": (float(np.percentile(step_ms(run, plan.warmup), 90)), "ms"),
        "wall.samples_per_s": (
            sum(run.samples[steady]) / cycles_s(run)[steady].sum(), "samples/s"
        ),
        "wall.step_ms_p50": (
            float(np.median(np.subtract(run.ends, run.starts)[steady])) * 1e3, "ms"
        ),
        "wall.setup_s": (run.setup_s, "s"),
        "calibration_ms_p50": (float(np.median(run.calibrations[steady])) * 1e3, "ms"),
    }


# ---------------------------------------------------------------------- #
# Per-layer metrics
# ---------------------------------------------------------------------- #
def layer_metrics(
    tracer: steptrace.Tracer, run: Run, plan: Plan
) -> tuple[dict[str, float], dict[str, tuple[float, float]]]:
    """Per-steady-step layer self times, calls and work counters.

    Returns the metrics plus, for the human-readable table, ``(ms, calls)``
    per step of every layer the run touched.
    """
    steady = range(plan.warmup, run.steps)
    n = len(steady)
    lo, hi = run.starts[plan.warmup], run.ends[-1]
    main = threading.main_thread().ident
    self_s: dict[str, float] = dict.fromkeys(steptrace.LAYERS, 0.0)
    calls: dict[str, int] = dict.fromkeys(steptrace.LAYERS, 0)
    for span in tracer.spans:
        if span.tid == main:
            keep = span.step in steady
        else:
            keep = span.name == steptrace.CLASSIFY and lo <= span.start <= hi
        if keep:
            self_s[span.name] += span.self_time
            calls[span.name] += 1
    table = {name: (self_s[name] * 1e3 / n, calls[name] / n) for name in steptrace.LAYERS}

    metrics: dict[str, float] = {}
    for name, (ms, per_step) in table.items():
        metrics[f"{name}.ms"] = ms
        metrics[f"{name}.calls"] = per_step
    counters: dict[str, float] = {}
    for index in steady:
        for key, value in tracer.counters.get(index, {}).items():
            counters[key] = counters.get(key, 0.0) + value
    for key in (
        "nn.embedding.gather_rows",
        "nn.embedding.scatter_nnz",
        "core.reducer.dense_partials",
        "core.reducer.dense_bytes",
    ):
        metrics[key] = counters.get(key, 0.0) / n

    outcomes = run.outcomes[plan.warmup :]
    total = lambda attr: float(sum(getattr(o, attr) for o in outcomes))  # noqa: E731
    ratio = lambda a, b: a / (a + b) if a + b else 0.0  # noqa: E731
    metrics["core.classifier.popular_fraction"] = total("popular_fraction") / n
    metrics["nn.embedding.tier_hit_rate"] = ratio(total("tier_hits"), total("tier_misses"))
    metrics["nn.embedding.tier_evictions"] = total("tier_evictions") / n
    metrics["core.lookahead.hit_rate"] = ratio(total("cache_hits"), total("cache_misses"))
    metrics["core.lookahead.fill_rows"] = total("cache_fill_rows") / n
    metrics["core.lookahead.stale_rows"] = total("stale_rows") / n
    metrics["core.lookahead.pending_peak_bytes"] = float(
        max(o.pending_bytes for o in outcomes)
    )
    metrics["proc.minor_faults"] = run.minor_faults / n
    metrics["proc.sys_ms"] = run.sys_s * 1e3 / n
    walls = [run.ends[i] - run.starts[i] for i in steady]
    metrics["trace.step_ms"] = float(np.mean(walls)) * 1e3
    off_path = (steptrace.STEP, steptrace.LOADER_WAIT, steptrace.CLASSIFY)
    named = sum(s for name, s in self_s.items() if name not in off_path)
    metrics["trace.coverage"] = named / sum(walls)
    return metrics, table


def simulated(run: Run, plan: Plan) -> dict[str, tuple[float, str]]:
    """hwsim time of the steady steps: throughput and lanes per step, all
    labelled simulated and never mixed with host time."""
    outcomes = run.outcomes[plan.warmup :]
    n = len(outcomes)
    sim_s = sum(o.step_time_s for o in outcomes)
    samples = sum(run.samples[plan.warmup :])
    lanes = {
        "sim.compute_ms": sum(o.compute_time_s for o in outcomes) * 1e3 / n,
        "sim.comm_exposed_ms": sum(o.communication_time_s for o in outcomes) * 1e3 / n,
    }
    for outcome in outcomes:
        for label, seconds in outcome.comm_lanes_s:
            key = f"sim.lane.{label}_ms"
            lanes[key] = lanes.get(key, 0.0) + seconds * 1e3 / n
    return {
        "sim.samples_per_s": (samples / sim_s if sim_s else 0.0, "samples/s simulated"),
        **{name: (ms, "ms simulated") for name, ms in lanes.items()},
    }


# ---------------------------------------------------------------------- #
# One workload
# ---------------------------------------------------------------------- #
def check(run: Run) -> tuple[int, list[str]]:
    """Failed steps and correctness problems of one run."""
    problems = []
    failed = nonfinite_steps(run)
    if failed:
        problems.append(f"{failed} steps with a non-finite loss")
    if run.heldout_logloss is not None and not np.isfinite(run.heldout_logloss):
        problems.append(f"held-out log-loss {run.heldout_logloss!r}")
    if run.drift is not None and run.drift != 0.0:
        problems.append(f"replica drift {run.drift!r} != 0.0")
    return failed, problems


def run_child(
    kind: str, workload: str, seed: int, seconds: float, plan: Plan, trace_file: Path | None
) -> dict:
    """Train once for a parent process (``--child``) and return what the
    parent needs as JSON values.

    ``setup`` returns one more ``setup_s``.  ``reference`` and ``traced``
    train the per-layer pass's two runs; ``traced`` also computes the layer
    metrics and writes the Chrome trace to ``trace_file``.
    """
    spec = WORKLOADS[workload]
    inputs = make_inputs(spec, seed, plan)
    if kind == "setup":
        probe = replace(plan, warmup=0, min_steady=1, eval_step=0)
        return {"setup_s": setup_s(train_once(spec, inputs, probe, 0.0))}
    tracer = steptrace.Tracer() if kind == "traced" else None
    if tracer is None:
        run = train_once(spec, inputs, plan, seconds)
    else:
        with steptrace.installed(tracer):
            run = train_once(spec, inputs, plan, seconds, tracer)
    failed, problems = check(run)
    payload = {
        "steps": run.steps,
        "losses": run.losses,
        "failed": failed,
        "problems": problems,
        "samples_per_s": samples_per_s(run, plan.warmup),
        "extra": simulated(run, plan),
    }
    if tracer is not None:
        payload["metrics"], payload["layers"] = layer_metrics(tracer, run, plan)
        tracer.chrome_trace(trace_file, range(plan.warmup, plan.warmup + TRACE_STEPS))
    return payload


def spawn(
    kind: str,
    workload: str,
    seed: int,
    plan: Plan,
    seconds: float = 0.0,
    trace_file: Path | None = None,
) -> dict:
    """:func:`run_child` in a fresh interpreter, which starts, like every
    measured run, with no GEMM certification and a fresh heap."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--child", kind, "--plan", json.dumps(asdict(plan)),
    ]
    if trace_file is not None:
        command += ["--trace-file", str(trace_file)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"{kind} run of {workload} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


@dataclass
class Report:
    """One workload's result line plus what the human-readable table shows."""

    workload: str
    result: dict
    steady_steps: int
    problems: list[str]
    layers: dict[str, tuple[float, float]] | None = None
    #: Printed ``(value, unit)`` pairs that the result line leaves out.
    extra: dict[str, tuple[float, str]] = field(default_factory=dict)


def result_line(
    problems: list[str], attempted: int, failed: int, metrics: dict, names: dict
) -> dict:
    """The JSON object printed last: ``names``' metrics with their units."""
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": m["unit"]} for name, m in names.items()
        },
    }


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    plan: Plan = FULL,
    setup_repeats: int = SETUP_REPEATS,
    out_dir: Path = OUT_DIR,
) -> Report:
    """Measure one workload: end to end in this process, or per layer in
    two fresh subprocesses."""
    if trace:
        return measure_layers(workload, seed, seconds, plan, out_dir)
    spec = WORKLOADS[workload]
    run = train_once(spec, make_inputs(spec, seed, plan), plan, seconds)
    failed, problems = check(run)
    setups = [setup_s(run)] + [
        spawn("setup", workload, seed, plan)["setup_s"] for _ in range(setup_repeats - 1)
    ]
    metrics = end_to_end_metrics(run, plan, setups)
    return Report(
        workload,
        result_line(problems, run.steps, failed, metrics, END_TO_END),
        run.steps - plan.warmup,
        problems,
        extra={**printed_only(run, plan), **simulated(run, plan)},
    )


def measure_layers(workload: str, seed: int, seconds: float, plan: Plan, out_dir: Path) -> Report:
    """The per-layer pass: an untraced and a traced run, each in a fresh
    subprocess with half the time budget, which must agree bit for bit."""
    plan = replace(plan, min_steady=plan.trace_min_steady, eval_step=0)
    reference = spawn("reference", workload, seed, plan, seconds / 2)
    traced = spawn(
        "traced", workload, seed, plan, seconds / 2, out_dir / f"{workload}.trace.json"
    )
    problems = reference["problems"] + traced["problems"]
    common = min(reference["steps"], traced["steps"])
    if reference["losses"][:common] != traced["losses"][:common]:
        problems.append("traced losses differ from the untraced run")
    metrics = traced["metrics"]
    metrics["trace.overhead"] = 1.0 - traced["samples_per_s"] / reference["samples_per_s"]
    return Report(
        workload,
        result_line(
            problems,
            reference["steps"] + traced["steps"],
            reference["failed"] + traced["failed"],
            metrics,
            PER_LAYER,
        ),
        traced["steps"] - plan.warmup,
        problems,
        {name: tuple(row) for name, row in traced["layers"].items()},
        {name: tuple(pair) for name, pair in traced["extra"].items()},
    )


def print_report(report: Report) -> None:
    """The human-readable table of one workload."""
    print(f"== {report.workload}: {report.steady_steps} steady steps")
    for name, metric in report.result["metrics"].items():
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    if report.layers is not None:
        step_ms = report.result["metrics"]["trace.step_ms"]["value"]
        print(f"  {'layer (self time per steady step)':<40} {'ms':>9} {'calls':>7} {'share':>7}")
        for name, (ms, calls) in report.layers.items():
            if calls:
                print(f"  {name:<40} {ms:>9.3f} {calls:>7.2f} {ms / step_ms:>7.1%}")
    for name, (value, unit) in report.extra.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    for problem in report.problems:
        print(f"  FAILED: {problem}")


# ---------------------------------------------------------------------- #
# Every workload, one subprocess each
# ---------------------------------------------------------------------- #
def measure_all(seed: int, seconds: float, trace: bool) -> tuple[dict, list]:
    """Run each workload in a fresh subprocess, one at a time.

    Returns the combined result, which keys metrics as
    ``<workload>/<metric>``, and each workload's own result.  A workload
    whose subprocess crashes counts as one failed attempt.
    """
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    results = []
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        print(done.stdout, end="")
        print(done.stderr, end="", file=sys.stderr)
        try:
            result = json.loads(done.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        results.append((name, result))
        combined["correct"] &= result["correct"] and done.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    return combined, results


# ---------------------------------------------------------------------- #
# Comparing two sets of runs
# ---------------------------------------------------------------------- #
def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """improved / unchanged / regressed by the medians, or, when either
    side's spread exceeds the bound, unresolved unless every run of one
    side beats every run of the other."""
    sign = 1.0 if better == "higher" else -1.0
    base = statistics.median(parent)
    gain = sign * (statistics.median(change) - base) / abs(base)
    if max(spread(parent), spread(change)) > bound:
        if min(sign * v for v in change) > max(sign * v for v in parent):
            return "improved"
        if max(sign * v for v in change) < min(sign * v for v in parent):
            return "regressed"
        return "unresolved"
    if gain > bound:
        return "improved"
    if gain < -bound:
        return "regressed"
    return "unchanged"


def compare(parent_path: Path, change_path: Path) -> list[tuple]:
    """One row per (workload, end-to-end metric) present in both files."""
    def values(path):
        table: dict[tuple[str, str], list[float]] = {}
        for entry in json.loads(Path(path).read_text()):
            if entry.get("trace"):
                continue
            for metric, value in entry["metrics"].items():
                table.setdefault((entry["workload"], metric), []).append(value["value"])
        return table

    parent, change = values(parent_path), values(change_path)
    rows = []
    for workload in WORKLOADS:
        for name, metric in END_TO_END.items():
            key = (workload, name)
            if key not in parent or key not in change:
                continue
            a, b = parent[key], change[key]
            rows.append((
                workload, name, statistics.median(a), statistics.median(b),
                spread(a), spread(b), verdict(a, b, metric["better"], metric["bound"]),
            ))
    return rows


def print_comparison(rows: list[tuple]) -> None:
    print(f"{'workload':<20} {'metric':<16} {'parent':>12} {'change':>12} "
          f"{'spread':>7} {'spread':>7}  verdict")
    for workload, name, a, b, sa, sb, word in rows:
        print(f"{workload:<20} {name:<16} {a:>12.6g} {b:>12.6g} {sa:>7.1%} {sb:>7.1%}  {word}")


def append_results(path: Path, entries: list[dict]) -> None:
    """Append result entries to the JSON list at ``path``."""
    existing = json.loads(path.read_text()) if path.exists() else []
    path.write_text(json.dumps(existing + entries, indent=1))


# ---------------------------------------------------------------------- #
# Command line
# ---------------------------------------------------------------------- #
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=41)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append results to this JSON list")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("PARENT", "CHANGE"))
    # A run on behalf of a parent process: see run_child.
    parser.add_argument("--child", choices=("setup", "reference", "traced"), help=argparse.SUPPRESS)
    parser.add_argument("--plan", help=argparse.SUPPRESS)
    parser.add_argument("--trace-file", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        print_comparison(compare(*args.compare))
        return 0
    if args.child:
        plan = Plan(**json.loads(args.plan))
        payload = run_child(args.child, args.workload, args.seed, args.seconds, plan, args.trace_file)
        print(json.dumps(payload))
        return 0
    trace = bool(args.trace)
    if args.workload is None:
        result, per_workload = measure_all(args.seed, args.seconds, trace)
    else:
        report = measure(args.workload, args.seed, args.seconds, trace)
        print_report(report)
        result, per_workload = report.result, [(args.workload, report.result)]
    if args.out:
        append_results(args.out, [
            {"workload": name, "seed": args.seed, "trace": trace, **r}
            for name, r in per_workload
        ])
    print(json.dumps(result))
    return 0 if result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
