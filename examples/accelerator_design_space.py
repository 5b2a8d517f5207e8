"""Scenario: exploring the Hotline accelerator's design space.

An architect sizing the Hotline accelerator has three key knobs:

* the Embedding Access Logger capacity (how many hot indices it can track),
* the number of SRAM banks and the input-queue depth (how many lookups it
  can test per cycle), and
* how much popular-µ-batch GPU work is available to hide the non-popular
  parameter gathering.

This example sweeps all three (the paper's Figures 16, 25, and 27) and
prints the resulting design table, ending with the area/power budget of the
chosen configuration (Table IV / Figure 29).

Run:  python examples/accelerator_design_space.py
"""

from __future__ import annotations

from repro.analysis.report import format_breakdown, format_series, format_table
from repro.core import HotlineScheduler
from repro.core.eal import EALConfig, EmbeddingAccessLogger, expected_parallel_requests
from repro.data import generate_click_log, popular_input_fraction
from repro.hwsim import single_node
from repro.hwsim.energy import HOTLINE_ENERGY_MODEL
from repro.models import RM3
from repro.perf import TrainingCostModel


def sweep_eal_capacity() -> None:
    """How much logger capacity does the scaled Terabyte stand-in need?"""
    config = RM3.scaled(max_rows_per_table=2000)
    log = generate_click_log(config.dataset, 4000, seed=5)
    train, evaluation = log.sparse[:2500], log.sparse[2500:]
    capacities = [256, 512, 1024, 2048, 4096]
    fractions = []
    for capacity in capacities:
        eal = EmbeddingAccessLogger(
            config.dataset.rows_per_table, EALConfig(size_bytes=capacity * 2, ways=16), seed=0
        )
        eal.access_batch(train)
        hot = eal.hot_indices(config.num_sparse_features)
        fractions.append(popular_input_fraction(evaluation, hot))
    print(
        format_series(
            "EAL capacity sweep (scaled Criteo Terabyte)",
            capacities,
            [round(100 * f, 1) for f in fractions],
            x_label="tracked entries",
            y_label="% popular inputs",
        )
    )
    print()


def sweep_banks_and_queue() -> None:
    """Figure 16: parallel lookups per iteration vs banks x queue depth."""
    rows = []
    for banks in (8, 16, 32, 64):
        rows.append(
            [f"{banks} banks"]
            + [round(expected_parallel_requests(queue, banks), 1) for queue in (32, 128, 512)]
        )
    print(format_table(["config", "queue=32", "queue=128", "queue=512"], rows,
                       title="Parallel EAL requests per iteration"))
    print()


def sweep_popular_ratio() -> None:
    """Figure 25: when does the non-popular gather stop being hidden?"""
    scheduler = HotlineScheduler(TrainingCostModel(RM3, cluster=single_node(4)))
    rows = []
    for ratio in (0.2, 0.3, 0.5, 0.75, 0.9):
        plan = scheduler.plan_step(4096, hot_fraction=ratio)
        rows.append(
            (
                f"{ratio:.0%} popular",
                f"{plan.popular_exec_time * 1e3:.2f} ms",
                f"{plan.gather_time * 1e3:.2f} ms",
                "hidden" if plan.gather_hidden else f"exposed {plan.exposed_gather_time * 1e3:.2f} ms",
            )
        )
    print(format_table(["µ-batch ratio", "popular GPU exec", "gather", "status"], rows,
                       title="Hiding the non-popular parameter gather (Criteo Terabyte, 4K batch)"))
    print()


def show_budget() -> None:
    """Table IV / Figure 29: what does the chosen design cost in silicon?"""
    print(format_breakdown("Accelerator area breakdown (7.01 mm^2 total)",
                           HOTLINE_ENERGY_MODEL.area_breakdown()))
    print()
    print(format_breakdown(f"Accelerator power breakdown ({HOTLINE_ENERGY_MODEL.total_power_w:.1f} W total)",
                           HOTLINE_ENERGY_MODEL.power_breakdown()))


def main() -> None:
    sweep_eal_capacity()
    sweep_banks_and_queue()
    sweep_popular_ratio()
    show_budget()


if __name__ == "__main__":
    main()
