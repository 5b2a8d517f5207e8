"""Analysis and reporting utilities for the evaluation figures.

* :mod:`repro.analysis.breakdown` — per-phase training-time breakdowns in
  the category scheme the paper's stacked-bar figures use (Figs. 3-5, 20).
* :mod:`repro.analysis.report` — plain-text table/series formatting used by
  the benchmark harness to print the rows each figure plots.

Section IV's roofline argument (HBM vs DDR4 embedding-gather bandwidth) is
the memory model's :meth:`~repro.hwsim.memory.MemorySpec.gather_time`.
"""

from repro.analysis.breakdown import BREAKDOWN_CATEGORIES, normalised_breakdown
from repro.analysis.report import format_breakdown, format_series, format_table

__all__ = [
    "BREAKDOWN_CATEGORIES",
    "normalised_breakdown",
    "format_table",
    "format_series",
    "format_breakdown",
]
