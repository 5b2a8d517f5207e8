"""Datasets: specifications of the paper's four workloads plus synthetic
Zipf-distributed click logs that stand in for the proprietary/huge originals.

The paper trains on Criteo Kaggle, Taobao Alibaba, Criteo Terabyte, and
Avazu.  Those datasets are tens of GB to 1 TB and are not redistributable
here, so this package generates seeded synthetic equivalents that match the
statistics Hotline actually depends on: number of tables, rows per table,
pooling factor (one-hot vs multi-hot), and — critically — the heavy-tailed
Zipf access skew that makes >=75 % of inputs "popular" (Figure 6).
:func:`~repro.data.skew.popular_input_mask` and
:func:`~repro.data.skew.popular_input_fraction` classify a block of inputs
against hot sets outside a trainer (the figures and examples use them).
"""

from repro.data.batch import MiniBatch
from repro.data.datasets import (
    AVAZU,
    CRITEO_KAGGLE,
    CRITEO_TERABYTE,
    PAPER_DATASETS,
    SYN_D1,
    SYN_D2,
    TAOBAO_ALIBABA,
    DatasetSpec,
)
from repro.data.loader import MiniBatchLoader
from repro.data.skew import (
    EvolvingSkewGenerator,
    access_histogram,
    popular_entries,
    popular_input_fraction,
    popular_input_mask,
    top_k_overlap,
)
from repro.data.synthetic import SyntheticClickLog, generate_click_log

__all__ = [
    "DatasetSpec",
    "CRITEO_KAGGLE",
    "TAOBAO_ALIBABA",
    "CRITEO_TERABYTE",
    "AVAZU",
    "SYN_D1",
    "SYN_D2",
    "PAPER_DATASETS",
    "MiniBatch",
    "SyntheticClickLog",
    "generate_click_log",
    "MiniBatchLoader",
    "access_histogram",
    "popular_entries",
    "popular_input_mask",
    "popular_input_fraction",
    "top_k_overlap",
    "EvolvingSkewGenerator",
]
