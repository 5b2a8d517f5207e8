"""Hotline: heterogeneous acceleration pipeline for recommendation training.

A full Python reproduction of "Heterogeneous Acceleration Pipeline for
Recommendation System Training" (ISCA 2024).  The package is organised as:

* :mod:`repro.core` — the Hotline accelerator and training pipeline (the
  paper's contribution);
* :mod:`repro.nn`, :mod:`repro.models` — a from-scratch numpy DLRM/TBSM
  training stack;
* :mod:`repro.data` — synthetic Zipf-skewed click-log datasets mirroring
  Criteo Kaggle/Terabyte, Taobao, and Avazu;
* :mod:`repro.hwsim`, :mod:`repro.perf` — the hardware timing/energy model
  and the per-phase training cost model;
* :mod:`repro.baselines` — XDL, Intel-optimized hybrid DLRM, FAE, HugeCTR,
  ScratchPipe-Ideal, and CPU-driven Hotline;
* :mod:`repro.analysis` — breakdowns and report formatting.
"""

__version__ = "1.0.0"

from repro import analysis, baselines, core, data, experiments, hwsim, models, nn, perf

__all__ = [
    "analysis",
    "baselines",
    "core",
    "data",
    "experiments",
    "hwsim",
    "models",
    "nn",
    "perf",
    "__version__",
]
