"""Evaluation metrics: ROC AUC, binary accuracy, and log loss.

These are the metrics reported by the paper's Table V and Figure 18 (AUC is
the MLPerf-recommended metric for Criteo-style CTR tasks).

They compute in float64 whatever the training dtype: evaluation is off the
step path, and :func:`log_loss`'s ``1 - 1e-12`` clip would round to 1.0 in
float32.
"""

from __future__ import annotations

import numpy as np


def roc_auc(targets: np.ndarray, scores: np.ndarray) -> float:
    """Area under the ROC curve via the rank-sum (Mann-Whitney U) formula.

    Ties in the scores receive the average rank, matching the behaviour of
    scikit-learn's ``roc_auc_score``.
    """
    targets = np.asarray(targets, dtype=np.float64).reshape(-1)
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    if targets.shape != scores.shape:
        raise ValueError("targets and scores must have the same shape")
    positives = targets > 0.5
    num_pos = int(positives.sum())
    num_neg = int(targets.shape[0] - num_pos)
    if num_pos == 0 or num_neg == 0:
        raise ValueError("AUC is undefined when only one class is present")

    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    n = sorted_scores.shape[0]
    # Each run of equal scores spans sorted positions first..last and
    # shares their mean 1-based rank.  Neighbours are compared with
    # ``!=``, not ``np.diff``, which would split a run of equal infinities.
    first = np.flatnonzero(np.concatenate(([True], sorted_scores[1:] != sorted_scores[:-1])))
    last = np.append(first[1:] - 1, n - 1)
    rank_of = np.empty(n, dtype=np.float64)
    rank_of[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)
    rank_sum_pos = rank_of[positives].sum()
    auc = (rank_sum_pos - num_pos * (num_pos + 1) / 2.0) / (num_pos * num_neg)
    return float(auc)


def binary_accuracy(targets: np.ndarray, scores: np.ndarray, threshold: float = 0.5) -> float:
    """Fraction of predictions on the correct side of ``threshold``."""
    targets = np.asarray(targets, dtype=np.float64).reshape(-1)
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    predictions = (scores >= threshold).astype(np.float64)
    return float((predictions == targets).mean())


def log_loss(targets: np.ndarray, probabilities: np.ndarray, eps: float = 1e-12) -> float:
    """Mean binary cross-entropy of predicted probabilities."""
    targets = np.asarray(targets, dtype=np.float64).reshape(-1)
    probabilities = np.clip(np.asarray(probabilities, dtype=np.float64).reshape(-1), eps, 1 - eps)
    losses = -(targets * np.log(probabilities) + (1 - targets) * np.log(1 - probabilities))
    return float(losses.mean())
