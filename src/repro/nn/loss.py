"""Binary cross-entropy loss (the CTR objective, Eq. 1-2 of the paper).

Implemented on logits for numerical stability.  The loss is a *sum* over the
mini-batch by default, matching Equation 2 of the paper: this is what makes
the Hotline µ-batch decomposition exactly loss-preserving
(L_popular + L_non_popular == L_baseline, Eq. 5).  A mean reduction is also
offered for conventional training loops.

Fused epilogue contract — bit-identity
--------------------------------------

:func:`fused_bce_epilogue` computes the summed loss and the logit gradient
in **one pass** over the batch: a single ``e = exp(-|z|)`` feeds both the
``log1p(e)`` loss term and the branch-split stable sigmoid.  It is
**bit-identical** to the retained two-pass pair
(:func:`reference_epilogue`, i.e. :func:`bce_with_logits` +
:func:`bce_with_logits_backward`), by construction rather than by runtime
certification:

* loss term: ``np.log1p(np.exp(-np.abs(z)))`` is literally the same
  expression the reference evaluates;
* sigmoid, ``z >= 0`` branch: ``exp(-z) == exp(-|z|)`` exactly, so
  ``1/(1+e)`` sees bit-identical inputs to the reference's
  ``1/(1+exp(-z))``;
* sigmoid, ``z < 0`` branch: ``exp(z) == exp(-|z|)`` exactly, so
  ``e/(1+e)`` matches the reference's ``exp(z)/(1+exp(z))``.

Both compute in the logits' floating dtype (non-float logits are promoted
to float64), so float32 training batches stay float32 with no round trip.
All outputs are fresh allocations (no workspace pooling): the gradient is
handed to the caller, who scales and accumulates it across µ-batch
segments, so it must never be recycled.  :func:`predicted_probabilities`
alone computes in float64: it feeds the evaluation metrics, off the step
path.
"""

from __future__ import annotations

import numpy as np


def _float_logits(logits: np.ndarray) -> np.ndarray:
    """``logits`` as a flat float32/float64 array; other dtypes promote to
    float64."""
    z = np.asarray(logits)
    if z.dtype not in (np.float32, np.float64):
        z = z.astype(np.float64)
    return z.reshape(-1)


def _stable_sigmoid(logits: np.ndarray) -> np.ndarray:
    out = np.empty_like(logits)
    positive = logits >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-logits[positive]))
    exp_x = np.exp(logits[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


def bce_with_logits(
    logits: np.ndarray, targets: np.ndarray, reduction: str = "sum"
) -> float:
    """Binary cross-entropy of ``logits`` against 0/1 ``targets``.

    Uses the log-sum-exp form ``max(z,0) - z*y + log(1+exp(-|z|))`` which is
    stable for large-magnitude logits.  Returns a scalar; use
    :func:`bce_with_logits_per_sample` for the unreduced vector.
    """
    per_sample = bce_with_logits_per_sample(logits, targets)
    if reduction == "sum":
        return float(per_sample.sum())
    if reduction == "mean":
        return float(per_sample.mean())
    raise ValueError(f"unknown reduction {reduction!r}")


def bce_with_logits_per_sample(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Unreduced binary cross-entropy: one loss value per sample, in the
    logits' floating dtype."""
    logits = _float_logits(logits)
    targets = np.asarray(targets, dtype=logits.dtype).reshape(-1)
    if logits.shape != targets.shape:
        raise ValueError("logits and targets must have the same shape")
    return (
        np.maximum(logits, 0.0) - logits * targets + np.log1p(np.exp(-np.abs(logits)))
    )


def bce_with_logits_backward(
    logits: np.ndarray, targets: np.ndarray, reduction: str = "sum"
) -> np.ndarray:
    """Gradient of :func:`bce_with_logits` with respect to the logits, in
    the logits' floating dtype."""
    logits = _float_logits(logits)
    targets = np.asarray(targets, dtype=logits.dtype).reshape(-1)
    grad = _stable_sigmoid(logits) - targets
    if reduction == "mean":
        grad = grad / logits.shape[0]
    elif reduction not in ("sum", "none"):
        raise ValueError(f"unknown reduction {reduction!r}")
    return grad


def reference_epilogue(
    logits: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """The original two-pass loss + gradient — the bit-parity anchor.

    Evaluates the stable-sigmoid/exp terms twice (once inside the loss,
    once inside the gradient) exactly as the pre-fusion call sites did.
    """
    loss = bce_with_logits(logits, targets, reduction="sum")
    grad = bce_with_logits_backward(logits, targets, reduction="sum")
    return loss, grad


def fused_bce_epilogue(
    logits: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """Summed BCE loss and logit gradient in one pass.

    Computes ``e = exp(-|z|)`` once and shares it between the loss's
    ``log1p`` term and the branch-split stable sigmoid (see the module
    docstring for the bit-identity argument).  Runs in the logits' native
    floating dtype; non-float inputs are promoted to float64.

    Returns:
        ``(loss_sum, grad_logits)`` where ``grad_logits = sigmoid(z) - y``
        (the ``reduction="sum"`` gradient), a fresh 1-D array.
    """
    z = _float_logits(logits)
    y = np.asarray(targets, dtype=z.dtype).reshape(-1)
    if z.shape != y.shape:
        raise ValueError("logits and targets must have the same shape")
    e = np.exp(-np.abs(z))
    positive = z >= 0
    negative = ~positive
    sigmoid = np.empty_like(z)
    sigmoid[positive] = 1.0 / (1.0 + e[positive])
    sigmoid[negative] = e[negative] / (1.0 + e[negative])
    per_sample = np.maximum(z, 0.0) - z * y + np.log1p(e)
    grad = sigmoid
    grad -= y  # sigmoid buffer is ours — reuse it for the gradient
    return float(per_sample.sum()), grad


def predicted_probabilities(logits: np.ndarray) -> np.ndarray:
    """Convert logits to click probabilities."""
    return _stable_sigmoid(np.asarray(logits, dtype=np.float64).reshape(-1))
