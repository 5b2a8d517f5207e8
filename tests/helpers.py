"""Numerical helpers shared by the test-suite: finite-difference checks,
the interaction kernel's backward on a reused buffer, and the tolerance for
comparing runs that sum in different orders."""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.data.batch import MiniBatch
from repro.nn.interaction import DotInteractionKernel

#: Tolerance pair for comparing float32 training runs whose sums associate
#: differently (shard or node counts, tree vs ring reduction, Hotline vs
#: baseline, einsum vs GEMM kernels): 64 float32 ulps, more than 10x the
#: largest gap measured across those comparisons (5.7 ulps, the fig30f
#: final loss).  Bit-identical paths are compared with ``==`` instead.
CROSS_ORDER_RTOL = 64 * float(np.finfo(np.float32).eps)
CROSS_ORDER_ATOL = CROSS_ORDER_RTOL


def numerical_gradient(
    fn: Callable[[np.ndarray], float], x: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of an array."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat_x = x.reshape(-1)
    flat_grad = grad.reshape(-1)
    for i in range(flat_x.size):
        original = flat_x[i]
        flat_x[i] = original + eps
        plus = fn(x)
        flat_x[i] = original - eps
        minus = fn(x)
        flat_x[i] = original
        flat_grad[i] = (plus - minus) / (2.0 * eps)
    return grad


def assert_gradients_close(
    analytic: np.ndarray, numeric: np.ndarray, rtol: float = 1e-4, atol: float = 1e-6
) -> None:
    """Assert analytic and numeric gradients agree."""
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


def reused_kernel_backward(
    dense: np.ndarray, sparse: np.ndarray, grad_output: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:meth:`~repro.nn.interaction.DotInteractionKernel.backward` of
    ``grad_output`` through ``dense``/``sparse``, on the kernel's second
    call at this shape: the pooled Gram buffer it writes into still holds
    the first call's values and the forward Gram's nonzero diagonal."""
    kernel = DotInteractionKernel()
    out, cache = kernel.forward(np.full_like(dense, 3.0), np.full_like(sparse, -2.0))
    kernel.backward(np.ones_like(out), cache)
    _, cache = kernel.forward(dense, sparse)
    return kernel.backward(grad_output, cache)


def backward_gradients(model, batch, between=None) -> list[bytes]:
    """Bytes of every gradient of ``forward(batch)`` → ``backward``.

    With ``between``, ``between(model)`` runs after the forward and before
    the backward.  Returns the dense gradients in ``dense_parameters``
    order, then the flat sparse gradient's keys and values.
    """
    model.zero_grad()
    logits = model.forward(batch)
    if between is not None:
        between(model)
    sparse = model.backward(np.ones_like(logits) / batch.size)
    dense = [grad.tobytes() for _param, grad in model.dense_parameters()]
    return dense + [sparse.indices.tobytes(), sparse.values.tobytes()]


def rejected_forward(batch, rows_per_table, fault: str) -> Callable:
    """A ``between`` for :func:`backward_gradients`: a ``forward`` that
    must raise ``ValueError``, of ``batch`` with one id just past the last
    table's rows (``fault="id"``), without its last table
    (``fault="tables"``) or without its last dense column
    (``fault="dense"``)."""
    dense, sparse = batch.dense, batch.sparse.copy()
    if fault == "id":
        sparse[-1, -1, -1] = rows_per_table[-1]
    elif fault == "tables":
        sparse = sparse[:, :-1]
    else:
        dense = dense[:, :-1]
    rejected = MiniBatch(dense, sparse, batch.labels)

    def between(model) -> None:
        try:
            model.forward(rejected)
        except ValueError:
            return
        raise AssertionError("the rejected batch's forward did not raise")

    return between
