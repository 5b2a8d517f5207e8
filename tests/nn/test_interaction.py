"""Unit tests for the DLRM dot-product feature interaction."""

import threading

import numpy as np

from repro.nn import interaction as interaction_mod
from repro.nn.interaction import (
    DotInteractionKernel,
    _tril_pairs,
    dot_interaction,
    interaction_certified,
    interaction_output_dim,
    reference_dot_interaction,
    reference_dot_interaction_backward,
)
from tests.helpers import assert_gradients_close, numerical_gradient, reused_kernel_backward


def test_output_dim_formula():
    assert interaction_output_dim(16, 26) == 16 + 27 * 26 // 2
    assert interaction_output_dim(8, 0) == 8
    assert interaction_output_dim(8, 1) == 8 + 1


def test_forward_shape(rng):
    dense = rng.normal(size=(5, 8))
    sparse = rng.normal(size=(5, 3, 8))
    out, _ = dot_interaction(dense, sparse)
    assert out.shape == (5, interaction_output_dim(8, 3))


def test_forward_contains_pairwise_dots(rng):
    dense = rng.normal(size=(2, 4))
    sparse = rng.normal(size=(2, 1, 4))
    out, _ = dot_interaction(dense, sparse)
    expected_dot = (dense * sparse[:, 0]).sum(axis=1)
    np.testing.assert_allclose(out[:, 4], expected_dot)
    np.testing.assert_allclose(out[:, :4], dense)


def test_backward_dense_gradient_matches_numeric(rng):
    dense = rng.normal(size=(3, 4))
    sparse = rng.normal(size=(3, 2, 4))

    def loss_fn(d):
        out, _ = dot_interaction(d, sparse)
        return float((out ** 2).sum())

    out, _ = dot_interaction(dense, sparse)
    grad_dense, _ = reused_kernel_backward(dense, sparse, 2.0 * out)
    numeric = numerical_gradient(loss_fn, dense)
    assert_gradients_close(grad_dense, numeric, rtol=1e-4)


def test_backward_sparse_gradient_matches_numeric(rng):
    dense = rng.normal(size=(3, 4))
    sparse = rng.normal(size=(3, 2, 4))

    def loss_fn(s):
        out, _ = dot_interaction(dense, s)
        return float((out ** 2).sum())

    out, _ = dot_interaction(dense, sparse)
    _, grad_sparse = reused_kernel_backward(dense, sparse, 2.0 * out)
    numeric = numerical_gradient(loss_fn, sparse)
    assert_gradients_close(grad_sparse, numeric, rtol=1e-4)


def test_backward_returns_one_gradient_per_sparse_feature(rng):
    dense = rng.normal(size=(2, 4))
    sparse = rng.normal(size=(2, 5, 4))
    out, _ = dot_interaction(dense, sparse)
    _, grad_sparse = reused_kernel_backward(dense, sparse, np.ones_like(out))
    assert grad_sparse.shape == (2, 5, 4)


def _random_problem(rng, batch=7, features=5, dim=8):
    dense = rng.normal(size=(batch, dim))
    sparse = rng.normal(size=(batch, features - 1, dim))
    return dense, sparse


def test_batched_matches_reference_allclose(rng):
    """The certified GEMM path agrees with the einsum reference to fp noise."""
    dense, sparse = _random_problem(rng)
    out_new, _ = dot_interaction(dense, sparse)
    out_ref, cache_ref = reference_dot_interaction(dense, sparse)
    np.testing.assert_allclose(out_new, out_ref, rtol=1e-12, atol=1e-12)
    grad_out = rng.normal(size=out_new.shape)
    gd_new, gs_new = reused_kernel_backward(dense, sparse, grad_out)
    gd_ref, gs_ref = reference_dot_interaction_backward(grad_out, cache_ref)
    np.testing.assert_allclose(gd_new, gd_ref, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(gs_new, gs_ref, rtol=1e-12, atol=1e-12)


def test_row_stability_of_batched_path(rng):
    """What certification promises: full-block slices == fresh-subset calls."""
    dense, sparse = _random_problem(rng, batch=33)
    if not interaction_certified(sparse.shape[1] + 1, dense.shape[1], dense.dtype):
        return  # the fallback path is bitwise-stable by construction
    out_full, _ = dot_interaction(dense, sparse)
    grad_out = rng.normal(size=out_full.shape)
    gd_full, gs_full = reused_kernel_backward(dense, sparse, grad_out)
    for lo, hi in ((0, 1), (0, 5), (3, 17), (20, 33)):
        sub_dense = np.ascontiguousarray(dense[lo:hi])
        sub_sparse = np.ascontiguousarray(sparse[lo:hi])
        out_sub, _ = dot_interaction(sub_dense, sub_sparse)
        assert np.array_equal(out_full[lo:hi], out_sub)
        gd_sub, gs_sub = reused_kernel_backward(
            sub_dense, sub_sparse, np.ascontiguousarray(grad_out[lo:hi])
        )
        assert np.array_equal(gd_full[lo:hi], gd_sub)
        assert np.array_equal(gs_full[lo:hi], gs_sub)


def test_uncertified_shape_dispatches_to_einsum_path(rng, monkeypatch):
    """A shape the certification probe rejects takes the einsum reference,
    through the module function and the pooled kernel alike."""
    monkeypatch.setattr(interaction_mod, "interaction_certified", lambda *_: False)
    dense, sparse = _random_problem(rng)
    out_ref, _ = reference_dot_interaction(dense, sparse)
    for forward in (dot_interaction, DotInteractionKernel().forward):
        out, cache = forward(dense, sparse)
        assert cache["batched"] is False
        assert np.array_equal(out, out_ref)


def test_kernel_matches_free_function_bitwise(rng):
    """The pooled kernel's buffers must not change a single bit: its forward
    matches the unpooled function, and its backward a fresh kernel's."""
    dense, sparse = _random_problem(rng)
    kernel = DotInteractionKernel()
    for _ in range(3):  # repeat: later rounds exercise recycled buffers
        out_k, cache_k = kernel.forward(dense, sparse)
        out_f, _ = dot_interaction(dense, sparse)
        assert np.array_equal(out_k, out_f)
        fresh = DotInteractionKernel()
        _, cache_f = fresh.forward(dense, sparse)
        grad_out = np.ones_like(out_k)
        gd_k, gs_k = kernel.backward(grad_out, cache_k)
        gd_f, gs_f = fresh.backward(grad_out, cache_f)
        assert np.array_equal(gd_k, gd_f)
        assert np.array_equal(gs_k, gs_f)


def test_kernel_recycles_stack_buffer_after_backward(rng):
    dense, sparse = _random_problem(rng)
    if not interaction_certified(sparse.shape[1] + 1, dense.shape[1], dense.dtype):
        return  # pooling only engages on the certified path
    kernel = DotInteractionKernel()
    _, cache1 = kernel.forward(dense, sparse)
    stacked1 = cache1["stacked"]
    kernel.backward(np.ones((dense.shape[0], interaction_output_dim(8, 4))), cache1)
    assert cache1["stacked"] is None  # consumed caches are single-use
    _, cache2 = kernel.forward(dense, sparse)
    assert cache2["stacked"] is stacked1  # same buffer, checked out again


def test_kernel_backward_output_is_fresh_per_call(rng):
    """grad_stacked views must survive later backwards (no output pooling)."""
    dense, sparse = _random_problem(rng)
    kernel = DotInteractionKernel()
    out1, cache1 = kernel.forward(dense, sparse)
    gd1, gs1 = kernel.backward(np.ones_like(out1), cache1)
    snapshot = gs1.copy()
    out2, cache2 = kernel.forward(dense, 2.0 * sparse)
    kernel.backward(np.full_like(out2, 3.0), cache2)
    assert np.array_equal(gs1, snapshot)


def test_kernel_deepcopy_has_unshared_workspaces(rng):
    import copy

    dense, sparse = _random_problem(rng)
    kernel = DotInteractionKernel()
    kernel.forward(dense, sparse)
    clone = copy.deepcopy(kernel)
    assert clone._stack_pool == {} and clone._gram_pool == {}


def test_tril_cache_is_thread_safe_on_first_use():
    """Concurrent first-use of many feature counts must not corrupt the cache."""
    counts = list(range(40, 72))
    errors: list[Exception] = []

    def worker():
        try:
            for f in counts:
                rows, cols = _tril_pairs(f)
                assert rows.size == f * (f - 1) // 2
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    for f in counts:
        expected_rows, expected_cols = np.tril_indices(f, k=-1)
        rows, cols = _tril_pairs(f)
        assert np.array_equal(rows, expected_rows)
        assert np.array_equal(cols, expected_cols)
