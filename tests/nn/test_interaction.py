"""Unit tests for the DLRM dot-product feature interaction."""

import threading

import numpy as np

from repro.nn import interaction as interaction_mod
from repro.nn.interaction import (
    DotInteractionKernel,
    _tril_pairs,
    dot_interaction,
    dot_interaction_backward,
    interaction_certified,
    interaction_output_dim,
    reference_dot_interaction,
    reference_dot_interaction_backward,
)
from tests.helpers import assert_gradients_close, numerical_gradient


def test_output_dim_formula():
    assert interaction_output_dim(16, 26) == 16 + 27 * 26 // 2
    assert interaction_output_dim(8, 0) == 8
    assert interaction_output_dim(8, 1) == 8 + 1


def test_forward_shape(rng):
    dense = rng.normal(size=(5, 8))
    sparse = [rng.normal(size=(5, 8)) for _ in range(3)]
    out, _ = dot_interaction(dense, sparse)
    assert out.shape == (5, interaction_output_dim(8, 3))


def test_forward_contains_pairwise_dots(rng):
    dense = rng.normal(size=(2, 4))
    sparse = [rng.normal(size=(2, 4))]
    out, _ = dot_interaction(dense, sparse)
    expected_dot = (dense * sparse[0]).sum(axis=1)
    np.testing.assert_allclose(out[:, 4], expected_dot)
    np.testing.assert_allclose(out[:, :4], dense)


def test_backward_dense_gradient_matches_numeric(rng):
    dense = rng.normal(size=(3, 4))
    sparse = [rng.normal(size=(3, 4)) for _ in range(2)]

    def loss_fn(d):
        out, _ = dot_interaction(d, sparse)
        return float((out ** 2).sum())

    out, cache = dot_interaction(dense, sparse)
    grad_dense, _ = dot_interaction_backward(2.0 * out, cache)
    numeric = numerical_gradient(loss_fn, dense)
    assert_gradients_close(grad_dense, numeric, rtol=1e-4)


def test_backward_sparse_gradient_matches_numeric(rng):
    dense = rng.normal(size=(3, 4))
    sparse = [rng.normal(size=(3, 4)) for _ in range(2)]

    def loss_fn(s0):
        out, _ = dot_interaction(dense, [s0, sparse[1]])
        return float((out ** 2).sum())

    out, cache = dot_interaction(dense, sparse)
    _, grad_sparse = dot_interaction_backward(2.0 * out, cache)
    numeric = numerical_gradient(loss_fn, sparse[0])
    assert_gradients_close(grad_sparse[0], numeric, rtol=1e-4)


def test_backward_returns_one_gradient_per_sparse_feature(rng):
    dense = rng.normal(size=(2, 4))
    sparse = [rng.normal(size=(2, 4)) for _ in range(5)]
    out, cache = dot_interaction(dense, sparse)
    _, grad_sparse = dot_interaction_backward(np.ones_like(out), cache)
    assert len(grad_sparse) == 5
    for grad in grad_sparse:
        assert grad.shape == (2, 4)


def _random_problem(rng, batch=7, features=5, dim=8):
    dense = rng.normal(size=(batch, dim))
    sparse = [rng.normal(size=(batch, dim)) for _ in range(features - 1)]
    return dense, sparse


def test_batched_matches_reference_allclose(rng):
    """The certified GEMM path agrees with the einsum reference to fp noise."""
    dense, sparse = _random_problem(rng)
    out_new, cache_new = dot_interaction(dense, sparse)
    out_ref, cache_ref = reference_dot_interaction(dense, sparse)
    np.testing.assert_allclose(out_new, out_ref, rtol=1e-12, atol=1e-12)
    grad_out = rng.normal(size=out_new.shape)
    gd_new, gs_new = dot_interaction_backward(grad_out, cache_new)
    gd_ref, gs_ref = reference_dot_interaction_backward(grad_out, cache_ref)
    np.testing.assert_allclose(gd_new, gd_ref, rtol=1e-12, atol=1e-12)
    for a, b in zip(gs_new, gs_ref, strict=True):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


def test_row_stability_of_batched_path(rng):
    """What certification promises: full-block slices == fresh-subset calls."""
    dense, sparse = _random_problem(rng, batch=33)
    if not interaction_certified(len(sparse) + 1, dense.shape[1], dense.dtype):
        return  # the fallback path is bitwise-stable by construction
    out_full, cache_full = dot_interaction(dense, sparse)
    grad_out = rng.normal(size=out_full.shape)
    gd_full, gs_full = dot_interaction_backward(grad_out, cache_full)
    for lo, hi in ((0, 1), (0, 5), (3, 17), (20, 33)):
        sub_dense = np.ascontiguousarray(dense[lo:hi])
        sub_sparse = [np.ascontiguousarray(s[lo:hi]) for s in sparse]
        out_sub, cache_sub = dot_interaction(sub_dense, sub_sparse)
        assert np.array_equal(out_full[lo:hi], out_sub)
        gd_sub, gs_sub = dot_interaction_backward(
            np.ascontiguousarray(grad_out[lo:hi]), cache_sub
        )
        assert np.array_equal(gd_full[lo:hi], gd_sub)
        for a, b in zip(gs_full, gs_sub, strict=True):
            assert np.array_equal(a[lo:hi], b)


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
    """The pooled kernel's buffers must not change a single bit."""
    dense, sparse = _random_problem(rng)
    kernel = DotInteractionKernel()
    for _ in range(3):  # repeat: later rounds exercise recycled buffers
        out_k, cache_k = kernel.forward(dense, sparse)
        out_f, cache_f = dot_interaction(dense, sparse)
        assert np.array_equal(out_k, out_f)
        grad_out = np.ones_like(out_k)
        gd_k, gs_k = kernel.backward(grad_out, cache_k)
        gd_f, gs_f = dot_interaction_backward(grad_out, cache_f)
        assert np.array_equal(gd_k, gd_f)
        for a, b in zip(gs_k, gs_f, strict=True):
            assert np.array_equal(a, b)


def test_kernel_recycles_stack_buffer_after_backward(rng):
    dense, sparse = _random_problem(rng)
    if not interaction_certified(len(sparse) + 1, dense.shape[1], dense.dtype):
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
    snapshot = [g.copy() for g in gs1]
    out2, cache2 = kernel.forward(dense, [2.0 * s for s in sparse])
    kernel.backward(np.full_like(out2, 3.0), cache2)
    for live, saved in zip(gs1, snapshot, strict=True):
        assert np.array_equal(live, saved)


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
