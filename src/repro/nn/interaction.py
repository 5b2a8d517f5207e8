"""DLRM dot-product feature interaction — single-pass batched-GEMM kernels.

The interaction layer takes the bottom-MLP output and the pooled embedding
vectors (all of the same dimension), computes every pairwise dot product,
and concatenates the flattened lower triangle with the bottom-MLP output.
This is the ``dot`` interaction of the DLRM reference implementation.

Kernel contract — what is bit-identical, and why
------------------------------------------------

Two execution paths produce the interaction:

* The **reference** path (:func:`reference_dot_interaction` /
  :func:`reference_dot_interaction_backward`): the original three-pass
  einsum implementation.  ``np.einsum`` computes every output element by
  an independent per-element reduction loop, so it is row-stable by
  construction.  It is the fallback for uncertified shapes and the parity
  anchor (the test oracle's ``reference_kernels()`` routes whole training
  runs through it).
* The **batched-GEMM** path: the forward Gram is one
  ``np.matmul(stacked, stacked.transpose(0, 2, 1))`` (dispatched to BLAS
  batched-GEMM), and the backward writes the pair gradients into *both*
  strict triangles of a zero-diagonal symmetric buffer and runs **one**
  batched GEMM against ``stacked`` — no ``(batch, f, f)`` zeroed
  temporary, no symmetrize copy + transpose + add, no second einsum.

The two paths are *not* bit-identical to each other (BLAS reduction order
differs from einsum's in the last ulp), so the batched path follows the
same runtime-certification pattern as :mod:`repro.nn.gemm`: what training
correctness actually needs is **row stability** — the per-sample result
must not depend on how many other samples share the batched call, because
the fused µ-batch schedule interleaves whole-block (packed) and
per-segment calls and the parity grids assert they agree bit-for-bit.
:func:`interaction_certified` probes that property once per
``(features, dim, dtype)`` shape per process (full-block batched GEMMs
vs. fresh per-slice GEMMs over a battery of slice heights, forward and
backward, with the same ``out=``/layout call forms the kernel uses) and
the batched path runs only where the probe passed bit-for-bit; failed
shapes fall back to the reference einsums.  The decision is global per
shape, so every model and every execution path in a process agrees.

Workspace-lifetime rules
------------------------

:class:`DotInteractionKernel` pools its buffers keyed on shape, mirroring
:mod:`repro.nn.gemm`'s workspace reuse, and is **single-threaded by
design**: each model owns one kernel (a ``deepcopy`` of a model gets a
fresh, empty kernel), so replicas never share a buffer — sharing one
kernel across threads would race on the Gram workspace.

* The ``(batch, f, dim)`` *stack* buffer is checked out at ``forward``
  (it lives inside the returned cache) and returned to the pool when
  ``backward`` consumes the cache.  A cache is therefore **single-use**:
  after its backward, a later forward of the same shape may recycle the
  buffer.  A cache that never reaches a backward keeps its buffer out of
  the pool for as long as the caller holds the cache.
* The ``(batch, f, f)`` *Gram* buffer is transient within one call: the
  forward extracts the pair columns immediately and the backward's
  symmetric fill overwrites every off-diagonal element it reads (the
  diagonal is zeroed on every backward), so one pooled buffer per shape
  serves both directions.  The pool keeps one per batch shape it has
  served, for the kernel's lifetime.
* **Inference never reaches the kernel.**  The models' ``predict`` scores
  a batch in row blocks (:func:`repro.nn.gemm.infer_in_blocks`) and calls
  the unpooled :func:`dot_interaction` once per block, dropping its cache,
  so an evaluation holds one block's stack and Gram at a time, leaves no
  Gram in the pool and no stack buffer on the model: the pools hold
  training shapes only.  Blocks are bit-identical to one call over the
  whole batch because the interaction is row-stable (certified here, or
  the einsum reference).
* The backward's ``grad_stacked`` output is a **fresh** allocation every
  call — the sparse-feature gradient block the caller receives is a view
  into it, and callers accumulate it across µ-batch segments, so that
  array must never be recycled by the kernel.

The module-level :func:`dot_interaction` runs the same certified forward
without any pooling (fresh allocations per call), so it is safe to call
from any thread; the backward runs only on a kernel.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.nn.init import DTYPE

#: ``np.tril_indices(f, k=-1)`` per feature count — the pair index arrays
#: are a function of the feature count alone, so every step reuses them
#: instead of rebuilding two index arrays per interaction call.  Guarded
#: by :data:`_CACHE_LOCK`: the module functions may be called from any
#: thread, and concurrent callers race on first use of a shape.
_TRIL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}

#: Certification cache: (features, dim, dtype str) -> the batched-GEMM
#: path reproduced fresh per-slice GEMMs bit-for-bit at this shape.
_CERTIFIED: dict[tuple[int, int, str], bool] = {}

_CACHE_LOCK = threading.Lock()

#: Batch height of the certification probe's full block.
_PROBE_ROWS = 64

#: Row ranges sliced out of the probe block: single row, small/odd spans,
#: and the block tail — the segment shapes the fused µ-batch schedule
#: actually produces.
_PROBE_SLICES = ((0, 1), (0, 2), (1, 4), (3, 17), (20, 33), (40, 64))


def _tril_pairs(num_features: int) -> tuple[np.ndarray, np.ndarray]:
    pairs = _TRIL_CACHE.get(num_features)
    if pairs is None:
        pairs = np.tril_indices(num_features, k=-1)
        with _CACHE_LOCK:
            # setdefault keeps the first thread's arrays authoritative so
            # concurrent first-use builds never swap index identities.
            pairs = _TRIL_CACHE.setdefault(num_features, pairs)
    return pairs


def interaction_certified(
    num_features: int, dim: int, dtype: np.dtype = DTYPE
) -> bool:
    """Certify the batched-GEMM interaction path for one shape.

    Probes, once per process per ``(features, dim, dtype)``, that the
    batched forward Gram and the batched symmetric backward GEMM are
    **row-stable**: slicing a full-block result reproduces a fresh
    per-slice call bit-for-bit, over :data:`_PROBE_SLICES`.  Row stability
    is exactly what the fused µ-batch parity grids need — the packed
    whole-batch call and the sequential per-segment calls must agree on
    every row.  Shapes that fail keep the reference einsum path.
    """
    key = (int(num_features), int(dim), np.dtype(dtype).str)
    with _CACHE_LOCK:
        cached = _CERTIFIED.get(key)
    if cached is not None:
        return cached
    # Probe outside the lock: a duplicate concurrent probe computes the
    # same deterministic verdict, so the benign race costs only time.
    rng = np.random.default_rng((num_features * 1_000_003 + dim) ^ 0x1A7E)
    stacked = rng.standard_normal((_PROBE_ROWS, num_features, dim)).astype(
        dtype, copy=False
    )
    gram = np.empty((_PROBE_ROWS, num_features, num_features), dtype=dtype)
    np.matmul(stacked, stacked.transpose(0, 2, 1), out=gram)
    sym = np.zeros_like(gram)
    rows, cols = _tril_pairs(num_features)
    sym[:, rows, cols] = rng.standard_normal((_PROBE_ROWS, rows.size))
    sym[:, cols, rows] = sym[:, rows, cols]
    grad = np.matmul(sym, stacked)
    ok = True
    for lo, hi in _PROBE_SLICES:
        sub_stack = np.ascontiguousarray(stacked[lo:hi])
        sub_gram = np.empty((hi - lo, num_features, num_features), dtype=dtype)
        np.matmul(sub_stack, sub_stack.transpose(0, 2, 1), out=sub_gram)
        if not np.array_equal(gram[lo:hi], sub_gram):
            ok = False
            break
        sub_sym = np.ascontiguousarray(sym[lo:hi])
        if not np.array_equal(grad[lo:hi], np.matmul(sub_sym, sub_stack)):
            ok = False
            break
    with _CACHE_LOCK:
        _CERTIFIED[key] = ok
    return ok


# ---------------------------------------------------------------------- #
# Reference implementation (the original three-pass einsum path)
# ---------------------------------------------------------------------- #
def reference_dot_interaction(dense: np.ndarray, sparse: np.ndarray) -> tuple[np.ndarray, dict]:
    """The original einsum forward — retained as the bit-parity anchor."""
    stacked = np.concatenate([dense[:, None], sparse], axis=1)  # (batch, f, dim)
    gram = np.einsum("bfd,bgd->bfg", stacked, stacked)  # (batch, f, f)
    num_features = stacked.shape[1]
    rows, cols = _tril_pairs(num_features)
    interactions = gram[:, rows, cols]  # (batch, n_pairs)
    output = np.concatenate([dense, interactions], axis=1)
    cache = {
        "stacked": stacked,
        "rows": rows,
        "cols": cols,
        "dense_dim": dense.shape[1],
        "batched": False,
    }
    return output, cache


def reference_dot_interaction_backward(
    grad_output: np.ndarray, cache: dict
) -> tuple[np.ndarray, np.ndarray]:
    """The original three-pass backward — retained as the parity anchor.

    Materializes a zeroed ``(batch, f, f)`` gradient, symmetrizes it with
    a copy + transpose + add, then contracts with a second full einsum.
    """
    stacked: np.ndarray = cache["stacked"]
    rows: np.ndarray = cache["rows"]
    cols: np.ndarray = cache["cols"]
    dense_dim: int = cache["dense_dim"]
    batch, num_features, _ = stacked.shape

    grad_dense_direct = grad_output[:, :dense_dim]
    grad_pairs = grad_output[:, dense_dim:]  # (batch, n_pairs)

    grad_gram = np.zeros((batch, num_features, num_features), dtype=grad_output.dtype)
    grad_gram[:, rows, cols] = grad_pairs
    # The gram matrix is symmetric in its construction: d(x_f . x_g) affects
    # both x_f and x_g, which is captured by symmetrising the gradient.
    grad_gram = grad_gram + grad_gram.transpose(0, 2, 1)
    grad_stacked = np.einsum("bfg,bgd->bfd", grad_gram, stacked)

    grad_dense = grad_dense_direct + grad_stacked[:, 0, :]
    return grad_dense, grad_stacked[:, 1:]


# ---------------------------------------------------------------------- #
# Batched-GEMM kernels (shape-certified)
# ---------------------------------------------------------------------- #
def _forward_impl(
    dense: np.ndarray,
    sparse: np.ndarray,
    stack_buf: np.ndarray | None = None,
    gram_buf: np.ndarray | None = None,
) -> tuple[np.ndarray, dict]:
    """Single-pass forward: one batched GEMM for the full pairwise Gram."""
    batch, dim = dense.shape
    num_features = sparse.shape[1] + 1
    if not interaction_certified(num_features, dim, dense.dtype):
        return reference_dot_interaction(dense, sparse)
    stacked = stack_buf
    if stacked is None:
        stacked = np.empty((batch, num_features, dim), dtype=np.result_type(dense, sparse))
    stacked[:, 0] = dense
    stacked[:, 1:] = sparse
    if gram_buf is None:
        gram = np.matmul(stacked, stacked.transpose(0, 2, 1))
    else:
        gram = np.matmul(stacked, stacked.transpose(0, 2, 1), out=gram_buf)
    rows, cols = _tril_pairs(num_features)
    interactions = gram[:, rows, cols]  # (batch, n_pairs) — a fresh copy
    del gram  # an unpooled Gram is freed before the output is allocated
    output = np.concatenate([dense, interactions], axis=1)
    cache = {
        "stacked": stacked,
        "rows": rows,
        "cols": cols,
        "dense_dim": dense.shape[1],
        "batched": True,
    }
    return output, cache


def dot_interaction(dense: np.ndarray, sparse: np.ndarray) -> tuple[np.ndarray, dict]:
    """Pairwise dot-product interaction.

    Runs the certified batched-GEMM kernel with fresh (unpooled) buffers —
    thread-safe, and bit-identical to :class:`DotInteractionKernel`'s
    forward.  Models train through the kernel's pooled, allocation-free
    steady state and predict through this function, which retains
    nothing once its result and cache are dropped.

    Args:
        dense: Bottom-MLP output of shape (batch, dim).
        sparse: Pooled embeddings of every sparse feature, one
            ``(batch, num_sparse, dim)`` block (``EmbeddingBag.forward``).

    Returns:
        A tuple of the interaction output of shape
        (batch, dim + n_pairs) and a cache used by the backward pass.
    """
    return _forward_impl(dense, sparse)


class DotInteractionKernel:
    """Workspace-pooled interaction kernel owned by one model instance.

    Pools the ``(batch, f, dim)`` stack and ``(batch, f, f)`` Gram buffers
    keyed on shape, so a steady-state training step performs no large
    interaction allocations (the backward's ``grad_stacked`` output stays
    fresh by contract).  **Not thread-safe** — one kernel per model;
    ``deepcopy`` yields a fresh, empty kernel so replica copies never
    alias a buffer (see the module docstring for the full
    workspace-lifetime rules).
    """

    def __init__(self) -> None:
        #: Free (batch, f, dim) stack buffers by (shape, dtype) key —
        #: checked out by forward, returned when backward consumes the cache.
        self._stack_pool: dict[tuple, list[np.ndarray]] = {}
        #: (batch, f, f) Gram/symmetric buffer by (shape, dtype) key —
        #: transient within each call, shared by forward and backward.
        self._gram_pool: dict[tuple, np.ndarray] = {}

    def __deepcopy__(self, memo) -> DotInteractionKernel:
        fresh = DotInteractionKernel()
        memo[id(self)] = fresh
        return fresh

    def _stack_buf(self, batch: int, f: int, dim: int, dtype) -> np.ndarray:
        key = (batch, f, dim, np.dtype(dtype).str)
        free = self._stack_pool.get(key)
        if free:
            return free.pop()
        return np.empty((batch, f, dim), dtype=dtype)

    def _gram_buf(self, batch: int, f: int, dtype) -> np.ndarray:
        key = (batch, f, np.dtype(dtype).str)
        buf = self._gram_pool.get(key)
        if buf is None:
            buf = np.zeros((batch, f, f), dtype=dtype)
            self._gram_pool[key] = buf
        return buf

    def forward(self, dense: np.ndarray, sparse: np.ndarray) -> tuple[np.ndarray, dict]:
        """Pooled :func:`dot_interaction`; the cache owns a stack buffer."""
        num_features = sparse.shape[1] + 1
        batch, dim = dense.shape
        if not interaction_certified(num_features, dim, dense.dtype):
            return reference_dot_interaction(dense, sparse)
        stack_buf = self._stack_buf(batch, num_features, dim, dense.dtype)
        gram_buf = self._gram_buf(batch, num_features, dense.dtype)
        return _forward_impl(dense, sparse, stack_buf=stack_buf, gram_buf=gram_buf)

    def backward(self, grad_output: np.ndarray, cache: dict) -> tuple[np.ndarray, np.ndarray]:
        """Single-GEMM backward through the symmetric Gram structure.

        The pair gradients land directly in **both** strict triangles of the
        pooled Gram buffer with its diagonal zeroed (the exact values
        ``G + G^T`` holds, since the opposite triangle of each term is
        zero), and one batched GEMM against ``stacked`` produces the full
        input gradient — two fancy-index writes and one GEMM, no
        full-tensor temporaries.  Consumes the cache and recycles its stack
        buffer.

        Returns:
            Gradient w.r.t. the dense input and the ``(batch, num_sparse,
            dim)`` gradient w.r.t. the sparse block (a view into one
            ``(batch, f, dim)`` array).
        """
        if not cache.get("batched", False):
            return reference_dot_interaction_backward(grad_output, cache)
        stacked: np.ndarray = cache["stacked"]
        rows: np.ndarray = cache["rows"]
        cols: np.ndarray = cache["cols"]
        dense_dim: int = cache["dense_dim"]
        batch, num_features, dim = stacked.shape
        grad_pairs = grad_output[:, dense_dim:]  # (batch, n_pairs)
        sym = self._gram_buf(batch, num_features, grad_output.dtype)
        # The buffer held the forward Gram (nonzero diagonal); the triangle
        # writes cover every off-diagonal element, so only the diagonal
        # needs re-zeroing.
        diag = np.arange(num_features)
        sym[:, diag, diag] = 0.0
        sym[:, rows, cols] = grad_pairs
        sym[:, cols, rows] = grad_pairs
        # Fresh output on every call: the caller receives a view into it and
        # accumulates it across µ-batch segments (see workspace rules).
        grad_stacked = np.matmul(sym, stacked)
        grad_dense = grad_output[:, :dense_dim] + grad_stacked[:, 0, :]
        key = (batch, num_features, dim, stacked.dtype.str)
        self._stack_pool.setdefault(key, []).append(stacked)
        cache["stacked"] = None  # the cache is single-use once pooled
        return grad_dense, grad_stacked[:, 1:]


def interaction_output_dim(dense_dim: int, num_sparse: int) -> int:
    """Dimension of the interaction output for the top MLP's input size."""
    num_features = num_sparse + 1
    num_pairs = num_features * (num_features - 1) // 2
    return dense_dim + num_pairs
