"""Segment-packed GEMM execution for the fused µ-batch dense path.

The fused µ-batch schedule (:meth:`repro.models.dlrm.RecommendationModel.
fused_loss_and_gradients`) runs the bottom MLP, feature layer, and top MLP
over one contiguous ``(batch, d)`` block — one GEMM per layer per step
instead of one per layer per µ-batch segment — with per-segment
quantities (losses, logit gradients, ``grad_weight`` partials) recovered
by row slicing.  This module is that execution layer: :class:`PackedMLP`
wraps an existing :class:`~repro.nn.mlp.MLP` and runs its
forward/backward over a packed block without touching the MLP's own
per-call code path.  The per-segment loop it must reproduce lives in the
test oracle (``tests/oracle.py``: ``SequentialDLRM``/``SequentialTBSM``
train each segment with its own ``loss_and_gradients`` call).

Batched-execution contract — what is bit-identical, and why
-----------------------------------------------------------

Everything the packed path produces is **bit-identical** to the
sequential per-segment loop.  That claim needs care, because a BLAS GEMM
is *not* universally row-stable: ``(X @ W)[lo:hi]`` can differ in the
last ulp from ``X[lo:hi] @ W`` when the two shapes dispatch to different
kernels (OpenBLAS routes small ``M*N*K`` products to a small-matrix
kernel whose reduction order differs from the blocked main path once
``K`` exceeds one K-panel, and some ``K``/``N`` edge shapes never agree).
The packed path therefore never *assumes* row stability — it certifies
it, per GEMM shape, at runtime:

* :func:`packed_rows_threshold` probes each ``(K, N)`` operand shape once
  per process (full-block GEMM vs. row-sliced GEMMs over a battery of
  slice heights, including the kernel-dispatch boundary near
  ``M*N*K ~ 1e6``) and caches the smallest slice height from which every
  probe matched bit-for-bit.
* A layer whose GEMM is certified from ``m`` rows up runs as **one**
  packed GEMM whenever every segment has at least ``m`` rows; the
  per-segment results are then row slices of the packed result, equal by
  certification.
* A layer whose shape is *not* certified for the current segment sizes
  runs its GEMM **per segment on slices of the packed block** — the same
  operand values and the same ``M`` as the sequential loop, so the result
  is bit-identical *by construction* (no probe needed), at the cost of
  that one layer's batching.

The non-GEMM pieces are bit-stable by construction and need no probe:
bias add, ReLU mask/multiply, loss terms, and softmax/interaction einsums
are elementwise or per-row, so packed rows equal sequential rows exactly.
The fused bias+ReLU forward (``matmul(..., out=ws); ws += b; ws *= ws>0``)
is bitwise equal to the sequential ``x @ W + b`` → ``ReLU`` chain: the
``out=`` form of ``matmul`` and the in-place elementwise ops produce the
same values as their allocating counterparts.

Per-segment ``grad_weight`` / ``grad_bias`` partials are computed as
``X[lo:hi].T @ G[lo:hi]`` / ``G[lo:hi].sum(axis=0)`` and accumulated in
segment order — the exact addition sequence of the sequential loop, which
is what keeps the accumulated dense gradients bit-for-bit those of
per-µ-batch passes.

The only *perf*-motivated divergence from the sequential schedule is that
the first layer's input gradient GEMM is **skipped** when the caller does
not need it (``need_input_grad=False``): DLRM and TBSM discard the bottom
MLP's returned input gradient, so the packed path simply never computes
the dead value.  Skipping a discarded result changes no observable bit.

Operand layout matters: the input-gradient GEMM multiplies against the
``weight.T`` *view* (the exact operand of the sequential
``Linear.backward``) rather than a contiguous copy — BLAS consumes the
transpose natively, and the copy is not bit-equivalent (the trans-B
kernel's reduction differs from the no-trans kernel in the last ulp for
some shapes).  Certification therefore probes each GEMM with the same
operand layout the packed pass uses (``transposed=True`` for backward).

Workspaces
----------

Each packed layer owns preallocated output/gradient/mask workspaces keyed
on the packed row count, so a steady-state step performs no large
allocations.  The workspaces are shape-keyed only — weight updates never
invalidate them.

Inference row blocks
--------------------

The same certification lets the models' ``predict`` score a large batch
in row blocks (:func:`infer_in_blocks`), one block's activations at a time.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.nn.init import DTYPE
from repro.nn.layers import Linear, ReLU
from repro.nn.mlp import MLP

#: Sentinel threshold for shapes whose packed GEMM never matched the
#: sliced GEMM at any probed height (the layer always runs per-segment).
NEVER_PACKED = 1 << 30

#: Process-wide certification cache: (K, N, dtype str, transposed) ->
#: smallest slice height from which the packed GEMM is bit-identical to
#: sliced GEMMs.  ``transposed`` keys the second operand's memory layout
#: (contiguous for forward, a ``weight.T`` view for backward) — the two
#: dispatch to different BLAS kernels with different stability profiles.
_STABLE_FROM: dict[tuple[int, int, str, bool], int] = {}

#: Slice heights probed against the full-block GEMM.  Dense coverage at
#: small M (where the small-matrix kernel lives) plus spot checks up to
#: and past typical µ-batch sizes; :func:`packed_rows_threshold` adds the
#: kernel-dispatch boundary region ``M*N*K ~ 1e6`` for the probed shape.
_BATTERY = tuple(range(2, 49)) + (56, 63, 64, 65, 80, 96, 100, 128, 150, 192, 200, 255, 256, 300)

#: Row count of the probe's full block (larger than every battery entry).
_PROBE_ROWS = 311


def packed_rows_threshold(
    k: int, n: int, dtype: np.dtype = DTYPE, *, transposed: bool = False
) -> int:
    """Smallest segment height from which a ``(M, k) @ (k, n)`` GEMM is
    certified row-stable — i.e. slicing a packed product reproduces the
    standalone per-segment product bit-for-bit.

    Probed empirically once per process and cached: the full-block product
    is compared against sliced products over :data:`_BATTERY` (plus the
    small-kernel dispatch boundary near ``M*n*k ~ 1e6``), and against a
    taller block's leading rows (so stability holds between *any* two
    packed heights, not just the probed one).  Returns
    :data:`NEVER_PACKED` when no probed height is safe.

    ``transposed`` selects the second operand's memory layout: ``False``
    probes a C-contiguous ``(k, n)`` operand (the forward ``weight``),
    ``True`` probes a ``(k, n)`` transpose *view* of a contiguous
    ``(n, k)`` array (the backward ``weight.T``) — BLAS routes the two
    layouts to different kernels, so they certify independently.
    """
    key = (int(k), int(n), np.dtype(dtype).str, bool(transposed))
    cached = _STABLE_FROM.get(key)
    if cached is not None:
        return cached
    rng = np.random.default_rng((k * 1_000_003 + n) ^ 0x5EED)

    def operand(shape):
        # Signed uniform values drawn in the probed dtype itself.
        values = rng.random(shape, dtype=dtype)
        values *= 2
        values -= 1
        return values

    x = operand((_PROBE_ROWS * 2, k))
    w = operand((n, k)).T if transposed else operand((k, n))
    full = x[:_PROBE_ROWS] @ w
    if not np.array_equal((x @ w)[:_PROBE_ROWS], full):
        # The packed result itself depends on the block height — never safe.
        _STABLE_FROM[key] = NEVER_PACKED
        return NEVER_PACKED
    boundary = int(1e6 // max(1, k * n))
    heights = set(_BATTERY)
    heights.update(
        m for m in range(boundary - 2, boundary + 3) if 2 <= m < _PROBE_ROWS
    )
    worst_fail = 1  # height 1 (GEMV) is treated as always unsafe
    for m in sorted(heights):
        if not np.array_equal(full[:m], np.ascontiguousarray(x[:m]) @ w):
            worst_fail = m
    if worst_fail == 1:
        threshold = 2
    else:
        passed = sorted(m for m in heights if m > worst_fail)
        threshold = passed[0] if passed else NEVER_PACKED
    _STABLE_FROM[key] = threshold
    return threshold


class _PackedUnit:
    """One ``Linear`` (+ optional fused ``ReLU``) of a :class:`PackedMLP`."""

    def __init__(self, linear: Linear, relu: ReLU | None):
        self.linear = linear
        self.relu = relu
        self._fwd_from: int | None = None
        self._bwd_from: int | None = None
        self._bufs: dict[tuple[str, int], np.ndarray] = {}
        #: Per-segment ``X.T @ G`` partial workspace (one weight shape).
        self._gw_partial = np.empty_like(linear.grad_weight)
        #: Packed input / post-activation output gradient of the last
        #: backward, consumed by :meth:`accumulate_segment`.
        self._x: np.ndarray | None = None
        self._g: np.ndarray | None = None

    def _buf(self, name: str, rows: int, cols: int, dtype) -> np.ndarray:
        key = (name, rows)
        buf = self._bufs.get(key)
        if buf is None or buf.shape[1] != cols or buf.dtype != dtype:
            buf = np.empty((rows, cols), dtype=dtype)
            self._bufs[key] = buf
        return buf

    def forward(
        self,
        x: np.ndarray,
        bounds: list[tuple[int, int]],
        min_rows: int,
        *,
        add_bias: bool = True,
    ) -> np.ndarray:
        lin = self.linear
        if self._fwd_from is None:
            self._fwd_from = packed_rows_threshold(
                lin.in_features, lin.out_features, lin.weight.dtype
            )
        y = self._buf("y", x.shape[0], lin.out_features, x.dtype)
        if min_rows >= self._fwd_from:
            np.matmul(x, lin.weight, out=y)
        else:
            # Uncertified shape: per-segment GEMMs on slices of the packed
            # block — bit-identical to the sequential loop by construction.
            for lo, hi in bounds:
                np.matmul(x[lo:hi], lin.weight, out=y[lo:hi])
        if add_bias:
            y += lin.bias
        if self.relu is not None:
            mask = self._bufs.get(("mask", x.shape[0]))
            if mask is None or mask.shape[1] != lin.out_features:
                mask = np.empty((x.shape[0], lin.out_features), dtype=bool)
                self._bufs[("mask", x.shape[0])] = mask
            np.greater(y, 0, out=mask)
            y *= mask
        self._x = x
        return y

    def backward(
        self,
        grad: np.ndarray,
        bounds: list[tuple[int, int]],
        min_rows: int,
        *,
        need_input_grad: bool,
    ) -> np.ndarray | None:
        lin = self.linear
        if self.relu is not None:
            # ``grad`` is a workspace owned by the downstream unit; the
            # in-place mask multiply matches the sequential ReLU backward.
            grad *= self._bufs[("mask", grad.shape[0])]
        self._g = grad
        if not need_input_grad:
            return None
        if self._bwd_from is None:
            self._bwd_from = packed_rows_threshold(
                lin.out_features, lin.in_features, lin.weight.dtype, transposed=True
            )
        # The transpose *view* — the sequential ``Linear.backward`` operand.
        # A contiguous copy is NOT bit-equivalent (different BLAS kernel).
        wt = lin.weight.T
        gi = self._buf("gi", grad.shape[0], lin.in_features, grad.dtype)
        if min_rows >= self._bwd_from:
            np.matmul(grad, wt, out=gi)
        else:
            for lo, hi in bounds:
                np.matmul(grad[lo:hi], wt, out=gi[lo:hi])
        return gi

    def accumulate_segment(self, lo: int, hi: int) -> None:
        """Fold one segment's weight/bias gradient partial into the layer.

        ``X[lo:hi].T @ G[lo:hi]`` on contiguous row slices is bitwise the
        sequential per-segment ``grad_weight`` contribution; adding the
        partials in segment order preserves the sequential accumulation
        sequence.
        """
        lin = self.linear
        # ``matmul(..., out=)`` produces the same bits as the allocating
        # form; the preallocated partial only avoids a per-segment temp.
        np.matmul(self._x[lo:hi].T, self._g[lo:hi], out=self._gw_partial)
        lin.grad_weight += self._gw_partial
        lin.grad_bias += self._g[lo:hi].sum(axis=0)


class PackedMLP:
    """Packed-block executor over an existing :class:`~repro.nn.mlp.MLP`.

    Shares the MLP's ``Linear`` layers (weights, accumulated gradients) —
    it only replaces the *execution schedule*, so the MLP's own forward
    and the packed pass are interchangeable mid-run.  Each unit is one
    ``Linear`` and the ``ReLU`` after it; the last ``Linear`` stands alone.
    """

    def __init__(self, mlp: MLP):
        self.mlp = mlp
        layers = mlp.layers
        self.units = [
            _PackedUnit(layers[i], layers[i + 1] if i + 1 < len(layers) else None)
            for i in range(0, len(layers), 2)
        ]

    def forward(self, x: np.ndarray, bounds: list[tuple[int, int]]) -> np.ndarray:
        min_rows = min(hi - lo for lo, hi in bounds)
        out = x
        for unit in self.units:
            out = unit.forward(out, bounds, min_rows)
        return out

    @property
    def logit_bias(self) -> float:
        """The deferred output bias for :meth:`forward_prelogits` callers."""
        return float(self.units[-1].linear.bias[0])

    def forward_prelogits(self, x: np.ndarray, bounds: list[tuple[int, int]]) -> np.ndarray:
        """Packed forward with the final layer's bias add **deferred**.

        The final layer must have one output, as every model's top MLP does
        (:class:`~repro.models.dlrm.RecommendationModel` rejects any other).
        Returns the pre-bias logit column ``(x' @ W_last)[:, 0]``; the
        caller folds ``+ logit_bias`` into its fused loss epilogue so the
        logits never make a separate full-width pass.  Adding the scalar
        bias later is elementwise and therefore bit-identical to the
        broadcast ``y += bias`` the standard forward performs.  The
        backward/accumulate schedule is unchanged — the final unit's
        ``grad_bias`` still accumulates from the logit gradient.
        """
        min_rows = min(hi - lo for lo, hi in bounds)
        out = x
        for unit in self.units[:-1]:
            out = unit.forward(out, bounds, min_rows)
        out = self.units[-1].forward(out, bounds, min_rows, add_bias=False)
        return out[:, 0]

    def backward(
        self,
        grad: np.ndarray,
        bounds: list[tuple[int, int]],
        *,
        need_input_grad: bool = True,
    ) -> np.ndarray | None:
        min_rows = min(hi - lo for lo, hi in bounds)
        for j, unit in enumerate(reversed(self.units)):
            last = j == len(self.units) - 1
            grad = unit.backward(
                grad, bounds, min_rows,
                need_input_grad=need_input_grad or not last,
            )
        return grad

    def accumulate_segment(self, lo: int, hi: int) -> None:
        """One segment's ``grad_weight``/``grad_bias`` partials, all layers."""
        for unit in reversed(self.units):
            unit.accumulate_segment(lo, hi)


#: Row height of one block of :func:`infer_in_blocks`.  With OpenBLAS 0.3.31
#: on x86-64, every forward GEMM shape of RM1 and RM2 certifies from 8 rows
#: or fewer, except their ``(256, 1)`` and ``(60, 1)`` logit layers (never).
INFER_BLOCK_ROWS = 256


def _certified_at_block_height(linear: Linear) -> bool:
    return (
        packed_rows_threshold(linear.in_features, linear.out_features, linear.weight.dtype)
        <= INFER_BLOCK_ROWS
    )


def infer_in_blocks(
    bottom: MLP,
    top: MLP,
    dense: np.ndarray,
    features: Callable[[np.ndarray, int, int], np.ndarray],
) -> np.ndarray:
    """``top.infer(features(bottom.infer(dense), 0, rows))``, bit for bit,
    scored in row blocks.

    ``features(dense_out, lo, hi)`` builds the top MLP's input for rows
    ``lo:hi`` from their bottom-MLP output: the model's per-row layers (the
    embedding gather and pooling, the dot interaction or the attention),
    each row-stable by construction or by its own certification.

    * The rows split into blocks of :data:`INFER_BLOCK_ROWS`; a short tail
      merges into the last block, so no block is shorter than that unless
      the whole batch is.
    * Each block runs ``bottom``, ``features`` and ``top``'s layers up to
      the first ``Linear`` not certified at the block height
      (:func:`packed_rows_threshold`), writing its activations into one
      ``(rows, width)`` array; ``top``'s remaining layers then run once
      over that array.  For RM1 and RM2 that ``Linear`` is the logit layer
      (:data:`NEVER_PACKED`), so the array is the penultimate activations.
    * If one of ``bottom``'s ``Linear`` layers is not certified at the
      block height, the whole batch is one block.

    A certified GEMM gives each block's rows the bits of one pass over all
    rows.  Nothing is kept between calls.
    """
    rows = dense.shape[0]
    blocks = rows // INFER_BLOCK_ROWS
    if blocks < 2 or not all(
        _certified_at_block_height(layer) for layer in bottom.layers if isinstance(layer, Linear)
    ):
        return top.infer(features(bottom.infer(dense), 0, rows))
    split = next(
        (
            i
            for i, layer in enumerate(top.layers)
            if isinstance(layer, Linear) and not _certified_at_block_height(layer)
        ),
        len(top.layers),
    )
    gathered = None
    for block in range(blocks):
        lo = block * INFER_BLOCK_ROWS
        hi = rows if block == blocks - 1 else lo + INFER_BLOCK_ROWS
        out = features(bottom.infer(dense[lo:hi]), lo, hi)
        for layer in top.layers[:split]:
            out = layer.infer(out)
        if gathered is None:
            gathered = np.empty((rows, out.shape[1]), dtype=out.dtype)
        gathered[lo:hi] = out
    for layer in top.layers[split:]:
        gathered = layer.infer(gathered)
    return gathered


def segment_bounds(segments: list[np.ndarray]) -> list[tuple[int, int]]:
    """Packed-block ``(lo, hi)`` row ranges of ``segments``, in order."""
    bounds: list[tuple[int, int]] = []
    lo = 0
    for idx in segments:
        bounds.append((lo, lo + idx.size))
        lo += idx.size
    return bounds
