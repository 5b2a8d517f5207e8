"""Mini-batch fragmentation into popular and non-popular µ-batches.

This is the data-level operation at the heart of Hotline (Section III,
Challenge 1): a mini-batch M is split into a popular µ-batch O (inputs whose
every lookup hits a frequently-accessed embedding) and a non-popular
µ-batch X (everything else), with O ∪ X = M and O ∩ X = ∅ (Eq. 3).
Because the BCE loss is a sum over inputs, training on O and X separately
and accumulating the gradients is numerically identical to training on M
(Eq. 5) — a property the test-suite verifies bit-for-bit.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.core.hotset import HotSetIndex, as_hot_set_index
from repro.data.batch import MiniBatch


class MicroBatches:
    """The two µ-batches produced from one mini-batch.

    Built lazily from the source batch and the classification mask: the
    fused execution path trains through the original batch plus
    :meth:`segment_indices`, so the µ-batch copies (dense, sparse, and
    label selections) are only built if a caller actually reads
    :attr:`popular`/:attr:`non_popular`, and then once each.

    Attributes:
        popular_mask: Boolean mask over the original mini-batch.
    """

    def __init__(self, popular_mask: np.ndarray, source: MiniBatch):
        self.popular_mask = np.asarray(popular_mask, dtype=bool)
        self._source = source

    @cached_property
    def popular(self) -> MiniBatch:
        """Inputs touching only frequently-accessed rows."""
        return self._source.select(np.nonzero(self.popular_mask)[0])

    @cached_property
    def non_popular(self) -> MiniBatch:
        """Inputs touching at least one non-frequently-accessed row."""
        return self._source.select(np.nonzero(~self.popular_mask)[0])

    @property
    def popular_count(self) -> int:
        """Number of popular inputs (mask popcount — never materialises)."""
        return int(np.count_nonzero(self.popular_mask))

    @property
    def popular_fraction(self) -> float:
        """Fraction of inputs classified popular."""
        total = self.popular_mask.size
        return self.popular_count / total if total else 0.0

    @property
    def sizes(self) -> tuple[int, int]:
        """(popular size, non-popular size)."""
        popular = self.popular_count
        return popular, int(self.popular_mask.size) - popular

    def segment_indices(self) -> tuple[np.ndarray, ...]:
        """Sample-index arrays of the non-empty µ-batches (popular first).

        The ascending index arrays partition the original mini-batch
        (Eq. 3) and are what the fused execution path trains through one
        embedding gather/scatter pass
        (:meth:`~repro.models.dlrm.DLRM.fused_loss_and_gradients`), in
        the popular-then-non-popular accumulation order.
        """
        mask = self.popular_mask
        candidates = (np.nonzero(mask)[0], np.nonzero(~mask)[0])
        return tuple(idx for idx in candidates if idx.size)


def split_minibatch(
    batch: MiniBatch,
    hot_sets: list[np.ndarray] | HotSetIndex,
    *,
    mask: np.ndarray | None = None,
) -> MicroBatches:
    """Fragment ``batch`` into popular / non-popular µ-batches.

    Args:
        batch: The mini-batch to fragment.
        hot_sets: Per-table arrays of frequently-accessed row ids (from the
            EAL or an offline profiler), or a prebuilt
            :class:`~repro.core.hotset.HotSetIndex` over them.  The hot path
            passes the prebuilt index so each step performs one bitmap
            gather over the whole block instead of an ``np.isin`` set scan.
        mask: Precomputed popular-input mask for ``batch``.  The prefetch
            overlap path classifies batch N+1 on the loader thread while
            batch N's optimizer update runs, then passes the mask here to
            skip the bitmap pass entirely; ``classify`` is pure, so a valid
            precomputed mask is bit-identical to computing it in place.
            The caller is responsible for discarding masks computed against
            since-mutated hot sets (see
            :attr:`~repro.core.hotset.HotSetIndex.version`).

    Returns:
        A :class:`MicroBatches` whose two µ-batches partition the input.
    """
    index = as_hot_set_index(hot_sets)
    if index.num_tables != batch.num_tables:
        raise ValueError(
            f"expected {batch.num_tables} hot sets (one per table), got {index.num_tables}"
        )
    if mask is None:
        mask = index.classify(batch.sparse)
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (batch.size,):
            raise ValueError(
                f"precomputed mask has shape {mask.shape}, expected ({batch.size},)"
            )
    return MicroBatches(mask, batch)
