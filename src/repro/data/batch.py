"""Mini-batch container shared by models, baselines, and the Hotline pipeline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class MiniBatch:
    """One mini-batch of recommendation training data.

    Attributes:
        dense: Continuous features, shape (batch, num_dense).
        sparse: Categorical lookups, shape (batch, num_tables, pooling);
            each entry is a row index into the corresponding embedding table.
        labels: Click labels in {0, 1}, shape (batch,).
    """

    dense: np.ndarray
    sparse: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        if self.dense.ndim != 2:
            raise ValueError("dense must be 2-D (batch, num_dense)")
        if self.sparse.ndim != 3:
            raise ValueError("sparse must be 3-D (batch, num_tables, pooling)")
        if self.labels.ndim != 1:
            raise ValueError("labels must be 1-D (batch,)")
        if not (self.dense.shape[0] == self.sparse.shape[0] == self.labels.shape[0]):
            raise ValueError("dense, sparse, and labels must agree on batch size")

    @property
    def size(self) -> int:
        """Number of samples in the batch."""
        return int(self.labels.shape[0])

    @property
    def num_tables(self) -> int:
        """Number of sparse features (embedding tables)."""
        return int(self.sparse.shape[1])

    @property
    def pooling(self) -> int:
        """Lookups per table per sample (1 = one-hot, >1 = multi-hot)."""
        return int(self.sparse.shape[2])

    def select(self, indices: np.ndarray) -> MiniBatch:
        """A new MiniBatch containing only the samples at ``indices``."""
        indices = np.asarray(indices, dtype=np.int64)
        return MiniBatch(
            dense=self.dense[indices],
            sparse=self.sparse[indices],
            labels=self.labels[indices],
        )

    def shards(self, num_shards: int) -> list["MiniBatch"]:
        """Deal the batch into ``num_shards`` contiguous slices.

        Shards are basic-slice *views* of this batch's arrays (no copy) and
        differ in size by at most one sample; trailing shards may be empty
        when the batch is smaller than ``num_shards``.  This is the
        data-parallel split used by
        :class:`~repro.core.distributed.ShardedHotlineTrainer`.
        """
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        bounds = [(k * self.size) // num_shards for k in range(num_shards + 1)]
        return [
            MiniBatch(
                dense=self.dense[start:stop],
                sparse=self.sparse[start:stop],
                labels=self.labels[start:stop],
            )
            for start, stop in zip(bounds, bounds[1:], strict=False)
        ]
