"""Dataset specifications for the paper's workloads (Table II).

Each :class:`DatasetSpec` records the *statistical* shape of a dataset: the
number of dense and sparse features, rows per embedding table, lookups per
table (pooling), the Zipf skew exponent, and the number of samples per
epoch.  The full-size specs are used by the hardware timing model; the
functional numpy training uses :meth:`DatasetSpec.scaled` copies so they fit
in laptop memory while preserving the skew statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, replace



@dataclass(frozen=True)
class DatasetSpec:
    """Statistical description of one recommendation dataset.

    Attributes:
        name: Dataset name as used in the paper's figures.
        num_dense: Number of continuous features.
        rows_per_table: Embedding-table sizes (one entry per sparse feature).
        pooling: Lookups per table per sample (1 = one-hot).
        zipf_alpha: Exponent of the Zipf access distribution (larger = more
            skewed).  Criteo/Avazu are highly skewed; Taobao less so.
        samples_per_epoch: Number of training samples in one epoch.
        time_series_length: Number of history steps (TBSM datasets only).
        popular_embedding_mb: Approximate hot-embedding footprint reported by
            the paper (~512 MB covers >=75 % of inputs).
    """

    name: str
    num_dense: int
    rows_per_table: tuple[int, ...]
    pooling: int = 1
    zipf_alpha: float = 1.05
    samples_per_epoch: int = 1_000_000
    time_series_length: int = 1
    popular_embedding_mb: float = 512.0

    @property
    def num_sparse(self) -> int:
        """Number of sparse features (embedding tables)."""
        return len(self.rows_per_table)

    @property
    def total_rows(self) -> int:
        """Total number of embedding rows across all tables."""
        return int(sum(self.rows_per_table))

    def embedding_bytes(self, dim: int, dtype_bytes: int = 4) -> float:
        """Total embedding footprint for a given vector dimension."""
        return float(self.total_rows) * dim * dtype_bytes

    def lookups_per_sample(self) -> int:
        """Total embedding lookups performed for one sample.

        Time-series datasets (TBSM) look up one *history* table per step and
        the remaining (user/context) tables once, rather than every table at
        every step.
        """
        if self.time_series_length > 1:
            history = self.time_series_length
            others = max(0, self.num_sparse - 1)
            return self.pooling * (history + others)
        return self.num_sparse * self.pooling

    def scaled(
        self,
        max_rows_per_table: int = 20_000,
        samples_per_epoch: int | None = None,
    ) -> DatasetSpec:
        """A functionally-trainable copy with capped table sizes.

        The scaling preserves the *relative* table sizes and the Zipf
        exponent, which is what determines the popular-input fraction.
        """
        largest = max(self.rows_per_table)
        if largest <= max_rows_per_table:
            scaled_rows = self.rows_per_table
        else:
            factor = max_rows_per_table / largest
            scaled_rows = tuple(max(8, int(round(rows * factor))) for rows in self.rows_per_table)
        return replace(
            self,
            name=f"{self.name} (scaled)",
            rows_per_table=scaled_rows,
            samples_per_epoch=samples_per_epoch or min(self.samples_per_epoch, 65_536),
        )


def _criteo_like_tables(
    total_rows: int, num_tables: int, seed_sizes: tuple[int, ...]
) -> tuple[int, ...]:
    """Distribute ``total_rows`` across ``num_tables`` with a realistic spread.

    Criteo-style datasets have a few huge tables (tens of millions of rows)
    and many small ones; ``seed_sizes`` gives the relative weights.
    """
    weights = [seed_sizes[i % len(seed_sizes)] for i in range(num_tables)]
    total_weight = sum(weights)
    rows = [max(4, int(round(total_rows * w / total_weight))) for w in weights]
    return tuple(rows)


# Relative table-size profile: a handful of dominant tables plus a long tail
# of small ones, as in the Criteo datasets.
_CRITEO_PROFILE = (4000, 1200, 600, 200, 80, 40, 20, 10, 6, 4, 3, 2, 2)

CRITEO_KAGGLE = DatasetSpec(
    name="Criteo Kaggle",
    num_dense=13,
    rows_per_table=_criteo_like_tables(33_800_000, 26, _CRITEO_PROFILE),
    pooling=1,
    zipf_alpha=1.35,
    samples_per_epoch=45_840_617,
)

TAOBAO_ALIBABA = DatasetSpec(
    name="Taobao Alibaba",
    num_dense=1,
    rows_per_table=(4_100_000, 900_000, 100_000),
    pooling=1,
    zipf_alpha=1.05,
    samples_per_epoch=9_000_000,
    time_series_length=21,
)

CRITEO_TERABYTE = DatasetSpec(
    name="Criteo Terabyte",
    num_dense=13,
    rows_per_table=_criteo_like_tables(266_000_000, 26, _CRITEO_PROFILE),
    pooling=1,
    zipf_alpha=1.40,
    samples_per_epoch=4_373_472_329 // 10,
)

AVAZU = DatasetSpec(
    name="Avazu",
    num_dense=1,
    rows_per_table=_criteo_like_tables(9_300_000, 21, _CRITEO_PROFILE),
    pooling=1,
    zipf_alpha=1.35,
    samples_per_epoch=40_428_967,
)

# Synthetic multi-hot datasets used for the model-size sensitivity study
# (Section VII-F4, Figure 28) and multi-node scaling (Figure 30).
SYN_D1 = DatasetSpec(
    name="SYN-D1",
    num_dense=54,
    rows_per_table=_criteo_like_tables(760_000_000, 102, _CRITEO_PROFILE),
    pooling=4,
    zipf_alpha=1.30,
    samples_per_epoch=100_000_000,
)

SYN_D2 = DatasetSpec(
    name="SYN-D2",
    num_dense=102,
    rows_per_table=_criteo_like_tables(1_520_000_000, 204, _CRITEO_PROFILE),
    pooling=4,
    zipf_alpha=1.30,
    samples_per_epoch=100_000_000,
)

PAPER_DATASETS: dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in (CRITEO_KAGGLE, TAOBAO_ALIBABA, CRITEO_TERABYTE, AVAZU, SYN_D1, SYN_D2)
}
