"""Model configurations from Table II of the paper (plus the synthetic ones).

| Model | Dataset         | Dns | Sps | Dim | Bottom MLP       | Top MLP       | Extra | Size   |
|-------|-----------------|-----|-----|-----|------------------|---------------|-------|--------|
| RM1   | Taobao Alibaba  | 1   | 3   | 16  | 1-16             | 30-60-1       | attn  | 0.3 GB |
| RM2   | Criteo Kaggle   | 13  | 26  | 16  | 13-512-256-64-16 | 512-256-1     | -     | 2 GB   |
| RM3   | Criteo Terabyte | 13  | 26  | 64  | 13-512-256-64    | 512-512-256-1 | -     | 63 GB  |
| RM4   | Avazu           | 1   | 21  | 16  | 1-512-256-64-16  | 512-256-1     | -     | 0.55 GB|
| SYN-M1| SYN-D1          | 54  | 102 | 64  | 54-512-256-64    | 512-512-256-1 | multi | 196 GB |
| SYN-M2| SYN-D2          | 102 | 204 | 64  | 102-512-256-64   | 512-512-256-1 | multi | 390 GB |

(Dns/Sps = dense/sparse feature counts; attn = attention; multi = multi-hot.)

RM1 is trained with TBSM (time-series length 21), the others with DLRM.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.data.datasets import (
    AVAZU,
    CRITEO_KAGGLE,
    CRITEO_TERABYTE,
    SYN_D1,
    SYN_D2,
    TAOBAO_ALIBABA,
    DatasetSpec,
)
from repro.hwsim.units import GB


@dataclass(frozen=True)
class ModelConfig:
    """Architecture + dataset binding for one recommendation model.

    Attributes:
        name: Model name (RM1..RM4, SYN-M1, SYN-M2).
        dataset: The dataset the model is trained on.
        embedding_dim: Sparse feature vector dimension.
        bottom_mlp: Bottom MLP layer sizes as a DLRM arch string.
        top_mlp: Top MLP layer sizes (final layer of size 1 produces the
            CTR logit).
        uses_attention: Whether the model is a TBSM (RM1) with an attention
            layer over the time series.
        dtype_bytes: Bytes per embedding element (4 = fp32 full precision).
    """

    name: str
    dataset: DatasetSpec
    embedding_dim: int
    bottom_mlp: str
    top_mlp: str
    uses_attention: bool = False
    dtype_bytes: int = 4

    @property
    def num_dense_features(self) -> int:
        """Number of continuous input features."""
        return self.dataset.num_dense

    def check_dense(self, dense) -> None:
        """Raise :class:`ValueError` naming both widths unless the
        ``(batch, features)`` block ``dense`` has ``num_dense_features``
        columns.  The models call it before their gather, so a rejected
        batch touches neither the hot tier nor a layer."""
        if dense.shape[1] != self.num_dense_features:
            raise ValueError(
                f"dense block has {dense.shape[1]} features, the model takes "
                f"{self.num_dense_features}"
            )

    @property
    def num_sparse_features(self) -> int:
        """Number of categorical features (embedding tables)."""
        return self.dataset.num_sparse

    @property
    def dense_parameter_count(self) -> int:
        """Approximate MLP parameter count (weights + biases)."""
        count = 0
        for arch in (self.bottom_mlp, self.top_mlp):
            sizes = [int(token) for token in arch.split("-")]
            for fan_in, fan_out in zip(sizes[:-1], sizes[1:], strict=True):
                count += fan_in * fan_out + fan_out
        return count

    @property
    def embedding_bytes(self) -> float:
        """Total embedding-table footprint in bytes."""
        return self.dataset.embedding_bytes(self.embedding_dim, self.dtype_bytes)

    @property
    def embedding_gigabytes(self) -> float:
        """Embedding footprint in decimal gigabytes (as quoted in Table II)."""
        return self.embedding_bytes / GB

    @property
    def mlp_flops_per_sample(self) -> float:
        """Forward FLOPs of the MLPs for one sample.

        Per ``Linear`` of the two arch strings, ``2*in*out``
        multiply-accumulates plus the bias add (``out``) and the
        hidden-layer ReLU (``out``, every layer but the last) — not MACs
        alone, which undercounted the dense times derived by
        ``perf/costs.py``.
        """
        flops = 0.0
        for arch in (self.bottom_mlp, self.top_mlp):
            sizes = [int(token) for token in arch.split("-")]
            last = len(sizes) - 2
            for i, (fan_in, fan_out) in enumerate(
                zip(sizes[:-1], sizes[1:], strict=True)
            ):
                flops += 2.0 * fan_in * fan_out + fan_out
                if i != last:
                    flops += fan_out
        steps = self.dataset.time_series_length if self.uses_attention else 1
        return flops * steps

    def bytes_per_lookup(self) -> int:
        """Bytes fetched for a single embedding-row access."""
        return self.embedding_dim * self.dtype_bytes

    def scaled(
        self, max_rows_per_table: int = 20_000, samples_per_epoch: int | None = None
    ) -> ModelConfig:
        """A functionally-trainable copy with capped embedding-table sizes."""
        return replace(
            self,
            name=f"{self.name} (scaled)",
            dataset=self.dataset.scaled(max_rows_per_table, samples_per_epoch),
        )


RM1 = ModelConfig(
    name="RM1",
    dataset=TAOBAO_ALIBABA,
    embedding_dim=16,
    bottom_mlp="1-16",
    top_mlp="30-60-1",
    uses_attention=True,
)

RM2 = ModelConfig(
    name="RM2",
    dataset=CRITEO_KAGGLE,
    embedding_dim=16,
    bottom_mlp="13-512-256-64-16",
    top_mlp="512-256-1",
)

RM3 = ModelConfig(
    name="RM3",
    dataset=CRITEO_TERABYTE,
    embedding_dim=64,
    bottom_mlp="13-512-256-64",
    top_mlp="512-512-256-1",
)

RM4 = ModelConfig(
    name="RM4",
    dataset=AVAZU,
    embedding_dim=16,
    bottom_mlp="1-512-256-64-16",
    top_mlp="512-256-1",
)

SYN_M1 = ModelConfig(
    name="SYN-M1",
    dataset=SYN_D1,
    embedding_dim=64,
    bottom_mlp="54-512-256-64",
    top_mlp="512-512-256-1",
)

SYN_M2 = ModelConfig(
    name="SYN-M2",
    dataset=SYN_D2,
    embedding_dim=64,
    bottom_mlp="102-512-256-64",
    top_mlp="512-512-256-1",
)

PAPER_MODELS: dict[str, ModelConfig] = {
    config.name: config for config in (RM1, RM2, RM3, RM4, SYN_M1, SYN_M2)
}

#: The four real-world models used in most figures (RM1-RM4), keyed by the
#: dataset labels the paper's figures use.
REAL_WORLD_MODELS: dict[str, ModelConfig] = {
    "Criteo Kaggle": RM2,
    "Taobao Alibaba": RM1,
    "Criteo Terabyte": RM3,
    "Avazu": RM4,
}
