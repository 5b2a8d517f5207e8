"""Parameter initialisers.

DLRM's reference implementation initialises dense layers with Xavier/Glorot
uniform weights and embedding tables with uniform values scaled by the table
size; we follow the same conventions so learning curves are comparable.

Every parameter is :data:`DTYPE` (float32), the paper's full-precision
training dtype: ``ModelConfig.dtype_bytes = 4`` prices placement, tiers and
DMA with 4-byte rows, and the arrays held in memory match that price.
"""

from __future__ import annotations

import numpy as np

#: The one training dtype, from the initialisers and the click log through
#: to the optimiser.
DTYPE = np.float32


def xavier_uniform(
    fan_in: int, fan_out: int, rng: np.random.Generator
) -> np.ndarray:
    """Glorot/Xavier uniform initialisation for a (fan_in, fan_out) matrix."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(DTYPE)


def embedding_uniform(
    num_rows: int, dim: int, rng: np.random.Generator
) -> np.ndarray:
    """DLRM-style uniform embedding initialisation in +-1/sqrt(num_rows)."""
    limit = 1.0 / np.sqrt(num_rows)
    return rng.uniform(-limit, limit, size=(num_rows, dim)).astype(DTYPE)


def zeros(*shape: int) -> np.ndarray:
    """Zero-initialised array (used for biases)."""
    return np.zeros(shape, dtype=DTYPE)
