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


#: Rows per float64 draw when filling a table: the draws are sequential,
#: so blocks give the whole-table draw's values while the float64
#: temporary stays a few hundred KB instead of twice the table.
FILL_ROWS = 4096


def embedding_uniform(table: np.ndarray, rng: np.random.Generator) -> None:
    """DLRM-style uniform initialisation in +-1/sqrt(rows) of one table's
    ``(rows, dim)`` weight rows, in place, :data:`FILL_ROWS` rows at a
    time."""
    limit = 1.0 / np.sqrt(table.shape[0])
    for start in range(0, table.shape[0], FILL_ROWS):
        block = table[start : start + FILL_ROWS]
        block[...] = rng.uniform(-limit, limit, size=block.shape)


def zeros(*shape: int) -> np.ndarray:
    """Zero-initialised array (used for biases)."""
    return np.zeros(shape, dtype=DTYPE)
