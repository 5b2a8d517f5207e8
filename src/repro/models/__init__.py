"""Recommendation models: DLRM and TBSM, plus the paper's model zoo.

The four evaluated models (RM1-RM4, Table II) and the two synthetic
large-scale models (SYN-M1, SYN-M2, Figure 28) are described by
:class:`~repro.models.configs.ModelConfig` objects; :class:`DLRM` and
:class:`TBSM` instantiate trainable numpy versions of any configuration.
Both are :class:`RecommendationModel` subclasses that supply only their
feature layer (the dot interaction, the attention); the skeleton owns the
MLPs, the embedding bag, the training passes, ``predict`` and the updates.
"""

from repro.models.configs import (
    PAPER_MODELS,
    RM1,
    RM2,
    RM3,
    RM4,
    SYN_M1,
    SYN_M2,
    ModelConfig,
)
from repro.models.dlrm import DLRM, RecommendationModel
from repro.models.tbsm import TBSM

__all__ = [
    "ModelConfig",
    "RM1",
    "RM2",
    "RM3",
    "RM4",
    "SYN_M1",
    "SYN_M2",
    "PAPER_MODELS",
    "RecommendationModel",
    "DLRM",
    "TBSM",
]
