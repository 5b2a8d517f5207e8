"""Pure-numpy neural-network substrate for recommendation-model training.

The paper trains DLRM and TBSM with PyTorch-1.9; this package provides an
equivalent from-scratch implementation (forward + manual backward) so that
the functional claims — identical losses, gradients, and accuracy between the
baseline schedule and the Hotline µ-batch schedule — can be verified exactly
without a GPU framework.

It holds the layers the two models are built from: ``Linear`` + ``ReLU``
MLPs (and :mod:`repro.nn.gemm`'s segment-packed executor over them), the
table-batched embedding bag, the dot interaction, the attention, the fused
loss epilogue and the metrics.  There is no optimiser object: the models
apply plain SGD themselves (``apply_dense_update``,
``apply_sparse_updates``).  The interaction's einsum reference stays here
as the fallback for uncertified shapes; the two-pass loss it replaced
lives in ``tests/oracle.py``.
"""

from repro.nn import init
from repro.nn.attention import DotProductAttention
from repro.nn.embedding import EmbeddingBag, SparseGradient
from repro.nn.interaction import (
    DotInteractionKernel,
    dot_interaction,
    reference_dot_interaction,
    reference_dot_interaction_backward,
)
from repro.nn.layers import Linear, ReLU
from repro.nn.loss import fused_bce_epilogue
from repro.nn.metrics import binary_accuracy, log_loss, roc_auc
from repro.nn.mlp import MLP

__all__ = [
    "Linear",
    "ReLU",
    "MLP",
    "EmbeddingBag",
    "SparseGradient",
    "dot_interaction",
    "DotInteractionKernel",
    "reference_dot_interaction",
    "reference_dot_interaction_backward",
    "DotProductAttention",
    "fused_bce_epilogue",
    "roc_auc",
    "binary_accuracy",
    "log_loss",
    "init",
]
