"""Two-stage prompt pretraining at desk scale.

Stage 1 tunes deep visual prompts and a small classification head on a frozen
transformer backbone; stage 2 aligns templated instruction prompts with
sub-path features through a symmetric KL contrastive objective.  Everything
runs on an in-package float64 autodiff substrate so every gradient can be
verified by central finite differences.
"""

from .encoders import EncoderConfig
from .optim import Optimizer, ParamStore, backward, finite_difference_check
from .tensor import Tensor
from .training import RunConfig, evaluate_retrieval, run_stage1, run_stage2

__all__ = [
    "Tensor",
    "ParamStore",
    "Optimizer",
    "backward",
    "finite_difference_check",
    "EncoderConfig",
    "RunConfig",
    "run_stage1",
    "run_stage2",
    "evaluate_retrieval",
]
