"""Desk-scale laboratory for merging task-specific fine-tuned models.

Implements four fine-tuning paradigms (full fine-tuning, full-model
linearization, low-rank adapters, and partially linearized low-rank
adapters trained in tangent space) on one hand-written network kernel,
four multi-task fusion algorithms with their hyperparameter sweeps, and a
weight-disentanglement analysis suite, all on deterministic synthetic
task families. A self-contained tensor and autodiff core is the kernel's
test oracle; no runtime module imports it, and this module re-exports it.
"""

import os

# One OpenBLAS thread unless the user chose a count: at this lab's sizes a second one
# doubles fine-tuning's CPU time without cutting its wall time. Too late once numpy is loaded.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & set(os.environ):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .autodiff import Tensor, grad, jvp, matmul, vjp
from .checkpoints import Checkpoint, load_checkpoint, save_checkpoint
from .errors import (
    ConfigError,
    ContractError,
    DimensionError,
    FuselabError,
    ResourceLimitError,
    TrainingDivergedError,
    UndefinedSimilarityError,
)
from .models import LinearizedState, ModeTag, ModelSpec, build_model, forward, forward_linearized
from .params import ParamTree
from .task_vectors import (
    TaskVector,
    compute_task_vector,
    cosine_similarity,
    similarity_matrix,
)
from .tasks import Dataset, Task, TaskSuite, make_task_suite
from .training import TrainConfig, cross_entropy_loss, evaluate, finetune

__version__ = "0.1.0"
