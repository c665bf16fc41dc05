"""Task-vector construction and geometry.

A task vector is the elementwise difference between fine-tuned trainable
parameters and their shared initialization, defined over the trainable
subset only. Cosine geometry accumulates per-path partial sums in
lexicographic path order; that order fixes the float bits of every cosine,
and so the bytes of the similarity CSVs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checkpoints import Checkpoint
from .errors import ContractError, UndefinedSimilarityError
from .files import write_csv
from .models import ModeTag
from .params import ParamTree


@dataclass(frozen=True)
class TaskVector:
    """Trainable-parameter delta tagged with its paradigm and source task."""

    delta: ParamTree
    mode: ModeTag
    task_id: str


def compute_task_vector(ckpt: Checkpoint) -> TaskVector:
    """Trained minus initial trainable parameters, per path."""
    ckpt.initial.require_congruent(ckpt.trained, "checkpoint trees")
    return TaskVector(
        delta=ckpt.trained.sub(ckpt.initial),
        mode=ckpt.spec.mode,
        task_id=ckpt.task_id,
    )


def _paired_sums(a: ParamTree, b: ParamTree) -> tuple[float, float, float]:
    """Per-path dot and squared norms, accumulated in path order."""
    dot = na2 = nb2 = 0.0
    for _, start, stop, _ in a.layout():
        x, y = a.flatten()[start:stop], b.flatten()[start:stop]
        dot += float(np.dot(x, y))
        na2 += float(np.dot(x, x))
        nb2 += float(np.dot(y, y))
    return dot, na2, nb2


def cosine_similarity(a: TaskVector, b: TaskVector) -> float:
    """Cosine of the flattened vectors over matched paths.

    Vectors are only comparable when their trees are congruent; trees
    with other paths or shapes, such as a full paradigm's against an
    adapter paradigm's, are rejected rather than silently padded.
    """
    if not a.delta.congruent_with(b.delta):
        raise ContractError(
            f"task vectors are not comparable: modes {a.mode.value}/{b.mode.value} "
            "with different parameter sets"
        )
    dot, na2, nb2 = _paired_sums(a.delta, b.delta)
    if na2 == 0.0 or nb2 == 0.0:
        raise UndefinedSimilarityError("cosine similarity of a zero task vector is undefined")
    if np.array_equal(a.delta.flatten(), b.delta.flatten()):
        return 1.0
    return dot / (np.sqrt(na2) * np.sqrt(nb2))


def similarity_matrix(vectors: list[TaskVector]) -> tuple[list[str], np.ndarray]:
    """All pairwise cosines; returns (task ids, symmetric matrix)."""
    if len(vectors) < 2:
        raise ContractError("similarity matrix needs at least two task vectors")
    n = len(vectors)
    m = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            m[i, j] = cosine_similarity(vectors[i], vectors[j])
    return [v.task_id for v in vectors], m


def write_similarity_csv(ids: list[str], matrix: np.ndarray, path, meta: str = "") -> None:
    """Square CSV with the task-id header row and column."""
    write_csv(path, meta, ["task_id", *ids], ([task_id, *row] for task_id, row in zip(ids, matrix)))
