"""Task-vector construction and geometry.

A task vector is the elementwise difference between fine-tuned trainable
parameters and their shared initialization, defined over the trainable
subset only. Cosine geometry accumulates per-path partial sums in
lexicographic path order, which makes embedding vectors into the joint
(backbone, adapter) space by zero-padding an exact no-op for every
pairwise cosine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checkpoints import Checkpoint
from .errors import ContractError, UndefinedSimilarityError
from .files import write_atomic
from .models import ModeTag, ModelSpec
from .params import ParamTree, combine


@dataclass(frozen=True)
class TaskVector:
    """Trainable-parameter delta tagged with its paradigm and source task."""

    delta: ParamTree
    mode: ModeTag
    task_id: str

    @property
    def num_values(self) -> int:
        return self.delta.num_values

    def scale(self, factor: float) -> "TaskVector":
        return TaskVector(self.delta.scale(factor), self.mode, self.task_id)


def compute_task_vector(ckpt: Checkpoint) -> TaskVector:
    """Trained minus initial trainable parameters, per path."""
    ckpt.initial.require_congruent(ckpt.trained, "checkpoint trees")
    return TaskVector(
        delta=ckpt.trained.sub(ckpt.initial),
        mode=ckpt.spec.mode,
        task_id=ckpt.task_id,
    )


def linear_combine(vectors: list[TaskVector], weights: list[float]) -> TaskVector:
    """Elementwise weighted sum of congruent same-mode task vectors."""
    if not vectors:
        raise ContractError("need at least one task vector")
    head = vectors[0].delta
    for v in vectors[1:]:
        if v.mode != vectors[0].mode:
            raise ContractError(
                f"cannot combine task vectors across modes ({vectors[0].mode.value} vs {v.mode.value})"
            )
        head.require_congruent(v.delta, "task vectors")
    flat = combine(np.zeros(head.num_values), [v.delta.flatten() for v in vectors], weights)
    return TaskVector(
        delta=head.with_flat(flat),
        mode=vectors[0].mode,
        task_id="+".join(v.task_id for v in vectors),
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

    Vectors from different paradigms are only comparable when their key
    sets already agree (e.g. after an explicit joint-space embedding);
    mismatched native trees are rejected rather than silently padded.
    """
    if not a.delta.congruent_with(b.delta):
        raise ContractError(
            f"task vectors are not comparable: modes {a.mode.value}/{b.mode.value} "
            "with different parameter sets (embed into the joint space first)"
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


def embed_in_joint_space(vector: TaskVector, spec: ModelSpec) -> TaskVector:
    """Zero-pad a task vector onto the joint (backbone, adapter) key set.

    Full-paradigm vectors gain zero adapter blocks and adapter-paradigm
    vectors gain zero backbone blocks, making cross-paradigm geometry a
    comparison over one shared parameter space.
    """
    joint_shapes = dict(spec.backbone_shapes())
    joint_shapes.update(spec.adapter_shapes())
    own = vector.delta.shapes()
    for path, shape in own.items():
        if path not in joint_shapes or joint_shapes[path] != shape:
            raise ContractError(
                f"vector path {path!r} with shape {shape} does not fit this architecture"
            )
    entries = {path: vector.delta[path] if path in own else np.zeros(shape)
               for path, shape in joint_shapes.items()}
    return TaskVector(ParamTree(entries), vector.mode, vector.task_id)


def write_similarity_csv(ids: list[str], matrix: np.ndarray, path, meta: str = "") -> None:
    """Square CSV with the task-id header row and column."""
    lines = []
    if meta:
        lines.append(f"# {meta}")
    lines.append(",".join(["task_id", *ids]))
    for task_id, row in zip(ids, matrix):
        lines.append(",".join([task_id, *("%.17g" % v for v in row)]))
    write_atomic(path, "\n".join(lines) + "\n")
