"""Task-specific fine-tuning under any of the four paradigms.

Logits and gradients come from ``models.Scorer`` anchored at the initial
trainable parameters. Linearized paradigms train the tangent model: logits
come from one JVP at the anchor, and the parameter gradient is the VJP at
the anchor with the cross-entropy logit gradient. Nonlinear paradigms run
the same VJP at the current parameters. Either way one optimizer step costs
a forward and a backward pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .checkpoints import Checkpoint, backbone_for
from .errors import ContractError, TrainingDivergedError
from .files import write_csv
from .models import ModelSpec, Scorer, require_trees
from .params import ParamTree
from .tasks import Dataset, Task


OPTIMIZERS = ("sgd", "adam")


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 300
    batch_size: int = 32
    learning_rate: float = 0.005
    optimizer: str = "adam"  # "sgd" or "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    shuffle_seed: int = 0

    def __post_init__(self):
        for key in ("steps", "batch_size"):
            if getattr(self, key) < 1:
                raise ContractError(f"{key} = {getattr(self, key)} must be at least 1")
        if not 0 <= self.learning_rate < math.inf:
            raise ContractError(f"learning_rate = {self.learning_rate} must be finite and non-negative")
        if self.optimizer not in OPTIMIZERS:
            raise ContractError(f"optimizer = {self.optimizer!r} is not one of {OPTIMIZERS}")
        for key in ("beta1", "beta2"):
            if not 0 <= getattr(self, key) < 1:
                raise ContractError(f"{key} = {getattr(self, key)} must lie in [0, 1)")
        if not self.eps > 0:
            raise ContractError(f"eps = {self.eps} must be positive")


def check_labels(labels: np.ndarray, num_classes: int):
    """Raise ``ContractError`` unless ``labels`` is non-empty and within ``[0, num_classes)``."""
    if labels.size == 0:
        raise ContractError("empty batch")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ContractError(
            f"label out of range [0, {num_classes}): found {labels.min()}..{labels.max()}"
        )


def cross_entropy_loss(logits, labels, check: bool = True) -> float:
    """Mean negative log-softmax probability of the true class.

    The numpy ops of ``autodiff``'s log_softmax → pick_rows → ×(−1) →
    mean_all, in that order, so the loss keeps the bits it had when it was
    computed with them; ``np.add.reduce(v) / n`` is the division ``mean``
    does. ``check=False`` skips the conversion of ``labels`` and the shape
    and label checks, for a caller that has run ``check_labels`` once on an
    integer label array it reuses.
    """
    arr = logits.array if isinstance(logits, Tensor) else np.asarray(logits, dtype=np.float64)
    if check:
        labels = np.asarray(labels, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[0] != labels.shape[0]:
            raise ContractError(f"logits {arr.shape} do not match {labels.shape[0]} labels")
        check_labels(labels, arr.shape[1])
    n = labels.shape[0]
    shifted = arr - arr.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return float(np.add.reduce(log_probs[np.arange(n), labels] * -1.0) / n)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def ce_logit_gradient(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Gradient of the mean cross-entropy with respect to the logits."""
    g = _softmax(logits)
    g[np.arange(labels.shape[0]), labels] -= 1.0
    return g / labels.shape[0]


def batch_loss_and_grad(scorer: Scorer, flat: np.ndarray, ys: np.ndarray) -> tuple[float, np.ndarray]:
    """Cross-entropy on the scorer's inputs and its gradient w.r.t. the flat trainable vector.

    For linearized paradigms the gradient is taken through the tangent
    model at the scorer's anchor; otherwise through the network at
    ``flat`` directly.
    """
    logits, pullback = scorer.at(flat)
    loss = cross_entropy_loss(logits, ys)
    return loss, pullback(ce_logit_gradient(logits, ys))


class _Batcher:
    """Epoch-shuffled mini-batches from a dedicated shuffling seed."""

    def __init__(self, n: int, batch_size: int, seed: int):
        self.n = n
        self.batch_size = min(batch_size, n)
        self.rng = np.random.default_rng(int(seed) & 0xFFFFFFFFFFFFFFFF)
        self.order = np.zeros(0, dtype=np.int64)
        self.pos = 0

    def next(self) -> np.ndarray:
        if self.pos + self.batch_size > self.order.size:
            self.order = self.rng.permutation(self.n)
            self.pos = 0
        idx = self.order[self.pos : self.pos + self.batch_size]
        self.pos += self.batch_size
        return idx


class _Sgd:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, flat: np.ndarray, g: np.ndarray) -> np.ndarray:
        return flat - self.lr * g


class _Adam:
    def __init__(self, lr: float, beta1: float, beta2: float, eps: float):
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps
        self.m = None
        self.v = None
        self.t = 0

    def step(self, flat: np.ndarray, g: np.ndarray) -> np.ndarray:
        if self.m is None:
            self.m = np.zeros_like(flat)
            self.v = np.zeros_like(flat)
        self.t += 1
        self.m = self.b1 * self.m + (1 - self.b1) * g
        self.v = self.b2 * self.v + (1 - self.b2) * g * g
        mhat = self.m / (1 - self.b1**self.t)
        vhat = self.v / (1 - self.b2**self.t)
        return flat - self.lr * mhat / (np.sqrt(vhat) + self.eps)


def _make_optimizer(config: TrainConfig):
    if config.optimizer == "sgd":
        return _Sgd(config.learning_rate)
    return _Adam(config.learning_rate, config.beta1, config.beta2, config.eps)


def finetune(
    spec: ModelSpec,
    theta0: ParamTree,
    init_trainable: ParamTree,
    task: Task,
    config: TrainConfig,
    init_seed: int = 0,
) -> tuple[Checkpoint, list[tuple[int, float, float]]]:
    """Fine-tune on one task; returns the checkpoint and per-step history.

    History rows are (step, train batch loss, val accuracy). The backbone
    is never touched; for adapter paradigms it stays bit-identical by
    construction. Deterministic given the config's shuffling seed.
    """
    if len(task.train) == 0 or len(task.val) == 0:
        raise ContractError("task splits must be non-empty")
    require_trees(spec, theta0, init_trainable)
    check_labels(task.train.ys, spec.num_classes)
    if not theta0.equal_bits(backbone_for(spec, int(init_seed))):
        raise ContractError(
            "theta0 does not match init_seed; the checkpoint would not round-trip"
        )

    flat = init_trainable.flatten().copy()
    batcher = _Batcher(len(task.train), config.batch_size, config.shuffle_seed)
    opt = _make_optimizer(config)
    history: list[tuple[int, float, float]] = []
    val = Scorer(spec, theta0, init_trainable, task.val.xs)

    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for step in range(config.steps):
            idx = batcher.next()
            batch = Scorer(spec, theta0, init_trainable, task.train.xs[idx])
            loss, g = batch_loss_and_grad(batch, flat, task.train.ys[idx])
            if not np.isfinite(loss):
                raise TrainingDivergedError(step)
            flat = opt.step(flat, g)
            if not np.isfinite(flat).all():
                raise TrainingDivergedError(step, f"parameters became non-finite at step {step}")
            history.append((step, loss, _accuracy_from_flat(val, flat, task.val.ys)))
        final_train_loss, _ = batch_loss_and_grad(
            Scorer(spec, theta0, init_trainable, task.train.xs), flat, task.train.ys
        )
        if not np.isfinite(final_train_loss):
            raise TrainingDivergedError(config.steps)

    trained = init_trainable.with_flat(flat)
    metrics = {
        "final_train_loss": float(final_train_loss),
        "final_val_accuracy": history[-1][2],
    }
    ckpt = Checkpoint(
        spec=spec,
        task_id=task.id,
        init_seed=int(init_seed),
        initial=init_trainable,
        trained=trained,
        metrics=metrics,
    )
    return ckpt, history


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows whose argmax is the label; argmax ties go to the lowest class."""
    return float(np.mean(np.argmax(logits, axis=1) == labels))


def _accuracy_from_flat(scorer: Scorer, flat: np.ndarray, labels: np.ndarray) -> float:
    """``finetune``'s per-step validation pass; perfbench's tracer times it by name."""
    return accuracy(scorer.at(flat)[0], labels)


def evaluate(
    spec: ModelSpec,
    theta0: ParamTree,
    trainable: ParamTree,
    dataset: Dataset,
    anchor: ParamTree | None = None,
) -> float:
    """``accuracy`` of the paradigm's logits (``Scorer.at``) on ``dataset``.

    Linearized paradigms need the tangent anchor (the trainable tree the
    model was linearized around); the others use it only for its layout.
    Non-finite logits raise ``ContractError``.
    """
    if len(dataset) == 0:
        raise ContractError("cannot evaluate on an empty dataset")
    if spec.mode.is_linearized and anchor is None:
        raise ContractError("linearized evaluation requires the tangent anchor")
    require_trees(spec, theta0, trainable)
    scorer = Scorer(spec, theta0, trainable if anchor is None else anchor, dataset.xs)
    return scored_accuracy(scorer, trainable.flatten(), dataset.ys)


def scored_accuracy(scorer: Scorer, flat: np.ndarray, labels: np.ndarray) -> float:
    """``accuracy`` of ``scorer.at(flat)``'s logits; non-finite logits raise ``ContractError``.

    ``evaluate``'s core, for a caller that scores many vectors on one
    scorer's inputs.
    """
    logits, _ = scorer.at(flat)
    if not np.isfinite(logits).all():
        raise ContractError("logits must be finite")
    return accuracy(logits, labels)


def evaluate_checkpoint(ckpt: Checkpoint, dataset: Dataset) -> float:
    return evaluate(
        ckpt.spec, ckpt.theta0(), ckpt.trained, dataset, anchor=ckpt.initial
    )


def write_metrics_csv(history, path, meta: str = "") -> None:
    """Sidecar with one row per step: step, train loss, val accuracy."""
    write_csv(path, meta or "fuselab-metrics v1", ["step", "train_loss", "val_accuracy"], history)
