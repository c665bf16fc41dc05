"""Multi-task fusion algorithms, their hyperparameter sweeps, and the subset harness.

All order-sensitive reductions canonicalize their inputs by task id
before summing, so permuting the caller's checkpoint or vector order can
never change a merged result. The derivative-free combiner is excluded
from that guarantee and promises determinism under a fixed seed instead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize as sciopt

from .checkpoints import Checkpoint
from .errors import ContractError
from .models import ModelSpec, predict_logits
from .params import ParamTree, combine
from .task_vectors import TaskVector, compute_task_vector
from .tasks import Dataset
from .training import cross_entropy_loss, evaluate

DEFAULT_LAMBDA_GRID = tuple(round(0.05 * i, 2) for i in range(21))
DEFAULT_TIES_GRID = (0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class FusionConfig:
    algorithm: str = "task_arithmetic"
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID
    ties_k_grid: tuple[float, ...] = DEFAULT_TIES_GRID
    ties_lambda_grid: tuple[float, ...] = DEFAULT_TIES_GRID
    lorahub_alpha: float = 0.05
    lorahub_max_steps: int = 40

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ContractError(f"unknown fusion algorithm {self.algorithm!r}")
        if not self.lambda_grid or not self.ties_k_grid or not self.ties_lambda_grid:
            raise ContractError("hyperparameter grids must be non-empty")
        if self.lorahub_alpha < 0:
            raise ContractError("lorahub_alpha must be non-negative")


@dataclass(frozen=True)
class MergedModel:
    """A fused multi-task model plus the record of how it was built."""

    spec: ModelSpec
    theta0: ParamTree
    initial: ParamTree
    trainable: ParamTree
    provenance: dict = field(default_factory=dict)

    def evaluate_on(self, dataset: Dataset) -> float:
        return evaluate(
            self.spec, self.theta0, self.trainable, dataset, anchor=self.initial
        )


def _common_context(checkpoints: list[Checkpoint]) -> tuple[ModelSpec, int, ParamTree, ParamTree]:
    if not checkpoints:
        raise ContractError("need at least one checkpoint")
    head = checkpoints[0]
    for c in checkpoints[1:]:
        if c.spec != head.spec:
            raise ContractError("checkpoints disagree on architecture or paradigm")
        if c.init_seed != head.init_seed:
            raise ContractError("checkpoints were built from different init seeds")
        if not c.initial.equal_bits(head.initial):
            raise ContractError("checkpoints do not share the same initialization")
    return head.spec, head.init_seed, head.theta0(), head.initial


def simple_average(initial: ParamTree, checkpoints: list[Checkpoint]) -> MergedModel:
    """Elementwise mean of the trained trainable trees."""
    if len(checkpoints) < 2:
        raise ContractError("simple average needs at least two checkpoints")
    spec, seed, theta0, shared_initial = _common_context(checkpoints)
    initial.require_congruent(shared_initial, "initial trees")
    ordered = sorted(checkpoints, key=lambda c: c.task_id)
    merged = initial.with_flat(np.mean([c.trained.flatten() for c in ordered], axis=0))
    return MergedModel(
        spec=spec,
        theta0=theta0,
        initial=initial,
        trainable=merged,
        provenance={
            "algorithm": "simple_average",
            "mode": spec.mode.value,
            "task_ids": [c.task_id for c in ordered],
            "hyperparameters": {},
            "init_seed": seed,
        },
    )


def summed_vector(vectors: list[TaskVector]) -> ParamTree:
    """Canonically ordered sum of task-vector deltas."""
    if not vectors:
        raise ContractError("need at least one task vector")
    ordered = sorted(vectors, key=lambda v: v.task_id)
    rest = ordered[1:]
    # Starting from the first delta rather than zeros keeps its -0.0 entries.
    return combine(ordered[0].delta, [v.delta for v in rest], [1.0] * len(rest), "task vectors")


def task_arithmetic(
    initial: ParamTree,
    vectors: list[TaskVector],
    lam: float,
    context: tuple[ModelSpec, int, ParamTree] | None = None,
) -> MergedModel:
    """initial + lam * (sum of task vectors), one coefficient for the sum."""
    merged = combine(initial, [summed_vector(vectors)], [lam], "initial tree and task vectors")
    spec, seed, theta0 = context if context is not None else (None, None, None)
    return MergedModel(
        spec=spec,
        theta0=theta0,
        initial=initial,
        trainable=merged,
        provenance={
            "algorithm": "task_arithmetic",
            "mode": vectors[0].mode.value,
            "task_ids": sorted(v.task_id for v in vectors),
            "hyperparameters": {"lambda": float(lam)},
            "init_seed": seed,
        },
    )


def ties_trim(flat: np.ndarray, k: float) -> np.ndarray:
    """Keep the ceil(k*D) largest-magnitude coordinates, zero the rest.

    Ties at the cutoff magnitude keep the lowest index.
    """
    if not 0.0 < k <= 1.0:
        raise ContractError(f"ties trim fraction k={k} must lie in (0, 1]")
    d = flat.size
    m = int(np.ceil(k * d))
    keep = np.argsort(-np.abs(flat), kind="stable")[:m]
    out = np.zeros_like(flat)
    out[keep] = flat[keep]
    return out


def ties_merge(
    initial: ParamTree,
    vectors: list[TaskVector],
    k: float,
    lam: float,
    context: tuple[ModelSpec, int, ParamTree] | None = None,
) -> MergedModel:
    """Trim by magnitude, elect per-coordinate signs, then disjoint-merge.

    Per coordinate the elected sign is the sign of the summed trimmed
    values; the merged value is the mean of the trimmed values whose sign
    matches it (zero when the election ties at zero).
    """
    if not vectors:
        raise ContractError("ties merging needs at least one task vector")
    ordered = sorted(vectors, key=lambda v: v.task_id)
    head = ordered[0].delta
    for v in ordered[1:]:
        head.require_congruent(v.delta, "task vectors")
    initial.require_congruent(head, "initial tree and task vectors")
    trimmed = np.stack([ties_trim(v.delta.flatten(), k) for v in ordered])
    elected = np.sign(trimmed.sum(axis=0))
    match = (np.sign(trimmed) == elected) & (elected != 0)
    counts = match.sum(axis=0)
    sums = (trimmed * match).sum(axis=0)
    merged_flat = np.divide(
        sums, counts, out=np.zeros_like(sums), where=counts > 0
    )
    merged = combine(initial, [initial.with_flat(merged_flat)], [lam])
    spec, seed, theta0 = context if context is not None else (None, None, None)
    return MergedModel(
        spec=spec,
        theta0=theta0,
        initial=initial,
        trainable=merged,
        provenance={
            "algorithm": "ties_merging",
            "mode": vectors[0].mode.value,
            "task_ids": [v.task_id for v in ordered],
            "hyperparameters": {"k": float(k), "lambda": float(lam)},
            "init_seed": seed,
        },
    )


def lorahub_optimize(
    spec: ModelSpec,
    theta0: ParamTree,
    initial: ParamTree,
    vectors: list[TaskVector],
    fewshot: Dataset,
    alpha: float = 0.05,
    max_steps: int = 40,
    seed: int = 0,
) -> tuple[list[float], MergedModel]:
    """Derivative-free search for per-task combination weights.

    Minimizes few-shot cross-entropy of initial + sum(w_i * v_i) plus an
    L1 penalty alpha * sum|w_i| with a seeded Nelder-Mead simplex started
    at uniform weights. The pretrained point w=0 is scored as part of the
    initial population, so the returned best never loses to it. Budget:
    at most ``max_steps`` objective evaluations beyond the initial
    simplex; running out is not an error, the best-so-far wins. NaN
    objectives are discarded.
    """
    if len(fewshot) == 0:
        raise ContractError("lorahub needs a non-empty few-shot dataset")
    if not vectors:
        raise ContractError("lorahub needs at least one task vector")
    ordered = sorted(vectors, key=lambda v: v.task_id)
    n = len(ordered)
    deltas = [v.delta for v in ordered]
    best = {"obj": np.inf, "w": np.zeros(n)}

    def objective(w: np.ndarray) -> float:
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            try:
                tree = combine(initial, deltas, w)
                loss = _fewshot_loss(spec, theta0, initial, tree, fewshot)
            except ContractError:  # non-finite candidate: discard
                return np.inf
        obj = loss + float(alpha) * float(np.sum(np.abs(w)))
        if not np.isfinite(obj):
            return np.inf
        if obj < best["obj"]:
            best["obj"] = obj
            best["w"] = np.array(w, dtype=np.float64)
        return obj

    objective(np.zeros(n))  # pretrained baseline, part of the initial population
    w0 = np.full(n, 1.0 / n)
    sciopt.minimize(
        objective,
        w0,
        method="Nelder-Mead",
        options={
            "maxfev": max_steps + n + 1,
            "xatol": 1e-10,
            "fatol": 1e-12,
            "adaptive": False,
            "disp": False,
        },
    )
    weights = [float(v) for v in best["w"]]
    merged = combine(initial, deltas, best["w"])
    model = MergedModel(
        spec=spec,
        theta0=theta0,
        initial=initial,
        trainable=merged,
        provenance={
            "algorithm": "lorahub",
            "mode": ordered[0].mode.value,
            "task_ids": [v.task_id for v in ordered],
            "hyperparameters": {
                "alpha": float(alpha),
                "max_steps": int(max_steps),
                "seed": int(seed),
                "weights": {v.task_id: w for v, w in zip(ordered, weights)},
            },
            "objective": float(best["obj"]),
        },
    )
    return weights, model


def _fewshot_loss(spec, theta0, anchor, tree, fewshot: Dataset) -> float:
    logits = predict_logits(spec, theta0, anchor, tree, fewshot.xs)
    return cross_entropy_loss(logits.array, fewshot.ys)


def enumerate_subsets(task_ids: list[str]) -> list[tuple[str, ...]]:
    """All subsets of size >= 2, ordered by size then lexicographically."""
    ids = sorted(task_ids)
    if len(ids) < 2:
        raise ContractError("subset enumeration needs at least two tasks")
    if len(set(ids)) != len(ids):
        raise ContractError("task ids must be unique")
    out = []
    for size in range(2, len(ids) + 1):
        out.extend(itertools.combinations(ids, size))
    return out


ALGORITHMS = ("simple_average", "task_arithmetic", "ties_merging", "lorahub")


def sweep_and_select(
    config: FusionConfig,
    checkpoints: list[Checkpoint],
    validation: dict[str, Dataset],
    fewshot: Dataset | None = None,
    seed: int = 0,
) -> MergedModel:
    """Build every candidate on the config's grids and keep the validation argmax.

    Mean validation accuracy over the subset's tasks decides; exact ties
    go to the smaller scaling factor, then the smaller trim fraction.
    """
    spec, init_seed, theta0, initial = _common_context(checkpoints)
    ordered = sorted(checkpoints, key=lambda c: c.task_id)
    for c in ordered:
        ds = validation.get(c.task_id)
        if ds is None or len(ds) == 0:
            raise ContractError(f"validation set for {c.task_id!r} is empty or missing")
    vectors = [compute_task_vector(c) for c in ordered]
    context = (spec, init_seed, theta0)

    def score(model: MergedModel) -> float:
        accs = [model.evaluate_on(validation[c.task_id]) for c in ordered]
        return float(np.mean(accs))

    candidates: list[tuple[tuple, MergedModel]] = []
    if config.algorithm == "simple_average":
        candidates.append(((0.0, 0.0), simple_average(initial, ordered)))
    elif config.algorithm == "task_arithmetic":
        for lam in sorted(config.lambda_grid):
            candidates.append(((lam, 0.0), task_arithmetic(initial, vectors, lam, context)))
    elif config.algorithm == "ties_merging":
        for lam in sorted(config.ties_lambda_grid):
            for k in sorted(config.ties_k_grid):
                candidates.append(((lam, k), ties_merge(initial, vectors, k, lam, context)))
    elif config.algorithm == "lorahub":
        if fewshot is None or len(fewshot) == 0:
            raise ContractError("lorahub sweep needs a few-shot dataset")
        _, model = lorahub_optimize(
            spec, theta0, initial, vectors, fewshot,
            alpha=config.lorahub_alpha, max_steps=config.lorahub_max_steps, seed=seed,
        )
        candidates.append(((0.0, 0.0), model))

    best_key = None
    best_score = -np.inf
    best_model = None
    for key, model in candidates:
        s = score(model)
        if s > best_score:
            best_key, best_score, best_model = key, s, model
    assert best_model is not None
    per_task = {
        c.task_id: best_model.evaluate_on(validation[c.task_id]) for c in ordered
    }
    provenance = dict(best_model.provenance)
    provenance["init_seed"] = init_seed
    provenance["validation_scores"] = per_task
    provenance["mean_validation_score"] = best_score
    provenance["candidates_evaluated"] = len(candidates)
    return MergedModel(
        spec=best_model.spec,
        theta0=best_model.theta0,
        initial=best_model.initial,
        trainable=best_model.trainable,
        provenance=provenance,
    )


def replay_merge(provenance: dict, checkpoints: list[Checkpoint]) -> ParamTree:
    """Rebuild merged parameters from a provenance record, bit-for-bit.

    Uses the recorded hyperparameters directly; no sweep or search is
    re-run.
    """
    spec, init_seed, theta0, initial = _common_context(checkpoints)
    wanted = provenance["task_ids"]
    by_id = {c.task_id: c for c in checkpoints}
    missing = [t for t in wanted if t not in by_id]
    if missing:
        raise ContractError(f"provenance references unknown tasks {missing}")
    subset = [by_id[t] for t in wanted]
    vectors = [compute_task_vector(c) for c in subset]
    algorithm = provenance["algorithm"]
    hp = provenance.get("hyperparameters", {})
    context = (spec, init_seed, theta0)
    if algorithm == "simple_average":
        return simple_average(initial, subset).trainable
    if algorithm == "task_arithmetic":
        return task_arithmetic(initial, vectors, hp["lambda"], context).trainable
    if algorithm == "ties_merging":
        return ties_merge(initial, vectors, hp["k"], hp["lambda"], context).trainable
    if algorithm == "lorahub":
        ordered = sorted(vectors, key=lambda v: v.task_id)
        weights = [hp["weights"][v.task_id] for v in ordered]
        return combine(initial, [v.delta for v in ordered], weights)
    raise ContractError(f"unknown fusion algorithm {algorithm!r}")
