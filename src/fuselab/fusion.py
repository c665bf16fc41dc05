"""Multi-task fusion algorithms, their hyperparameter sweeps, and the subset harness.

Every algorithm builds ``initial + Σ wᵢ·dᵢ`` on the flat trainable vector,
and ``_candidates`` is the one place that spells out each algorithm's
directions and weights: the public merges, the sweep and the replay all
take their parameters from it. ``models.Scorer`` scores them in every
paradigm: a sweep scores its whole grid on each validation set in one
``Scorer.candidates`` call, and lorahub's search scores each weighting
``_candidates`` builds as a one-row batch. A scorer caches each direction's
JVP by the vector's content, so the scorers of ``scorers_for`` can serve
every subset of a fuse stage: the task vectors' JVPs stay for every sweep,
and a sweep releases those of the directions it built once it has scored
them. All order-sensitive reductions canonicalize their inputs by task id
before summing, so permuting the caller's checkpoint or vector order can
never change a merged result. That holds for lorahub too: its search is
``_nelder_mead``, an in-package copy of scipy's fixed-coefficient
Nelder-Mead that draws no random numbers, and its ``seed`` is only
recorded in provenance. Nothing here imports scipy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .checkpoints import Checkpoint
from .errors import ContractError
from .files import leaf_problem, require_kinds
from .models import ModelSpec, Scorer, predict_logits
from .params import ParamTree, combine
from .task_vectors import TaskVector, compute_task_vector
from .tasks import Dataset
from .training import check_labels, cross_entropy_loss

ALGORITHMS = ("simple_average", "task_arithmetic", "ties_merging", "lorahub")
DEFAULT_LAMBDA_GRID = tuple(round(0.05 * i, 2) for i in range(21))
DEFAULT_TIES_GRID = (0.25, 0.5, 0.75, 1.0)
# The hyperparameters ``replay_merge`` reads from a record beside lorahub's weights.
_REPLAYED = {"task_arithmetic": ("lambda",), "ties_merging": ("k", "lambda")}


@dataclass(frozen=True)
class FusionConfig:
    algorithm: str = "task_arithmetic"
    lambda_grid: tuple[float, ...] = DEFAULT_LAMBDA_GRID
    ties_k_grid: tuple[float, ...] = DEFAULT_TIES_GRID
    ties_lambda_grid: tuple[float, ...] = DEFAULT_TIES_GRID
    lorahub_alpha: float = 0.05
    lorahub_max_steps: int = 40
    fewshot_per_task: int = 32  # validation rows per task in the pipeline's lorahub sample

    def __post_init__(self):
        require_kinds(self)
        if self.algorithm not in ALGORITHMS:
            raise ContractError(f"unknown fusion algorithm {self.algorithm!r}")
        if not self.lambda_grid or not self.ties_k_grid or not self.ties_lambda_grid:
            raise ContractError("hyperparameter grids must be non-empty")
        outside = [k for k in self.ties_k_grid if not 0 < k <= 1]
        if outside:
            raise ContractError(f"ties_k_grid items must lie in (0, 1], got {outside}")
        if not 0 <= self.lorahub_alpha < math.inf:
            raise ContractError(f"lorahub_alpha = {self.lorahub_alpha} must be finite and non-negative")
        if self.lorahub_max_steps < 0:
            raise ContractError(f"lorahub_max_steps = {self.lorahub_max_steps} is negative")
        if self.fewshot_per_task < 1:
            raise ContractError(f"fewshot_per_task = {self.fewshot_per_task} must be at least 1")


@dataclass(frozen=True)
class MergedModel:
    """A fused multi-task model plus the record of how it was built."""

    spec: ModelSpec
    trainable: ParamTree
    provenance: dict = field(default_factory=dict)


def _common_context(checkpoints: list[Checkpoint]) -> tuple[ModelSpec, int, ParamTree, ParamTree]:
    if not checkpoints:
        raise ContractError("need at least one checkpoint")
    head = checkpoints[0]
    for c in checkpoints[1:]:
        if c.spec != head.spec:
            raise ContractError("checkpoints disagree on architecture or paradigm")
        if c.init_seed != head.init_seed:
            raise ContractError("checkpoints were built from different init seeds")
    return head.spec, head.init_seed, head.theta0(), head.initial


def _ordered_flats(initial: ParamTree, vectors: list[TaskVector]) -> tuple[list[TaskVector], list[np.ndarray]]:
    """Vectors sorted by task id and their flat deltas, each congruent with ``initial``."""
    if not vectors:
        raise ContractError("need at least one task vector")
    ordered = sorted(vectors, key=lambda v: v.task_id)
    for v in ordered:
        initial.require_congruent(v.delta, "initial tree and task vectors")
    return ordered, [v.delta.flatten() for v in ordered]


def _provenance(algorithm: str, ordered: list, hyperparameters: dict, **extra) -> dict:
    """The record of how a merge was built; ``ordered`` holds vectors or checkpoints."""
    return {"algorithm": algorithm, "mode": ordered[0].mode.value,
            "task_ids": [x.task_id for x in ordered], "hyperparameters": hyperparameters, **extra}


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


def _task_sum(deltas: list[np.ndarray]) -> np.ndarray:
    # Starting from the first delta rather than zeros keeps its -0.0 entries.
    return combine(deltas[0], deltas[1:], [1.0] * (len(deltas) - 1))


def _candidates(algorithm: str, initial_flat: np.ndarray, deltas: list[np.ndarray],
                trained: list[np.ndarray] | None, grid: list[dict]):
    """Yield ``(tie-break key, hyperparameters, merged flat, directions, weights)`` per point of ``grid``.

    The one place each algorithm's formula is spelled out. ``deltas`` and
    ``trained`` are flat vectors in task-id order; ``grid`` holds the
    hyperparameter dicts to build, in order (lorahub's ``weights`` listed
    in task-id order). ``directions`` lists fixed vectors and ``weights``
    their coefficients, so the merged flat is ``initial + Σ wᵢ·dᵢ`` over
    them. Fixed directions are built once: the task-vector sum once, the
    TIES merge vector once per k. simple_average's merged flat is the mean
    of the trained vectors and its one direction that mean minus the
    initial vector. Ties in score go to the smaller key: scaling factor,
    then trim fraction.
    """
    if algorithm not in ALGORITHMS:
        raise ContractError(f"unknown fusion algorithm {algorithm!r}")
    fixed: dict = {}
    for hp in grid:
        if algorithm == "simple_average":
            if len(trained) < 2:
                raise ContractError("simple average needs at least two checkpoints")
            merged = np.mean(trained, axis=0)
            yield (0.0, 0.0), hp, merged, [merged - initial_flat], [1.0]
            continue
        if algorithm == "task_arithmetic":
            key, which, weights = (hp["lambda"], 0.0), "sum", [hp["lambda"]]
            if which not in fixed:
                fixed[which] = _task_sum(deltas)
            directions = [fixed[which]]
        elif algorithm == "ties_merging":
            key, which, weights = (hp["lambda"], hp["k"]), hp["k"], [hp["lambda"]]
            if which not in fixed:
                trimmed = np.stack([ties_trim(d, hp["k"]) for d in deltas])
                elected = np.sign(trimmed.sum(axis=0))
                match = (np.sign(trimmed) == elected) & (elected != 0)
                counts = match.sum(axis=0)
                sums = (trimmed * match).sum(axis=0)
                fixed[which] = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
            directions = [fixed[which]]
        else:
            key, directions, weights = (0.0, 0.0), deltas, hp["weights"]
        yield key, hp, combine(initial_flat, directions, weights), directions, weights


def _merge(algorithm: str, initial: ParamTree, ordered: list, deltas, trained, hp: dict,
           spec: ModelSpec | None = None, seed: int | None = None) -> MergedModel:
    """The model ``algorithm`` builds at ``hp``: a one-point grid."""
    flat = next(_candidates(algorithm, initial.flatten(), deltas, trained, [hp]))[2]
    return MergedModel(spec, initial.with_flat(flat), _provenance(algorithm, ordered, hp, init_seed=seed))


def simple_average(initial: ParamTree, checkpoints: list[Checkpoint]) -> MergedModel:
    """Elementwise mean of the trained trainable trees."""
    spec, seed, _, shared_initial = _common_context(checkpoints)
    initial.require_congruent(shared_initial, "initial trees")
    ordered = sorted(checkpoints, key=lambda c: c.task_id)
    trained = [c.trained.flatten() for c in ordered]
    return _merge("simple_average", initial, ordered, [], trained, {}, spec, seed)


def task_arithmetic(initial: ParamTree, vectors: list[TaskVector], lam: float) -> MergedModel:
    """initial + lam * (sum of task vectors), one coefficient for the sum."""
    ordered, deltas = _ordered_flats(initial, vectors)
    return _merge("task_arithmetic", initial, ordered, deltas, None, {"lambda": float(lam)})


def ties_merge(initial: ParamTree, vectors: list[TaskVector], k: float, lam: float) -> MergedModel:
    """Trim by magnitude, elect per-coordinate signs, then disjoint-merge.

    Per coordinate the elected sign is the sign of the summed trimmed
    values; the merged value is the mean of the trimmed values whose sign
    matches it (zero when the election ties at zero). The result is
    initial + lam * merged.
    """
    ordered, deltas = _ordered_flats(initial, vectors)
    hp = {"k": float(k), "lambda": float(lam)}
    return _merge("ties_merging", initial, ordered, deltas, None, hp)


def lorahub_optimize(
    spec: ModelSpec,
    theta0: ParamTree,
    initial: ParamTree,
    vectors: list[TaskVector],
    fewshot: Dataset,
    alpha: float = FusionConfig.lorahub_alpha,
    max_steps: int = FusionConfig.lorahub_max_steps,
    seed: int = 0,
) -> tuple[list[float], MergedModel]:
    """Derivative-free search for per-task combination weights.

    Minimizes few-shot cross-entropy of initial + sum(w_i * v_i) plus an
    L1 penalty alpha * sum|w_i| with ``_nelder_mead`` (coefficients 1, 2,
    ½, ½; stop tests ``xatol`` 1e-10 and ``fatol`` 1e-12) started at
    uniform weights; see ``_lorahub_objective`` for how a linearized mode
    scores a weighting. The search draws no random numbers: ``seed`` is only
    recorded in provenance, and because the vectors are sorted by task id
    the result is bit-identical under any permutation of them. The
    pretrained point w=0 is scored first, outside the search's count, so
    the returned best never loses to it. Budget: ``max_steps + n + 1``
    search evaluations for n vectors, that is at most ``max_steps`` beyond
    the initial simplex; running out is not an error, the best-so-far wins.
    Non-finite candidates and NaN objectives score ``inf`` and are never
    chosen; their floating-point warnings are silenced for the whole search.
    """
    if len(fewshot) == 0:
        raise ContractError("lorahub needs a non-empty few-shot dataset")
    ordered, deltas = _ordered_flats(initial, vectors)
    n = len(ordered)
    best = {"obj": np.inf, "w": np.zeros(n)}
    penalized_loss = _lorahub_objective(spec, theta0, initial, deltas, fewshot, alpha)

    def objective(w: np.ndarray) -> float:
        obj = penalized_loss(w)
        if obj < best["obj"]:
            best["obj"] = obj
            best["w"] = np.array(w, dtype=np.float64)
        return obj

    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        objective(np.zeros(n))  # pretrained baseline, outside the search's budget
        _nelder_mead(objective, np.full(n, 1.0 / n), maxfev=max_steps + n + 1, xatol=1e-10, fatol=1e-12)
    weights = [float(v) for v in best["w"]]
    hyperparameters = {
        "alpha": float(alpha),
        "max_steps": int(max_steps),
        "seed": int(seed),
        "weights": {v.task_id: w for v, w in zip(ordered, weights)},
    }
    provenance = _provenance("lorahub", ordered, hyperparameters, objective=float(best["obj"]))
    flat = next(_candidates("lorahub", initial.flatten(), deltas, None, [{"weights": weights}]))[2]
    return weights, MergedModel(spec, initial.with_flat(flat), provenance)


def _lorahub_objective(spec, theta0, initial: ParamTree, deltas: list[np.ndarray],
                       fewshot: Dataset, alpha: float):
    """``w -> few-shot cross-entropy + alpha * sum|w_i|`` at ``initial + Σ wᵢ·dᵢ``.

    Each evaluation takes the merged flat and its directions from
    ``_candidates`` and scores them as a one-row ``Scorer.candidates`` batch
    on the few-shot inputs. The few-shot labels are checked once, here
    (``ContractError`` when one lies outside the spec's classes), so the
    loss is the unchecked cross-entropy; a weighting whose merged vector,
    logits or objective is not finite scores ``inf``. The caller silences
    the floating-point warnings of such a weighting.
    """
    check_labels(fewshot.ys, spec.num_classes)
    scorer = Scorer(spec, theta0, initial, fewshot.xs)
    ys, alpha = fewshot.ys, float(alpha)

    def objective(w) -> float:
        _, _, flat, directions, weights = next(
            _candidates("lorahub", scorer.anchor, deltas, None, [{"weights": w}]))
        try:
            logits = scorer.candidates(flat[None], [directions], [weights])[0]
        except ContractError:
            return np.inf
        obj = cross_entropy_loss(logits, ys, check=False) + alpha * float(np.sum(np.abs(w)))
        return obj if np.isfinite(obj) else np.inf

    return objective


class _BudgetSpent(Exception):
    """Raised inside ``_nelder_mead`` when ``f`` is asked for one evaluation too many."""


def _sorted_simplex(sim: np.ndarray, fsim: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ind = np.argsort(fsim)
    return np.take(sim, ind, 0), np.take(fsim, ind, 0)


def _nelder_mead(f, x0: np.ndarray, maxfev: int, xatol: float, fatol: float) -> tuple[np.ndarray, int]:
    """Minimize ``f`` from ``x0`` with the fixed-coefficient Nelder-Mead simplex.

    Repeats scipy 1.17.1's ``minimize(method="Nelder-Mead", adaptive=False)``
    operation for operation, so ``f`` sees the same points in the same
    order and the same vertex comes back (``tests/test_nelder_mead.py``
    holds scipy as the oracle). The initial simplex steps each coordinate
    by +5%, or to 0.00025 where it is zero; reflection, expansion,
    contraction and shrink use ρ, χ, ψ, σ = 1, 2, ½, ½; the simplex is
    re-sorted by value (``argsort``/``take``, twice after the initial
    simplex) after every iteration. The search stops when every vertex
    lies within ``xatol`` of the best in every coordinate and every value
    within ``fatol`` of the best, or after ``maxfev`` evaluations, which
    may end it partway through the initial simplex or a shrink. ``f`` must
    neither keep nor modify the array it is given. Returns the best vertex
    and the number of evaluations.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    n = len(x0)
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = np.array(x0, dtype=np.float64)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.full(n + 1, np.inf)
    calls = 0

    def call(x: np.ndarray) -> float:
        nonlocal calls
        if calls >= maxfev:
            raise _BudgetSpent
        calls += 1
        return f(x)

    try:
        for k in range(n + 1):
            fsim[k] = call(sim[k])
    except _BudgetSpent:
        pass
    # Sorted twice, as scipy does: argsort need not keep tied values in place.
    sim, fsim = _sorted_simplex(*_sorted_simplex(sim, fsim))
    while calls < maxfev:
        try:
            if np.max(np.abs(sim[1:] - sim[0])) <= xatol and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol:
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = (1 + rho) * xbar - rho * sim[-1]
            fxr = call(xr)
            if fxr < fsim[0]:
                xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
                fxe = call(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                    fxc = call(xc)
                    shrink = not fxc <= fxr
                else:  # inside contraction
                    xc = (1 - psi) * xbar + psi * sim[-1]
                    fxc = call(xc)
                    shrink = not fxc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                        fsim[j] = call(sim[j])
        except _BudgetSpent:
            pass
        sim, fsim = _sorted_simplex(sim, fsim)
    return sim[0], calls


def _fewshot_loss(spec, theta0, anchor, tree, fewshot: Dataset) -> float:
    return cross_entropy_loss(predict_logits(spec, theta0, anchor, tree, fewshot.xs), fewshot.ys)


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


def scorers_for(checkpoints: list[Checkpoint], datasets: dict[str, Dataset]) -> dict[str, Scorer]:
    """One ``Scorer`` per checkpoint's task id on that task's inputs in ``datasets``.

    Each is one checked scorer moved with ``on``, anchored at the shared
    initial tree, so one dict serves every subset in sweeps and test scoring.
    """
    spec, _, theta0, initial = _common_context(checkpoints)
    head = Scorer(spec, theta0, initial, datasets[checkpoints[0].task_id].xs)
    return {c.task_id: head.on(datasets[c.task_id].xs) for c in checkpoints}


def sweep_and_select(
    config: FusionConfig,
    checkpoints: list[Checkpoint],
    validation: dict[str, Dataset],
    fewshot: Dataset | None = None,
    seed: int = 0,
    scorers: dict[str, Scorer] | None = None,
) -> MergedModel:
    """Score every candidate on the config's grids and keep the validation argmax.

    Candidates come from ``_candidates`` in grid order: scaling factor
    ascending, then trim fraction; lorahub contributes the one candidate
    its search settles on, with that search's objective and
    hyperparameters. Mean validation accuracy over the subset's tasks
    decides; exact ties go to the smaller scaling factor, then the smaller
    trim fraction. The winner keeps the per-task scores of its scoring
    pass, and only the winner becomes a ``MergedModel``. Each validation
    set scores the whole grid in one ``Scorer.candidates`` call; non-finite
    parameters or logits raise ``ContractError``. ``scorers`` maps each task
    id to a scorer on its validation inputs (``scorers_for``); a caller that
    sweeps several subsets of one set of checkpoints passes the same dict
    to each, so a linearized mode takes each task vector's JVP once per
    validation set. The directions the sweep builds (the simple-average
    direction, the task-vector sum, the TIES merge vectors) serve no other
    sweep, so their JVPs are released from the scorers once the grid is
    scored; sweeping a subset again takes them again. A missing task, or a
    scorer built on another paradigm, initial tree or set of inputs, raises
    ``ContractError`` before anything is scored. By default the sweep builds
    its own.
    """
    spec, init_seed, theta0, initial = _common_context(checkpoints)
    ordered = sorted(checkpoints, key=lambda c: c.task_id)
    for c in ordered:
        ds = validation.get(c.task_id)
        if ds is None or len(ds) == 0:
            raise ContractError(f"validation set for {c.task_id!r} is empty or missing")
    ids = tuple(c.task_id for c in ordered)
    if scorers is None:
        scorers = scorers_for(ordered, validation)
    else:
        for t in ids:
            if t not in scorers:
                raise ContractError(f"no sweep scorer for task {t!r}")
            if scorers[t].spec != spec or not scorers[t].template.equal_bits(initial):
                raise ContractError("sweep scorers were not built on these checkpoints' paradigm and initial tree")
            if not np.array_equal(scorers[t].x, validation[t].xs):
                raise ContractError(f"sweep scorer for {t!r} was not built on its validation inputs")
    vectors, deltas = _ordered_flats(initial, [compute_task_vector(c) for c in ordered])
    trained = [c.trained.flatten() for c in ordered]

    recorded: dict = {}
    if config.algorithm == "simple_average":
        grid = [{}]
    elif config.algorithm == "task_arithmetic":
        grid = [{"lambda": float(lam)} for lam in sorted(config.lambda_grid)]
    elif config.algorithm == "ties_merging":
        grid = [{"k": float(k), "lambda": float(lam)}
                for lam in sorted(config.ties_lambda_grid) for k in sorted(config.ties_k_grid)]
    else:
        if fewshot is None or len(fewshot) == 0:
            raise ContractError("lorahub sweep needs a few-shot dataset")
        weights, model = lorahub_optimize(
            spec, theta0, initial, vectors, fewshot,
            alpha=config.lorahub_alpha, max_steps=config.lorahub_max_steps, seed=seed,
        )
        grid = [{"weights": weights}]
        recorded = {"hyperparameters": model.provenance["hyperparameters"],
                    "objective": model.provenance["objective"]}

    keys, hps, flats, directions, weights = zip(
        *_candidates(config.algorithm, initial.flatten(), deltas, trained, grid))
    flats = np.stack(flats)
    accuracies = np.empty((len(keys), len(ids)))  # candidate × task
    for j, t in enumerate(ids):
        predictions = np.argmax(scorers[t].candidates(flats, directions, weights), axis=2)
        accuracies[:, j] = np.mean(predictions == validation[t].ys, axis=1)
    if config.algorithm != "lorahub":  # lorahub's directions are the task vectors
        built = [d for ds in directions for d in ds]
        for t in ids:
            scorers[t].release(built)
    means = accuracies.mean(axis=1)
    best = 0
    for c in range(1, len(keys)):
        if means[c] > means[best] or (means[c] == means[best] and keys[c] < keys[best]):
            best = c
    scores = {t: float(a) for t, a in zip(ids, accuracies[best])}
    provenance = _provenance(config.algorithm, vectors, hps[best], init_seed=init_seed,
                             validation_scores=scores, mean_validation_score=float(means[best]),
                             candidates_evaluated=len(keys))
    provenance.update(recorded)
    return MergedModel(spec, initial.with_flat(flats[best]), provenance)


def _recorded(record, key: str, what: str):
    """``record[key]``, a finite number (``files.leaf_problem``), else ``ContractError`` naming the key."""
    if not isinstance(record, dict) or key not in record:
        raise ContractError(f"provenance {what} has no {key!r}")
    problem = leaf_problem(record[key], 0.0)
    if problem:
        raise ContractError(f"provenance {what} {key!r} = {record[key]!r} {problem}")
    return record[key]


def replay_merge(provenance: dict, checkpoints: list[Checkpoint]) -> ParamTree:
    """Rebuild merged parameters from a provenance record, bit-for-bit.

    Builds the one candidate at the recorded hyperparameters; no sweep or
    search is re-run. ``task_ids`` must be a non-empty list of distinct ids
    of given checkpoints, and each hyperparameter the algorithm reads
    (lorahub: a weight per task) a finite number, else ``ContractError``.
    """
    _, _, _, initial = _common_context(checkpoints)
    wanted = provenance.get("task_ids") if isinstance(provenance, dict) else None
    if not (isinstance(wanted, list) and wanted and all(isinstance(t, str) for t in wanted)
            and len(set(wanted)) == len(wanted)):
        raise ContractError(f"provenance 'task_ids' = {wanted!r} is not a non-empty list of distinct ids")
    by_id = {c.task_id: c for c in checkpoints}
    missing = [t for t in wanted if t not in by_id]
    if missing:
        raise ContractError(f"provenance 'task_ids' names unknown tasks {missing}")
    subset = sorted((by_id[t] for t in wanted), key=lambda c: c.task_id)
    ordered, deltas = _ordered_flats(initial, [compute_task_vector(c) for c in subset])
    trained = [c.trained.flatten() for c in subset]
    algorithm, recorded = provenance.get("algorithm"), provenance.get("hyperparameters")
    if algorithm == "lorahub":
        weights = recorded.get("weights") if isinstance(recorded, dict) else None
        hp = {"weights": [_recorded(weights, v.task_id, "lorahub weights") for v in ordered]}
    else:
        hp = {key: _recorded(recorded, key, "hyperparameters") for key in _REPLAYED.get(algorithm, ())}
    flat = next(_candidates(algorithm, initial.flatten(), deltas, trained, [hp]))[2]
    return initial.with_flat(flat)
