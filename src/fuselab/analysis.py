"""Disentanglement grids, loss-landscape interpolation, NTK verification, reports.

The disentanglement error of two task vectors at scaling factors
(l1, l2) is the sum over both tasks of the empirical probability that
the combined model's prediction differs from the single-vector model's
prediction on that task's data. Raw values live in [0, 2]; grids store
the halved value so heatmaps share a [0, 1] scale. Every logit comes from
``models.Scorer``: cells and landscape points through its merge route, the
NTK check through its training route and its per-row Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ResourceLimitError
from .files import read_csv, write_csv
from .models import LinearizedState, ModelSpec, Scorer
from .params import ParamTree, combine
from .task_vectors import TaskVector
from .tasks import Dataset
from .training import batch_loss_and_grad, ce_logit_gradient, check_labels, cross_entropy_loss


# Grid cells scored per ``Scorer.candidates`` call. A block's parameter and
# logit stacks stay under a megabyte on 256-row sets (P = 1699), so a grid
# adds little to a run's peak memory.
GRID_BLOCK = 32


@dataclass(frozen=True)
class DisentanglementGrid:
    lambda1_axis: np.ndarray
    lambda2_axis: np.ndarray
    xi: np.ndarray       # halved values in [0, 1]
    xi_raw: np.ndarray   # summed per-task disagreement in [0, 2]

    def __post_init__(self):
        if self.xi.shape != (len(self.lambda1_axis), len(self.lambda2_axis)):
            raise ContractError("grid shape does not match its axes")
        if np.any(self.xi < 0.0) or np.any(self.xi > 1.0):
            raise ContractError("stored disentanglement values must lie in [0, 1]")


@dataclass(frozen=True)
class LandscapeGrid:
    lambda1_axis: np.ndarray
    lambda2_axis: np.ndarray
    loss: np.ndarray

    def __post_init__(self):
        if self.loss.shape != (len(self.lambda1_axis), len(self.lambda2_axis)):
            raise ContractError("grid shape does not match its axes")
        if not np.all(np.isfinite(self.loss)):
            raise ContractError("landscape losses must be finite")


def _errors(
    spec: ModelSpec,
    theta0: ParamTree,
    phi0: ParamTree,
    nu1: TaskVector,
    nu2: TaskVector,
    eval_sets: tuple[Dataset, Dataset],
    cells,
) -> list[float]:
    """Raw disentanglement error, in [0, 2], at each (lambda1, lambda2) of ``cells``.

    The one route for every cell, and the one place its inputs are checked:
    both eval sets non-empty, both task vectors congruent with ``phi0``.
    The pair is put in canonical (task id, digest) order once; that order
    fixes the float summation order of the combined parameters, and for
    linearized modes of the combined logits, so the error is exactly
    symmetric under swapping the task pair. One ``Scorer`` per eval set
    scores its slot's distinct single-vector models in one
    ``Scorer.candidates`` call and the cells' combined models in blocks of
    ``GRID_BLOCK``, so linearized modes take two JVPs per eval set. A
    block's combined vectors are built once and scored on both eval sets.
    """
    d1, d2 = eval_sets
    if len(d1) == 0 or len(d2) == 0:
        raise ContractError("disentanglement eval sets must be non-empty")
    phi0.require_congruent(nu1.delta, "anchor tree and first task vector")
    phi0.require_congruent(nu2.delta, "anchor tree and second task vector")
    base = phi0.flatten()
    deltas = (nu1.delta.flatten(), nu2.delta.flatten())
    swapped = (nu2.task_id, nu2.delta.digest()) < (nu1.task_id, nu1.delta.digest())
    order = (1, 0) if swapped else (0, 1)
    lams = [(float(cell[0]), float(cell[1])) for cell in cells]

    def stack(terms: tuple[int, ...], weights: list[list[float]]):
        """(flats, directions, weights) of phi0 + Σ wₛ * deltas[s] over s in ``terms``, per weighting."""
        directions = [deltas[s] for s in terms]
        flats = np.stack([combine(base, directions, w) for w in weights])
        return flats, [directions] * len(weights), weights

    scorers, singles, which = {}, {}, {}
    for s in order:
        scorers[s] = Scorer(spec, theta0, phi0, eval_sets[s].xs)
        factors: dict[float, int] = {}  # each distinct factor of slot s, in first-seen order
        which[s] = np.array([factors.setdefault(lam[s], len(factors)) for lam in lams])
        singles[s] = np.argmax(scorers[s].candidates(*stack((s,), [[f] for f in factors])), axis=2)
    total = np.zeros(len(lams))
    for block in _blocks(len(lams)):
        combined = stack(order, [[lam[s] for s in order] for lam in lams[block]])
        for s in order:
            together = np.argmax(scorers[s].candidates(*combined), axis=2)
            total[block] = total[block] + np.mean(singles[s][which[s][block]] != together, axis=1)
    return total.tolist()


def _blocks(n: int):
    """Slices of ``range(n)`` of at most ``GRID_BLOCK`` cells."""
    return [slice(start, start + GRID_BLOCK) for start in range(0, n, GRID_BLOCK)]


def disentanglement_error(
    spec: ModelSpec,
    theta0: ParamTree,
    phi0: ParamTree,
    nu1: TaskVector,
    nu2: TaskVector,
    lambda1: float,
    lambda2: float,
    eval_sets: tuple[Dataset, Dataset],
) -> float:
    """Summed per-task prediction disagreement, in [0, 2].

    Each term compares the single-vector model phi0 + l_i * nu_i against
    the combined model phi0 + l1*nu1 + l2*nu2 on task i's data; the
    expectation is the full empirical mean over the provided split.
    """
    return _errors(spec, theta0, phi0, nu1, nu2, eval_sets, [(lambda1, lambda2)])[0]


def grid_axis(lambda_range: tuple[float, float], resolution: int) -> np.ndarray:
    """``resolution`` evenly spaced scaling factors from ``lambda_range``'s lo to hi.

    Raises ``ContractError`` unless ``resolution`` is at least 2 and lo < hi.
    """
    if resolution < 2:
        raise ContractError(f"resolution = {resolution} must be at least 2")
    lo, hi = float(lambda_range[0]), float(lambda_range[1])
    if not lo < hi:
        raise ContractError(f"empty lambda range [{lo}, {hi}]: lambda_min must be below lambda_max")
    return np.linspace(lo, hi, resolution)


def disentanglement_grid(
    spec: ModelSpec,
    theta0: ParamTree,
    phi0: ParamTree,
    nu1: TaskVector,
    nu2: TaskVector,
    eval_sets: tuple[Dataset, Dataset],
    lambda_range: tuple[float, float] = (-1.0, 2.0),
    resolution: int = 21,
) -> DisentanglementGrid:
    """Disentanglement error over the Cartesian grid of scaling factors.

    Both axes are ``grid_axis(lambda_range, resolution)``; the default box [-1, 2]^2
    covers and exceeds the [0, 1]^2 region fusion sweeps search. Every
    cell goes through the same route as disentanglement_error, so each
    equals the direct call bit for bit; the pair is ordered once and each
    single-vector prediction is made once per axis value.
    """
    axis = grid_axis(lambda_range, resolution)
    cells = [(l1, l2) for l1 in axis for l2 in axis]
    raw = np.array(_errors(spec, theta0, phi0, nu1, nu2, eval_sets, cells)).reshape(
        resolution, resolution
    )
    return DisentanglementGrid(lambda1_axis=axis, lambda2_axis=axis, xi=raw / 2.0, xi_raw=raw)


def loss_landscape_grid(
    spec: ModelSpec,
    theta0: ParamTree,
    theta1: ParamTree,
    theta2: ParamTree,
    lambda1_axis,
    lambda2_axis,
    eval_sets: tuple[Dataset, Dataset],
) -> LandscapeGrid:
    """Joint cross-entropy over the plane theta0 + l1*(theta1-theta0) + l2*(theta2-theta0).

    Each eval set scores the grid's points in blocks of ``GRID_BLOCK``
    through ``Scorer.candidates``, with one cross-entropy per point.
    """
    if spec.mode.is_peft:
        raise ContractError("loss landscape interpolation needs full-paradigm trees")
    theta0.require_congruent(theta1, "backbone trees")
    theta0.require_congruent(theta2, "backbone trees")
    d1, d2 = eval_sets
    if len(d1) == 0 or len(d2) == 0:
        raise ContractError("landscape eval sets must be non-empty")
    axis1 = np.asarray(lambda1_axis, dtype=np.float64)
    axis2 = np.asarray(lambda2_axis, dtype=np.float64)
    base = theta0.flatten()
    v1 = theta1.flatten() - base
    v2 = theta2.flatten() - base
    weights = [[l1, l2] for l1 in axis1 for l2 in axis2]
    directions = [[v1, v2]] * len(weights)
    scorers = [Scorer(spec.with_mode("full_ft"), theta0, theta0, data.xs) for data in eval_sets]
    for data in eval_sets:
        check_labels(data.ys, spec.num_classes)
    loss = np.zeros(len(weights))
    for block in _blocks(len(weights)):
        flats = np.stack([combine(base, [v1, v2], w) for w in weights[block]])
        for data, scorer in zip(eval_sets, scorers):
            logits = scorer.candidates(flats, directions[block], weights[block])
            loss[block] = loss[block] + [cross_entropy_loss(cell, data.ys, check=False) for cell in logits]
    return LandscapeGrid(lambda1_axis=axis1, lambda2_axis=axis2, loss=loss.reshape(axis1.size, axis2.size))


def normalized_score(absolute: float, single_task: float) -> float:
    """Merged-model score divided by the matching single-task model's score."""
    if single_task <= 0:
        raise ContractError(
            f"single-task reference score must be positive, got {single_task}"
        )
    return float(absolute) / float(single_task)


def ntk_one_step_check(
    spec: ModelSpec,
    theta0: ParamTree,
    lin: LinearizedState,
    xs,
    ys,
    eta: float,
    max_jacobian_samples: int = 64,
    optimizer: str = "sgd",
) -> tuple[np.ndarray, np.ndarray, float]:
    """Verify one-step tangent-model output dynamics against the kernel form.

    The observed delta comes from an actual full-batch SGD step on the
    tangent model; the predicted delta assembles explicit per-sample
    output Jacobians at the anchor into the kernel K(x, x') and applies
    -eta * mean over the batch of K @ (loss gradient). Exact for tangent
    models up to float arithmetic; only plain SGD satisfies the identity.
    """
    if optimizer != "sgd":
        raise ContractError("the one-step output-dynamics identity holds for sgd only")
    if not spec.mode.is_linearized:
        raise ContractError("ntk check applies to linearized paradigms only")
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.int64)
    batch = xs.shape[0]
    if batch > max_jacobian_samples:
        raise ResourceLimitError(
            f"batch of {batch} exceeds the explicit-Jacobian cap {max_jacobian_samples}"
        )
    scorer = Scorer(spec, theta0, lin.phi0, xs)
    jac = scorer.jacobian()

    flat = lin.phi.flatten()
    outputs_before, _ = scorer.at(flat)
    g = ce_logit_gradient(outputs_before, ys)

    kernel = np.einsum("icp,jdp->ijcd", jac, jac)
    predicted = -eta * np.einsum("ijcd,jd->ic", kernel, g)

    _, grad_flat = batch_loss_and_grad(scorer, flat, ys)
    stepped = flat - eta * grad_flat
    outputs_after, _ = scorer.at(stepped)
    observed = outputs_after - outputs_before

    obs_norm = float(np.linalg.norm(observed))
    if obs_norm == 0.0:
        rel = 0.0 if float(np.linalg.norm(predicted)) == 0.0 else np.inf
    else:
        rel = float(np.linalg.norm(predicted - observed)) / obs_norm
    return predicted, observed, rel


@dataclass(frozen=True)
class ReportRow:
    algorithm: str
    mode: str
    subset_size: int | None  # None pools every subset size
    n_subsets: int
    mean_normalized: float
    std_normalized: float


@dataclass(frozen=True)
class FusionReport:
    rows: tuple[ReportRow, ...]

    def lookup(self, algorithm: str, mode: str, subset_size=None) -> ReportRow:
        for r in self.rows:
            if (r.algorithm, r.mode, r.subset_size) == (algorithm, mode, subset_size):
                return r
        raise KeyError((algorithm, mode, subset_size))


def aggregate_report(results: list[dict]) -> FusionReport:
    """Mean and population std of per-subset normalized scores.

    Each result row needs: algorithm, mode, subset (sequence of ids), and
    mean_normalized_score. Rows group per (algorithm, mode) overall and
    per subset size.
    """
    if not results:
        raise ContractError("report needs at least one subset result")
    groups: dict[tuple, list[float]] = {}
    for r in results:
        size = len(r["subset"])
        score = float(r["mean_normalized_score"])
        groups.setdefault((r["algorithm"], r["mode"], None), []).append(score)
        groups.setdefault((r["algorithm"], r["mode"], size), []).append(score)
    rows = []
    for (algorithm, mode, size) in sorted(
        groups, key=lambda k: (k[0], k[1], -1 if k[2] is None else k[2])
    ):
        scores = np.asarray(groups[(algorithm, mode, size)])
        rows.append(
            ReportRow(
                algorithm=algorithm,
                mode=mode,
                subset_size=size,
                n_subsets=scores.size,
                mean_normalized=float(scores.mean()),
                std_normalized=float(scores.std()),
            )
        )
    return FusionReport(rows=tuple(rows))


# --- CSV / text emission ------------------------------------------------------


def write_grid_csv(axis1, axis2, values, path, meta: str = "") -> None:
    """Matrix CSV whose first row and column carry the axes."""
    write_csv(path, meta, ["lambda1\\lambda2", *axis2], ([l1, *row] for l1, row in zip(axis1, values)))


def read_grid_csv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The axes and values ``write_grid_csv`` wrote to ``path``."""
    header, *body = read_csv(path)
    rows = [[float(v) for v in row] for row in body]
    return (np.array([r[0] for r in rows]), np.array([float(v) for v in header[1:]]),
            np.array([r[1:] for r in rows]))


def write_report_csv(report: FusionReport, path, meta: str = "") -> None:
    write_csv(path, meta, ["algorithm", "mode", "subset_size", "n_subsets", "mean_normalized", "std_normalized"],
              ([r.algorithm, r.mode, "all" if r.subset_size is None else r.subset_size, r.n_subsets,
                r.mean_normalized, r.std_normalized] for r in report.rows))


def format_report_table(report: FusionReport) -> str:
    """Human-readable fixed-width table of the aggregated scores."""
    header = f"{'algorithm':<16} {'mode':<12} {'size':>5} {'n':>4} {'normalized score':>22}"
    lines = [header, "-" * len(header)]
    for r in report.rows:
        size = "all" if r.subset_size is None else str(r.subset_size)
        lines.append(
            f"{r.algorithm:<16} {r.mode:<12} {size:>5} {r.n_subsets:>4} "
            f"{r.mean_normalized:>12.4f} ± {r.std_normalized:.4f}"
        )
    return "\n".join(lines)
