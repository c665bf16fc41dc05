"""Deterministic families of related synthetic classification tasks.

Each task labels shared-distribution Gaussian inputs by the argmax of its
own two-stage teacher (random projection, tanh, random readout). Teachers
mix a common component with a per-task private component: at overlap 1
every task has the same label function, at overlap 0 the teachers are
independent. Suites are reproducible from their seed alone.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .files import read_memoized, write_atomic
from .params import ParamTree

TEACHER_HIDDEN = 16
BALANCE_RETRIES = 10
SPLITS = ("train", "val", "test")


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus integer labels.

    Features must be numbers (not bools) and labels whole numbers, so that
    the float64 and int64 copies hold the given values; anything else
    raises ``ContractError``.
    """

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs, ys = np.asarray(self.xs), np.asarray(self.ys)
        if xs.dtype.kind not in "iuf":
            raise ContractError(f"features must be numbers, got dtype {xs.dtype}")
        with np.errstate(invalid="ignore"):  # a NaN or out-of-range label casts to garbage, refused below
            labels = ys.astype(np.int64) if ys.dtype.kind in "iuf" else None
        if labels is None or not np.array_equal(labels, ys):
            raise ContractError(f"labels must be whole numbers that fit int64, got dtype {ys.dtype}")
        xs = np.ascontiguousarray(xs, dtype=np.float64)
        ys = np.ascontiguousarray(labels)
        if xs.ndim != 2 or ys.ndim != 1 or xs.shape[0] != ys.shape[0]:
            raise ContractError(
                f"dataset needs matching sample counts, got {xs.shape} and {ys.shape}"
            )
        if ys.size and ys.min() < 0:
            raise ContractError("labels must be non-negative")
        xs.setflags(write=False)
        ys.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def __len__(self) -> int:
        return int(self.ys.shape[0])


@dataclass(frozen=True)
class Task:
    """One classification task with disjoint train/val/test splits."""

    id: str
    train: Dataset
    val: Dataset
    test: Dataset
    teacher: ParamTree | None = None


@dataclass(frozen=True)
class TaskSuite:
    tasks: tuple[Task, ...]
    seed: int
    input_dim: int
    num_classes: int
    task_overlap: float


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([int(seed) & 0xFFFFFFFFFFFFFFFF, *key])


def _teacher_labels(w: np.ndarray, v: np.ndarray, xs: np.ndarray) -> np.ndarray:
    scores = np.tanh(xs @ w.T) @ v.T
    return np.argmax(scores, axis=1).astype(np.int64)


def split_sizes(n_tasks: int, num_classes: int, samples_per_split: int,
                task_overlap: float) -> dict[str, int]:
    """Rows per split: ``samples_per_split`` to train, half that (at least
    ``num_classes``) to val and to test. Raises ``ContractError`` unless
    there are two or more tasks, a ``task_overlap`` in [0, 1] and at least
    ``num_classes`` samples per split.
    """
    if n_tasks < 2:
        raise ContractError(f"n_tasks = {n_tasks} must be at least 2")
    if not 0 <= task_overlap <= 1:
        raise ContractError(f"task_overlap = {task_overlap} must lie in [0, 1]")
    if samples_per_split < num_classes:
        raise ContractError(
            f"samples_per_split = {samples_per_split} must be at least num_classes = {num_classes}"
        )
    held_out = max(num_classes, samples_per_split // 2)
    return {"train": samples_per_split, "val": held_out, "test": held_out}


def make_task_suite(
    n_tasks: int = 4,
    input_dim: int = 16,
    num_classes: int = 3,
    samples_per_split: int = 512,
    task_overlap: float = 0.3,
    seed: int = 0,
) -> TaskSuite:
    """Generate a deterministic suite of related classification tasks.

    ``split_sizes`` checks the arguments and sizes the splits. Teachers
    are mixed so that ``task_overlap`` is the correlation between any two
    tasks' teacher weights. Every split must contain every class; a
    violating split's inputs are redrawn from a fresh sub-seed, at most ten
    times.
    """
    sizes = split_sizes(n_tasks, num_classes, samples_per_split, task_overlap)

    common = _rng(seed, 0)
    w_common = common.standard_normal((TEACHER_HIDDEN, input_dim))
    v_common = common.standard_normal((num_classes, TEACHER_HIDDEN))
    wc = np.sqrt(task_overlap)
    wp = np.sqrt(1.0 - task_overlap)

    tasks = []
    for i in range(n_tasks):
        trng = _rng(seed, 1, i)
        w = wc * w_common + wp * trng.standard_normal((TEACHER_HIDDEN, input_dim))
        v = wc * v_common + wp * trng.standard_normal((num_classes, TEACHER_HIDDEN))
        splits = {}
        for s, name in enumerate(SPLITS):
            for attempt in range(BALANCE_RETRIES + 1):
                xs = _rng(seed, 2, i, s, attempt).standard_normal((sizes[name], input_dim))
                ys = _teacher_labels(w, v, xs)
                if np.bincount(ys, minlength=num_classes).all():  # np.unique would import numpy.ma
                    break
            else:
                raise ContractError(
                    f"task {i} split {name!r} missing a class after {BALANCE_RETRIES} retries"
                )
            splits[name] = Dataset(xs, ys)
        teacher = ParamTree({"teacher.w": w, "teacher.v": v})
        tasks.append(Task(id=f"task{i}", teacher=teacher, **splits))
    return TaskSuite(
        tasks=tuple(tasks),
        seed=int(seed),
        input_dim=input_dim,
        num_classes=num_classes,
        task_overlap=float(task_overlap),
    )


def teacher_agreement(suite: TaskSuite, n_points: int = 10000, probe_seed: int = 0) -> float:
    """Mean pairwise label agreement of the suite's teachers on shared probes."""
    xs = _rng(probe_seed, 99).standard_normal((n_points, suite.input_dim))
    labels = []
    for t in suite.tasks:
        if t.teacher is None:
            raise ContractError("suite tasks carry no teachers")
        labels.append(_teacher_labels(t.teacher["teacher.w"], t.teacher["teacher.v"], xs))
    pairs = list(itertools.combinations(range(len(labels)), 2))
    return float(np.mean([np.mean(labels[a] == labels[b]) for a, b in pairs]))


# --- columnar text export / import -------------------------------------------

FORMAT_LINE = "# fuselab-task v1"


def _rows_digest(rows: list[str]) -> str:
    """sha256 over the data rows, each terminated by a newline."""
    return "sha256:" + hashlib.sha256("".join(r + "\n" for r in rows).encode()).hexdigest()


def export_task(task: Task, path, suite: TaskSuite, config_digest: str = "") -> None:
    """Write one task as columnar text: header lines, then one sample per row.

    The header carries the per-split row counts and ``content_digest``,
    the sha256 of the data rows, which ``import_task`` verifies.
    """
    rows = []
    for split_name in SPLITS:
        ds: Dataset = getattr(task, split_name)
        row_format = f"{split_name},%d," + ",".join(["%.17g"] * ds.xs.shape[1])
        rows += [row_format % (label, *row) for label, row in zip(ds.ys.tolist(), ds.xs.tolist())]
    lines = [FORMAT_LINE]
    lines.append(
        "# "
        + " ".join(
            f"{k}={v}"
            for k, v in [
                ("task_id", task.id),
                ("seed", suite.seed),
                ("input_dim", suite.input_dim),
                ("num_classes", suite.num_classes),
                ("task_overlap", repr(suite.task_overlap)),
                ("train", len(task.train)),
                ("val", len(task.val)),
                ("test", len(task.test)),
                ("content_digest", _rows_digest(rows)),
                ("config_digest", config_digest or "none"),
            ]
        )
    )
    cols = ["split", "label"] + [f"x{j}" for j in range(suite.input_dim)]
    lines.append(",".join(cols))
    write_atomic(path, "\n".join(lines + rows) + "\n")


def import_task(path) -> tuple[Task, dict]:
    """Read a task file back; the teacher is not part of the text format.

    The data rows must match the header's ``content_digest`` and per-split
    counts, and the header's ``input_dim`` must count the feature columns,
    so an edited or truncated file is a ``ContractError``. Parses
    are memoised per process on the file's bytes (``files.read_memoized``);
    each call gets its own copy of the header dict.
    """
    task, meta = read_memoized(path, _parse_task)
    return task, dict(meta)


def _parse_task(path, data: bytes) -> tuple[Task, dict]:
    try:
        text = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as e:
        raise ContractError(f"{path} is not a task file: {e}") from e
    if len(text) < 3 or text[0] != FORMAT_LINE:
        raise ContractError(f"{path} is not a task file")
    meta = {}
    for part in text[1].lstrip("# ").split():
        k, _, v = part.partition("=")
        meta[k] = v
    if "task_id" not in meta or not meta.get("num_classes", "").isdecimal():
        raise ContractError(f"{path}: the header names no task_id or num_classes")
    num_classes = int(meta["num_classes"])
    rows = text[3:]
    if meta.get("content_digest") != _rows_digest(rows):
        raise ContractError(f"{path}: data rows do not match the header's content_digest")
    columns = len(text[2].split(","))
    if columns < 3:
        raise ContractError(f"{path}: the header names no feature columns")
    if meta.get("input_dim") != str(columns - 2):
        raise ContractError(f"{path}: the header says input_dim {meta.get('input_dim')}, "
                            f"the column line names {columns - 2} features")
    split_of = {name: i for i, name in enumerate(SPLITS)}
    which, labels, values = [], [], []
    for n, line in enumerate(rows, start=4):
        parts = line.split(",")
        if len(parts) != columns:
            raise ContractError(f"{path}: line {n} is not a data row: "
                                f"{len(parts)} columns, the header names {columns}")
        split = split_of.get(parts[0])
        if split is None:
            raise ContractError(f"{path}: line {n} has unknown split {parts[0]!r}")
        try:
            label = int(parts[1])
            values += map(float, parts[2:])
        except ValueError as e:
            raise ContractError(f"{path}: line {n} is not a data row: {e}") from e
        if not 0 <= label < num_classes:
            raise ContractError(f"{path}: line {n} has label {label}, outside the {num_classes} classes")
        which.append(split)
        labels.append(label)
    xs = np.array(values).reshape(len(labels), columns - 2)
    finite = np.isfinite(xs).all(axis=1)
    if not finite.all():  # float() reads nan and inf, which export_task never writes
        raise ContractError(f"{path}: line {4 + int(np.argmin(finite))} is not a data row: "
                            "a feature is not finite")
    ys = np.array(labels, dtype=np.int64)
    which = np.array(which)
    splits = {}
    for i, name in enumerate(SPLITS):
        in_split = which == i
        count = int(in_split.sum())
        if meta.get(name) != str(count):
            raise ContractError(f"{path}: {count} {name} rows, header says {meta.get(name)}")
        if count == 0:
            raise ContractError(f"{path}: no {name} rows")
        splits[name] = Dataset(xs[in_split], ys[in_split])
    return Task(id=meta["task_id"], teacher=None, **splits), meta
