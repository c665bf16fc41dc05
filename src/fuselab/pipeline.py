"""File-based pipeline stages over one output directory, the run.

Stages communicate only through emitted artifacts. gen-tasks alone creates
a run and pins its resolved configuration in ``resolved_config.json``;
every other stage opens the run once (``open_run``) before it reads
anything, so a directory gen-tasks did not make is refused and left as it
was. The loaders only read. Every artifact carries the resolved-config
digest; a stage refuses inputs produced under a different configuration,
and makes its output directory only once its inputs are read and checked.
All writes are deterministic functions of the resolved configuration, so
two runs from the same master seed yield byte-identical output trees.

Each stage checks and canonicalizes the modes, task ids, subsets and pairs
it is given before it opens the run, so a direct call and the CLI, which
only splits strings, meet the same rules.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .analysis import (
    aggregate_report,
    disentanglement_grid,
    format_report_table,
    grid_axis,
    loss_landscape_grid,
    normalized_score,
    ntk_one_step_check,
    write_grid_csv,
    write_report_csv,
)
from .checkpoints import Checkpoint, load_checkpoint, save_checkpoint
from .config import (analysis_config, config_digest, derive_seed, fusion_config, model_spec, task_suite,
                     train_config)
from .errors import ConfigError, ContractError, NumericError
from .files import leaf_problem, read_json_object, write_atomic, write_csv, write_json
from .fusion import ALGORITHMS, enumerate_subsets, scorers_for, sweep_and_select
from .models import ModeTag
from .task_vectors import compute_task_vector, similarity_matrix, write_similarity_csv
from .tasks import Dataset, Task, export_task, import_task
from .training import finetune, scored_accuracy, write_metrics_csv

ALL_MODES = [m for m in ModeTag]
ANALYSES = ("similarity", "disentangle", "landscape", "ntk")  # each run by stage_analyze_<kind>


class RunPaths:
    """Canonical layout of a run's output directory."""

    def __init__(self, out: str | Path):
        self.root = Path(out)

    @property
    def resolved_config(self) -> Path:
        return self.root / "resolved_config.json"

    @property
    def tasks_dir(self) -> Path:
        return self.root / "tasks"

    def task_file(self, task_id: str) -> Path:
        return self.tasks_dir / f"{task_id}.csv"

    def checkpoint_dir(self, mode: ModeTag) -> Path:
        return self.root / "checkpoints" / mode.value

    def checkpoint_file(self, mode: ModeTag, task_id: str) -> Path:
        return self.checkpoint_dir(mode) / f"{task_id}.json"

    def metrics_file(self, mode: ModeTag, task_id: str) -> Path:
        return self.checkpoint_dir(mode) / f"{task_id}.metrics.csv"

    def fusion_dir(self, algorithm: str, mode: ModeTag) -> Path:
        return self.root / "fusion" / algorithm / mode.value

    def merged_file(self, algorithm: str, mode: ModeTag, subset) -> Path:
        return self.fusion_dir(algorithm, mode) / ("+".join(subset) + ".json")

    def provenance_file(self, algorithm: str, mode: ModeTag, subset) -> Path:
        return self.fusion_dir(algorithm, mode) / ("+".join(subset) + ".provenance.json")

    @property
    def analysis_dir(self) -> Path:
        return self.root / "analysis"

    @property
    def report_dir(self) -> Path:
        return self.root / "report"


def open_run(resolved: dict, out: str | Path) -> tuple[RunPaths, str]:
    """The run gen-tasks made in ``out``, checked against ``resolved``; creates nothing."""
    paths = RunPaths(out)
    digest = config_digest(resolved)
    if not paths.resolved_config.exists():
        raise ConfigError(f"{paths.root} holds no run; run gen-tasks first")
    existing = read_json_object(paths.resolved_config, "resolved configuration")
    if config_digest(existing) != digest:
        raise ConfigError(f"{paths.root} was produced under a different configuration")
    return paths, digest


def _require_task_ids(resolved: dict, ids, what: str, least: int = 1) -> None:
    """Raise ``ConfigError`` naming the id unless ``ids`` are at least
    ``least`` distinct task ids of this run (``what`` names the argument)."""
    known = [f"task{i}" for i in range(int(resolved["suite"]["n_tasks"]))]
    seen = set()
    for tid in ids:
        if tid not in known:
            raise ConfigError(f"unknown task id {tid!r} in {what}; this run has {', '.join(known)}")
        if tid in seen:
            raise ConfigError(f"task id {tid!r} appears twice in {what}")
        seen.add(tid)
    if len(seen) < least:
        raise ConfigError(f"{what} {','.join(ids)!r} needs at least {least} distinct task ids")


def _require_modes(modes, default: list[ModeTag]) -> list[ModeTag]:
    """``modes`` as ``ModeTag``s (``default`` when none are given); each may be a
    ``ModeTag`` or its value, and an unknown or repeated mode is a ``ConfigError``."""
    tags = []
    for m in modes or default:
        if m not in ALL_MODES:  # ModeTag is a str enum: its values compare equal to its members
            raise ConfigError(f"unknown mode {m!r} in --mode; choose from {', '.join(ALL_MODES)}")
        if m in tags:
            raise ConfigError(f"mode {ModeTag(m).value!r} appears twice in --mode")
        tags.append(ModeTag(m))
    return tags


def _require_groups(resolved: dict, groups, what: str, pair: bool):
    """``groups`` of task ids, each at least two distinct ids of this run and none given
    twice, else ``ConfigError``; None stays None. A pair holds exactly two ids and keeps
    their order (λ₁ belongs to the first); any other group is sorted, since it names
    files and seeds samples."""
    if groups is None:
        return None
    checked = []
    for group in groups:
        group = tuple(group) if pair else tuple(sorted(group, key=str))
        if pair and len(group) != 2:
            raise ConfigError(f"{what} {','.join(map(str, group))!r} needs exactly two task ids")
        _require_task_ids(resolved, group, what, least=2)
        if group in checked:
            raise ConfigError(f"{what} {','.join(group)!r} appears twice")
        checked.append(group)
    return checked


def stage_gen_tasks(resolved: dict, out: str | Path) -> list[Path]:
    """Create the run, or open it if it exists, and export one columnar file per task."""
    paths, digest = RunPaths(out), config_digest(resolved)
    try:
        paths.root.mkdir(parents=True, exist_ok=True)
    except OSError as e:  # --out names a file, or a path under one
        raise ConfigError(f"cannot create run directory {paths.root}: {e.strerror}") from e
    if paths.resolved_config.exists():
        open_run(resolved, out)
    else:
        write_json(paths.resolved_config, resolved)
    suite = task_suite(resolved)
    paths.tasks_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for task in suite.tasks:
        f = paths.task_file(task.id)
        export_task(task, f, suite, config_digest=digest)
        written.append(f)
    return written


def load_tasks(resolved: dict, out: str | Path) -> list[Task]:
    """Read exported task files back, verifying the config digest.

    Each file's header must name the task the file is stored as and the
    suite's ``num_classes`` and ``input_dim``. Reads nothing else of the run.
    """
    paths, digest = RunPaths(out), config_digest(resolved)
    suite = resolved["suite"]
    tasks = []
    for i in range(int(suite["n_tasks"])):
        f = paths.task_file(f"task{i}")
        if not f.exists():
            raise ConfigError(f"missing task file {f}; run gen-tasks first")
        task, meta = import_task(f)
        if meta.get("config_digest") != digest:
            raise ConfigError(f"task file {f} was produced under a different configuration")
        if task.id != f"task{i}":
            raise ContractError(f"task file {f} has task_id {task.id}, not task{i}")
        for key in ("num_classes", "input_dim"):
            if meta[key] != str(suite[key]):
                raise ContractError(f"task file {f} has {key} {meta[key]}, the config says {suite[key]}")
        tasks.append(task)
    return tasks


def stage_finetune(
    resolved: dict,
    out: str | Path,
    modes: list[ModeTag | str] | None = None,
    task_ids: list[str] | None = None,
) -> list[Path]:
    """Fine-tune every requested (mode, task) pair and write checkpoints."""
    modes = _require_modes(modes, ALL_MODES)
    if task_ids is not None:
        _require_task_ids(resolved, task_ids, "--task")
    paths, digest = open_run(resolved, out)
    tasks = [t for t in load_tasks(resolved, out) if task_ids is None or t.id in task_ids]
    init_seed = derive_seed(resolved["master_seed"], "model_init")
    written = []
    for mode in modes:
        spec = model_spec(resolved, mode)
        for task in tasks:
            ckpt, history = finetune(spec, task, train_config(resolved, mode, task.id), init_seed)
            f = paths.checkpoint_file(mode, task.id)
            f.parent.mkdir(parents=True, exist_ok=True)
            save_checkpoint(ckpt, f, config_digest=digest)
            write_metrics_csv(
                history,
                paths.metrics_file(mode, task.id),
                meta=f"mode={mode.value} task={task.id} config_digest={digest}",
            )
            written.append(f)
    return written


def load_mode_checkpoints(resolved: dict, out: str | Path, mode: ModeTag) -> list[Checkpoint]:
    """Read a mode's checkpoints back; each must carry the config digest and hold
    the task it is stored as and the config's ``model_spec`` for ``mode``."""
    paths, digest = RunPaths(out), config_digest(resolved)
    spec = model_spec(resolved, mode)
    cks = []
    for i in range(int(resolved["suite"]["n_tasks"])):
        f = paths.checkpoint_file(mode, f"task{i}")
        if not f.exists():
            raise ConfigError(f"missing checkpoint {f}; run finetune first")
        ck = load_checkpoint(f, expected_config_digest=digest)
        if ck.task_id != f"task{i}":
            raise ContractError(f"checkpoint {f} has task_id {ck.task_id}, not task{i}")
        if ck.spec != spec:
            raise ContractError(f"checkpoint {f} has spec {ck.spec.to_dict()}, the config says {spec.to_dict()}")
        cks.append(ck)
    return cks


def _fewshot_for_subset(resolved: dict, tasks: dict[str, Task], subset, per_task: int) -> Dataset:
    xs, ys = [], []
    for task_id in subset:
        val = tasks[task_id].val
        rng = np.random.default_rng(
            derive_seed(resolved["master_seed"], "fewshot", "lorahub", *subset, task_id)
        )
        idx = rng.choice(len(val), size=min(per_task, len(val)), replace=False)
        idx = np.sort(idx)
        xs.append(val.xs[idx])
        ys.append(val.ys[idx])
    return Dataset(np.concatenate(xs), np.concatenate(ys))


def stage_fuse(
    resolved: dict,
    out: str | Path,
    algorithm: str,
    modes: list[ModeTag | str] | None = None,
    subsets: list[tuple[str, ...]] | None = None,
) -> list[Path]:
    """Merge checkpoint subsets and write merged models plus provenance.

    Subsets merge one after another in enumeration order, and a mode's
    files are written only after all of its merges succeed. Per mode, one
    ``Scorer`` per task on its validation split and one on its test split
    serve every subset's sweep, the merged models' test scores and the
    single-task references; they live for this call only.
    """
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown fusion algorithm {algorithm!r}")
    modes = _require_modes(modes, ALL_MODES)
    subsets = _require_groups(resolved, subsets, "fusion subset", pair=False)
    paths, digest = open_run(resolved, out)
    tasks = {t.id: t for t in load_tasks(resolved, out)}
    validation = {tid: t.val for tid, t in tasks.items()}
    test = {tid: t.test for tid, t in tasks.items()}
    written = []
    for mode in modes:
        cks = load_mode_checkpoints(resolved, out, mode)
        by_id = {c.task_id: c for c in cks}
        val_scorers, test_scorers = scorers_for(cks, validation), scorers_for(cks, test)

        def test_score(task_id: str, flat) -> float:
            return scored_accuracy(test_scorers[task_id], flat, test[task_id].ys)

        single_test = {c.task_id: test_score(c.task_id, c.trained.flatten()) for c in cks}
        chosen = subsets if subsets is not None else enumerate_subsets(sorted(by_id))
        fcfg = fusion_config(resolved, algorithm)

        def merge_one(subset):
            sub_cks = [by_id[t] for t in subset]
            fewshot = None
            if algorithm == "lorahub":
                fewshot = _fewshot_for_subset(resolved, tasks, subset, fcfg.fewshot_per_task)
            merged = sweep_and_select(
                fcfg, sub_cks, validation, fewshot=fewshot,
                seed=derive_seed(resolved["master_seed"], "lorahub", *subset),
                scorers=val_scorers,
            )
            test_scores = {t: test_score(t, merged.trainable.flatten()) for t in subset}
            normalized = {
                t: normalized_score(test_scores[t], single_test[t]) for t in subset
            }
            provenance = dict(merged.provenance)
            provenance.update(
                config_digest=digest,
                merged_digest=merged.trainable.digest(),
                subset=list(subset),
                test_scores=test_scores,
                single_task_test_scores={t: single_test[t] for t in subset},
                normalized_scores=normalized,
                mean_normalized_score=float(np.mean(list(normalized.values()))),
            )
            return merged, provenance

        results = [merge_one(s) for s in chosen]
        paths.fusion_dir(algorithm, mode).mkdir(parents=True, exist_ok=True)
        for subset, (merged, provenance) in zip(chosen, results):
            merged_ckpt = Checkpoint(
                spec=merged.spec,
                task_id="+".join(subset),
                init_seed=provenance["init_seed"],
                trained=merged.trainable,
                metrics={
                    f"test_accuracy_{tid}": score
                    for tid, score in provenance["test_scores"].items()
                },
            )
            mf = paths.merged_file(algorithm, mode, subset)
            save_checkpoint(merged_ckpt, mf, config_digest=digest)
            pf = paths.provenance_file(algorithm, mode, subset)
            write_json(pf, provenance)
            written.extend([mf, pf])
    return written


def stage_analyze_similarity(resolved: dict, out: str | Path, modes=None) -> list[Path]:
    modes = _require_modes(modes, ALL_MODES)
    paths, digest = open_run(resolved, out)
    written = []
    for mode in modes:
        cks = load_mode_checkpoints(resolved, out, mode)
        vectors = [compute_task_vector(c) for c in cks]
        ids, matrix = similarity_matrix(vectors)
        paths.analysis_dir.mkdir(parents=True, exist_ok=True)
        f = paths.analysis_dir / f"similarity_{mode.value}.csv"
        write_similarity_csv(ids, matrix, f, meta=f"mode={mode.value} config_digest={digest}")
        written.append(f)
    return written


def stage_analyze_disentangle(
    resolved: dict, out: str | Path, modes=None, pairs=None
) -> list[Path]:
    modes = _require_modes(modes, [ModeTag.LORA, ModeTag.LLORA])
    pairs = _require_groups(resolved, pairs, "disentanglement pair", pair=True)
    paths, digest = open_run(resolved, out)
    a = analysis_config(resolved)
    tasks = {t.id: t for t in load_tasks(resolved, out)}
    written = []
    for mode in modes:
        cks = load_mode_checkpoints(resolved, out, mode)
        vectors = {c.task_id: compute_task_vector(c) for c in cks}
        ids = sorted(vectors)
        chosen = pairs if pairs is not None else [(ids[0], ids[1])]
        for t1, t2 in chosen:
            grid = disentanglement_grid(
                cks[0].spec,
                cks[0].theta0(),
                cks[0].initial,
                vectors[t1],
                vectors[t2],
                (tasks[t1].test, tasks[t2].test),
                lambda_range=(a.lambda_min, a.lambda_max),
                resolution=a.resolution,
            )
            meta = f"mode={mode.value} pair={t1},{t2} config_digest={digest}"
            paths.analysis_dir.mkdir(parents=True, exist_ok=True)
            f1 = paths.analysis_dir / f"disentangle_{mode.value}_{t1}+{t2}.csv"
            write_grid_csv(grid.lambda1_axis, grid.lambda2_axis, grid.xi, f1, meta=meta)
            f2 = paths.analysis_dir / f"disentangle_{mode.value}_{t1}+{t2}.raw.csv"
            write_grid_csv(grid.lambda1_axis, grid.lambda2_axis, grid.xi_raw, f2, meta=meta)
            written.extend([f1, f2])
    return written


def stage_analyze_landscape(resolved: dict, out: str | Path, pairs=None) -> list[Path]:
    pairs = _require_groups(resolved, pairs, "landscape pair", pair=True)
    paths, digest = open_run(resolved, out)
    a = analysis_config(resolved)
    tasks = {t.id: t for t in load_tasks(resolved, out)}
    cks = load_mode_checkpoints(resolved, out, ModeTag.FULL_FT)
    by_id = {c.task_id: c for c in cks}
    ids = sorted(by_id)
    chosen = pairs if pairs is not None else [(ids[0], ids[1])]
    axes = grid_axis((a.lambda_min, a.lambda_max), a.resolution)
    written = []
    for t1, t2 in chosen:
        grid = loss_landscape_grid(
            by_id[t1].spec,
            by_id[t1].theta0(),
            by_id[t1].trained,
            by_id[t2].trained,
            axes,
            axes,
            (tasks[t1].test, tasks[t2].test),
        )
        paths.analysis_dir.mkdir(parents=True, exist_ok=True)
        f = paths.analysis_dir / f"landscape_{t1}+{t2}.csv"
        write_grid_csv(grid.lambda1_axis, grid.lambda2_axis, grid.loss, f,
                       meta=f"pair={t1},{t2} config_digest={digest}")
        written.append(f)
    return written


def stage_analyze_ntk(resolved: dict, out: str | Path, modes=None, task_id=None) -> list[Path]:
    modes = _require_modes(modes, [ModeTag.LLORA])
    if task_id is not None:
        _require_task_ids(resolved, [task_id], "ntk task")
    for mode in modes:
        if not mode.is_linearized:
            raise ConfigError(f"ntk analysis applies to linearized modes, not {mode.value}")
    paths, digest = open_run(resolved, out)
    a = analysis_config(resolved)
    tasks = {t.id: t for t in load_tasks(resolved, out)}
    written = []
    for mode in modes:
        cks = load_mode_checkpoints(resolved, out, mode)
        by_id = {c.task_id: c for c in cks}
        tid = task_id or sorted(by_id)[0]
        ck = by_id[tid]
        task = tasks[tid]
        n = min(a.ntk_max_samples, len(task.train))
        xs, ys = task.train.xs[:n], task.train.ys[:n]
        with np.errstate(all="ignore"):  # a non-finite result is reported once, below
            predicted, observed, rel = ntk_one_step_check(ck.spec, ck.theta0(), ck.initial, ck.trained, xs, ys,
                                                          eta=a.ntk_eta, max_jacobian_samples=a.ntk_max_samples)
            row = [a.ntk_eta, n, rel, np.linalg.norm(predicted), np.linalg.norm(observed)]
        if not np.isfinite(row).all():  # finite arrays can still overflow their norms
            raise NumericError(f"ntk check of {mode.value} {tid} is not finite: relative_error {rel}, "
                               f"predicted_norm {row[3]}, observed_norm {row[4]}")
        paths.analysis_dir.mkdir(parents=True, exist_ok=True)
        f = paths.analysis_dir / f"ntk_{mode.value}_{tid}.csv"
        write_csv(f, f"mode={mode.value} task={tid} config_digest={digest}",
                  ["eta", "batch", "relative_error", "predicted_norm", "observed_norm"], [row])
        written.append(f)
    return written


def stage_report(resolved: dict, out: str | Path) -> tuple:
    """Aggregate every provenance record into the fusion report."""
    paths, digest = open_run(resolved, out)
    fusion_root = paths.root / "fusion"
    if not fusion_root.exists():
        raise ConfigError("no fusion outputs found; run fuse first")
    rows = []
    for pf in sorted(fusion_root.glob("*/*/*.provenance.json")):
        record = read_json_object(pf, "provenance")
        if record.get("config_digest") != digest:
            raise ConfigError(f"{pf} was produced under a different configuration")
        fields = ("algorithm", "mode", "subset", "mean_normalized_score", "test_scores", "single_task_test_scores")
        algorithm, mode, subset, score, test, single = map(record.get, fields)
        # the slot fusion/<algorithm>/<mode>/<subset joined by +>.provenance.json
        slot = (pf.parent.parent.name, pf.parent.name, pf.name.removesuffix(".provenance.json").split("+"))
        if (algorithm, mode, subset) != slot:
            raise ContractError(f"{pf} holds the record of algorithm {algorithm!r}, mode {mode!r} "
                                f"and subset {subset!r}, not of the slot it is stored as")
        if leaf_problem(score, 0.0):
            raise ContractError(f"{pf} is not a provenance record: mean_normalized_score "
                                "must be a finite number")
        for key, scores in (("test_scores", test), ("single_task_test_scores", single)):
            if not (isinstance(scores, dict) and sorted(scores) == sorted(subset)
                    and leaf_problem([*scores.values()], [0.0]) is None):
                raise ContractError(f"{pf} is not a provenance record: {key} must map each task "
                                    "of the subset to a finite number")
        rows.append(dict(zip(fields, (algorithm, mode, tuple(subset), score, test, single))))
    report = aggregate_report(rows)
    paths.report_dir.mkdir(parents=True, exist_ok=True)
    csv_path = paths.report_dir / "fusion_report.csv"
    write_report_csv(report, csv_path, meta=f"config_digest={digest}")
    txt_path = paths.report_dir / "fusion_report.txt"
    write_atomic(txt_path, format_report_table(report) + "\n")
    return report, [csv_path, txt_path]


def run_full_pipeline(resolved: dict, out: str | Path):
    """gen-tasks, finetune all modes, fuse all subsets, analyze, report."""
    stage_gen_tasks(resolved, out)
    stage_finetune(resolved, out)
    for algorithm in ALGORITHMS:
        stage_fuse(resolved, out, algorithm)
    for kind in ANALYSES:
        globals()[f"stage_analyze_{kind}"](resolved, out)
    return stage_report(resolved, out)
