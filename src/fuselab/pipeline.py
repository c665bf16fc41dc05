"""File-based pipeline stages over one output directory.

Stages communicate only through emitted artifacts. Every artifact carries
the resolved-config digest; a stage refuses inputs produced under a
different configuration. All writes are deterministic functions of the
resolved configuration, so two runs from the same master seed yield
byte-identical output trees.
"""

from __future__ import annotations

import sys
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
from .config import config_digest, derive_seed, fusion_config, model_spec, train_config
from .errors import ConfigError, ContractError
from .files import read_json_object, write_atomic, write_csv, write_json
from .fusion import ALGORITHMS, enumerate_subsets, scorers_for, sweep_and_select
from .models import LinearizedState, ModeTag, build_model
from .task_vectors import compute_task_vector, similarity_matrix, write_similarity_csv
from .tasks import Dataset, Task, export_task, import_task, make_task_suite
from .training import finetune, scored_accuracy, write_metrics_csv

ALL_MODES = [m for m in ModeTag]


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


def ensure_run_dir(resolved: dict, out: str | Path) -> tuple[RunPaths, str]:
    """Create the run directory and pin the resolved configuration."""
    paths = RunPaths(out)
    digest = config_digest(resolved)
    paths.root.mkdir(parents=True, exist_ok=True)
    if paths.resolved_config.exists():
        existing = read_json_object(paths.resolved_config, "resolved configuration")
        if config_digest(existing) != digest:
            raise ConfigError(
                f"{paths.root} was produced under a different configuration"
            )
    else:
        write_json(paths.resolved_config, resolved)
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


def stage_gen_tasks(resolved: dict, out: str | Path) -> list[Path]:
    """Generate the suite and export one columnar file per task."""
    paths, digest = ensure_run_dir(resolved, out)
    s = resolved["suite"]
    suite = make_task_suite(
        n_tasks=int(s["n_tasks"]),
        input_dim=int(s["input_dim"]),
        num_classes=int(s["num_classes"]),
        samples_per_split=int(s["samples_per_split"]),
        task_overlap=float(s["task_overlap"]),
        seed=derive_seed(resolved["master_seed"], "suite"),
    )
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
    suite's ``num_classes`` and ``input_dim``.
    """
    paths, digest = ensure_run_dir(resolved, out)
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
    modes: list[ModeTag] | None = None,
    task_ids: list[str] | None = None,
) -> list[Path]:
    """Fine-tune every requested (mode, task) pair and write checkpoints."""
    if task_ids is not None:
        _require_task_ids(resolved, task_ids, "--task")
    paths, digest = ensure_run_dir(resolved, out)
    tasks = [t for t in load_tasks(resolved, out) if task_ids is None or t.id in task_ids]
    init_seed = derive_seed(resolved["master_seed"], "model_init")
    written = []
    for mode in modes or ALL_MODES:
        spec = model_spec(resolved, mode)
        theta0, trainable0 = build_model(spec, init_seed)
        paths.checkpoint_dir(mode).mkdir(parents=True, exist_ok=True)
        for task in tasks:
            cfg = train_config(resolved, mode, task.id)
            ckpt, history = finetune(spec, theta0, trainable0, task, cfg, init_seed=init_seed)
            f = paths.checkpoint_file(mode, task.id)
            save_checkpoint(ckpt, f, config_digest=digest)
            write_metrics_csv(
                history,
                paths.metrics_file(mode, task.id),
                meta=f"mode={mode.value} task={task.id} config_digest={digest}",
            )
            written.append(f)
    return written


def load_mode_checkpoints(resolved: dict, out: str | Path, mode: ModeTag):
    paths, digest = ensure_run_dir(resolved, out)
    n = int(resolved["suite"]["n_tasks"])
    cks = []
    for i in range(n):
        f = paths.checkpoint_file(mode, f"task{i}")
        if not f.exists():
            raise ConfigError(f"missing checkpoint {f}; run finetune first")
        cks.append(load_checkpoint(f, expected_config_digest=digest))
    return cks


def _fewshot_for_subset(resolved: dict, tasks: dict[str, Task], subset, algorithm: str) -> Dataset:
    per_task = int(resolved["fusion"]["fewshot_per_task"])
    xs, ys = [], []
    for task_id in subset:
        val = tasks[task_id].val
        rng = np.random.default_rng(
            derive_seed(resolved["master_seed"], "fewshot", algorithm, *subset, task_id)
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
    modes: list[ModeTag] | None = None,
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
    for subset in subsets or []:
        _require_task_ids(resolved, subset, "fusion subset", least=2)
    paths, digest = ensure_run_dir(resolved, out)
    tasks = {t.id: t for t in load_tasks(resolved, out)}
    validation = {tid: t.val for tid, t in tasks.items()}
    test = {tid: t.test for tid, t in tasks.items()}
    written = []
    for mode in modes or ALL_MODES:
        cks = load_mode_checkpoints(resolved, out, mode)
        by_id = {c.task_id: c for c in cks}
        val_scorers, test_scorers = scorers_for(cks, validation), scorers_for(cks, test)

        def test_score(task_id: str, flat) -> float:
            return scored_accuracy(test_scorers[task_id], flat, test[task_id].ys)

        single_test = {c.task_id: test_score(c.task_id, c.trained.flatten()) for c in cks}
        chosen = subsets if subsets is not None else enumerate_subsets(sorted(by_id))
        fcfg = fusion_config(resolved, algorithm)
        paths.fusion_dir(algorithm, mode).mkdir(parents=True, exist_ok=True)

        def merge_one(subset):
            sub_cks = [by_id[t] for t in subset]
            fewshot = None
            if algorithm == "lorahub":
                fewshot = _fewshot_for_subset(resolved, tasks, subset, algorithm)
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
        for subset, (merged, provenance) in zip(chosen, results):
            merged_ckpt = Checkpoint(
                spec=merged.spec,
                task_id="+".join(subset),
                init_seed=provenance["init_seed"],
                initial=merged.initial,
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
    paths, digest = ensure_run_dir(resolved, out)
    paths.analysis_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for mode in modes or ALL_MODES:
        cks = load_mode_checkpoints(resolved, out, mode)
        vectors = [compute_task_vector(c) for c in cks]
        ids, matrix = similarity_matrix(vectors)
        f = paths.analysis_dir / f"similarity_{mode.value}.csv"
        write_similarity_csv(ids, matrix, f, meta=f"mode={mode.value} config_digest={digest}")
        written.append(f)
    return written


def stage_analyze_disentangle(
    resolved: dict, out: str | Path, modes=None, pairs=None
) -> list[Path]:
    for pair in pairs or []:
        _require_task_ids(resolved, pair, "disentanglement pair", least=2)
    paths, digest = ensure_run_dir(resolved, out)
    paths.analysis_dir.mkdir(parents=True, exist_ok=True)
    a = resolved["analysis"]
    tasks = {t.id: t for t in load_tasks(resolved, out)}
    written = []
    for mode in modes or [ModeTag.LORA, ModeTag.LLORA]:
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
                lambda_range=(float(a["lambda_min"]), float(a["lambda_max"])),
                resolution=int(a["resolution"]),
            )
            meta = f"mode={mode.value} pair={t1},{t2} config_digest={digest}"
            f1 = paths.analysis_dir / f"disentangle_{mode.value}_{t1}+{t2}.csv"
            write_grid_csv(grid.lambda1_axis, grid.lambda2_axis, grid.xi, f1, meta=meta)
            f2 = paths.analysis_dir / f"disentangle_{mode.value}_{t1}+{t2}.raw.csv"
            write_grid_csv(grid.lambda1_axis, grid.lambda2_axis, grid.xi_raw, f2, meta=meta)
            written.extend([f1, f2])
    return written


def stage_analyze_landscape(resolved: dict, out: str | Path, pairs=None) -> list[Path]:
    for pair in pairs or []:
        _require_task_ids(resolved, pair, "landscape pair", least=2)
    paths, digest = ensure_run_dir(resolved, out)
    paths.analysis_dir.mkdir(parents=True, exist_ok=True)
    a = resolved["analysis"]
    tasks = {t.id: t for t in load_tasks(resolved, out)}
    cks = load_mode_checkpoints(resolved, out, ModeTag.FULL_FT)
    by_id = {c.task_id: c for c in cks}
    ids = sorted(by_id)
    chosen = pairs if pairs is not None else [(ids[0], ids[1])]
    axes = grid_axis((a["lambda_min"], a["lambda_max"]), a["resolution"])
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
        f = paths.analysis_dir / f"landscape_{t1}+{t2}.csv"
        write_grid_csv(grid.lambda1_axis, grid.lambda2_axis, grid.loss, f,
                       meta=f"pair={t1},{t2} config_digest={digest}")
        written.append(f)
    return written


def stage_analyze_ntk(resolved: dict, out: str | Path, modes=None, task_id=None) -> list[Path]:
    if task_id is not None:
        _require_task_ids(resolved, [task_id], "ntk task")
    paths, digest = ensure_run_dir(resolved, out)
    paths.analysis_dir.mkdir(parents=True, exist_ok=True)
    a = resolved["analysis"]
    tasks = {t.id: t for t in load_tasks(resolved, out)}
    written = []
    for mode in modes or [ModeTag.LLORA]:
        mode = ModeTag(mode)
        if not mode.is_linearized:
            raise ConfigError(f"ntk analysis applies to linearized modes, not {mode.value}")
        cks = load_mode_checkpoints(resolved, out, mode)
        by_id = {c.task_id: c for c in cks}
        tid = task_id or sorted(by_id)[0]
        ck = by_id[tid]
        task = tasks[tid]
        cap = int(a["ntk_max_samples"])
        n = min(cap, len(task.train))
        xs, ys = task.train.xs[:n], task.train.ys[:n]
        lin = LinearizedState(ck.initial, ck.trained)
        eta = float(a["ntk_eta"])
        predicted, observed, rel = ntk_one_step_check(
            ck.spec, ck.theta0(), lin, xs, ys, eta=eta, max_jacobian_samples=cap
        )
        f = paths.analysis_dir / f"ntk_{mode.value}_{tid}.csv"
        write_csv(f, f"mode={mode.value} task={tid} config_digest={digest}",
                  ["eta", "batch", "relative_error", "predicted_norm", "observed_norm"],
                  [[eta, n, rel, np.linalg.norm(predicted), np.linalg.norm(observed)]])
        written.append(f)
    return written


def stage_report(resolved: dict, out: str | Path) -> tuple:
    """Aggregate every provenance record into the fusion report."""
    paths, digest = ensure_run_dir(resolved, out)
    fusion_root = paths.root / "fusion"
    if not fusion_root.exists():
        raise ConfigError("no fusion outputs found; run fuse first")
    rows = []
    for pf in sorted(fusion_root.glob("*/*/*.provenance.json")):
        record = read_json_object(pf, "provenance")
        if record.get("config_digest") != digest:
            raise ConfigError(f"{pf} was produced under a different configuration")
        fields = ("algorithm", "mode", "subset", "mean_normalized_score")
        algorithm, mode, subset, score = map(record.get, fields)
        # type() rejects a bool; the comparison is exact for any int and false for NaN.
        if not (isinstance(subset, list) and all(isinstance(v, str) for v in (algorithm, mode, *subset))
                and type(score) in (int, float) and abs(score) <= sys.float_info.max):
            raise ContractError(f"{pf} is not a provenance record: algorithm, mode and subset's task ids "
                                "must be strings and mean_normalized_score a finite number")
        rows.append(dict(zip(fields, (algorithm, mode, tuple(subset), score))))
    report = aggregate_report(rows)
    paths.report_dir.mkdir(parents=True, exist_ok=True)
    csv_path = paths.report_dir / "fusion_report.csv"
    write_report_csv(report, csv_path, meta=f"config_digest={digest}")
    txt_path = paths.report_dir / "fusion_report.txt"
    write_atomic(txt_path, format_report_table(report) + "\n")
    return report, [csv_path, txt_path]


def run_full_pipeline(resolved: dict, out: str | Path, algorithms=None):
    """gen-tasks, finetune all modes, fuse all subsets, analyze, report."""
    stage_gen_tasks(resolved, out)
    stage_finetune(resolved, out)
    for algorithm in algorithms or ALGORITHMS:
        stage_fuse(resolved, out, algorithm)
    stage_analyze_similarity(resolved, out)
    stage_analyze_disentangle(resolved, out)
    stage_analyze_landscape(resolved, out)
    stage_analyze_ntk(resolved, out)
    return stage_report(resolved, out)
