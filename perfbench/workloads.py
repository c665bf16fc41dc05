"""The benchmark's three workloads, their set-up and their output checks.

run.py drives each workload through these steps:

- ``prepare(scratch)`` builds, once per invocation, inputs that every
  repetition shares (untimed set-up);
- ``setup(rep_dir, rep)`` builds one repetition's inputs (untimed set-up);
- ``run(rep_dir, rep)`` makes the calls into fuselab being measured;
- ``check(rep_dir, rep)`` verifies that repetition's outputs (untimed).

Every stage call goes through ``Ops``, which counts the calls attempted and
the calls that raised, returned non-zero or failed an output check.
``prepare``, ``setup`` and ``run`` return the wall seconds of their stage
calls by kind (``finetune_s``, ``fuse_s``, ``analyze_s``).

Stage functions are looked up on their modules at call time
(``pipeline.stage_fuse``, ``cli.main``), so a traced repetition sees the
tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from pathlib import Path
from time import perf_counter

import numpy as np

from fuselab import checkpoints, cli, fusion, pipeline
from fuselab.config import config_digest, resolve_config
from fuselab.errors import FuselabError
from fuselab.fusion import ALGORITHMS
from fuselab.models import ModeTag

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# train and merge run at master seed (--seed mod REFERENCE_SEEDS);
# reference.json holds, per workload and master seed, the outputs their
# checks compare against, recorded by record_reference.py.
REFERENCE_SEEDS = 32

# merge trains its fixture for 30 steps instead of 300. Its timed fuse and
# analyze stages do the same work at any step count (same shapes, grids and
# candidate counts), and a short fixture keeps set-up from being dominated by
# the finetune, whose wall time swings with the host's scheduling of BLAS
# threads (see README.md, "Why train is not gated").
MERGE_CONFIG = {"train": {"steps": 30}}

# A reordered but correct float path moved final training losses by about
# 1e-16 relative; the wrong gradients tried moved them by 0.5% or more (see
# README.md, "Output checks"). Accuracy allows a few flipped near-ties.
ACCURACY_TOLERANCE = 0.02
LOSS_RTOL = 1e-3
# Mean over 11 subsets of the merged/single-task test-accuracy ratio.
SCORE_TOLERANCE = 0.02

# The acceptance-11 configuration: tiny arrays, few evaluations per anchor.
SMALL_CONFIG = {
    "suite": {"samples_per_split": 48},
    "model": {"hidden_dims": [12]},
    "train": {"steps": 40},
    "fusion": {"lambda_grid": [0.0, 0.5, 1.0], "lorahub_max_steps": 8,
               "fewshot_per_task": 8},
    "analysis": {"resolution": 4, "ntk_max_samples": 12},
}
SMALL_FILES_PER_SEED = 401
# small draws its master seeds from those in range(SMALL_SEED_POOL) whose
# pipeline completes, as listed in reference.json. On some master seeds a
# single-task model scores 0 on its 24-row test split, the normalized score is
# undefined and fuse exits 1 by contract (see README.md).
SMALL_SEED_POOL = 128
ANALYSES = ("similarity", "disentangle", "landscape", "ntk")


class StageFailed(Exception):
    """A stage call raised; the repetition cannot go on."""


class Ops:
    """Stage calls attempted, and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed: set[int] = set()
        self.problems: list[str] = []

    def call(self, label: str, fn, *args, **kwargs):
        """Make one stage call; returns (call id, result, wall seconds)."""
        op = self.attempted
        self.attempted += 1
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # any raise is a failed op; the caller stops the repetition
            self.fail(op, f"{label} raised {exc!r}")
            raise StageFailed(label) from exc
        return op, result, perf_counter() - start

    def fail(self, op: int, problem: str) -> None:
        self.failed.add(op)
        self.problems.append(problem)


def load_reference(workload: str, master_seed: int) -> dict:
    return json.loads(REFERENCE_FILE.read_text())[workload][str(master_seed)]


def checkpoint_metrics(resolved: dict, run_dir: Path) -> dict[str, dict[str, float]]:
    """Final metrics of every checkpoint, each reloaded with digest verification."""
    paths = pipeline.RunPaths(run_dir)
    digest = config_digest(resolved)
    out = {}
    for mode in ModeTag:
        for i in range(int(resolved["suite"]["n_tasks"])):
            ck = checkpoints.load_checkpoint(
                paths.checkpoint_file(mode, f"task{i}"), expected_config_digest=digest
            )
            out[f"{mode.value}/task{i}"] = {
                "final_val_accuracy": ck.metrics["final_val_accuracy"],
                "final_train_loss": ck.metrics["final_train_loss"],
            }
    return out


def checkpoint_problems(resolved: dict, run_dir: Path, reference: dict) -> list[str]:
    try:
        observed = checkpoint_metrics(resolved, run_dir)
    except (OSError, ValueError, KeyError, FuselabError) as exc:
        return [f"checkpoint reload failed: {exc!r}"]
    problems = []
    for key, ref in reference.items():
        got = observed[key]
        acc, ref_acc = got["final_val_accuracy"], ref["final_val_accuracy"]
        if not abs(acc - ref_acc) <= ACCURACY_TOLERANCE:
            problems.append(f"{key}: final_val_accuracy {acc} vs reference {ref_acc}")
        loss, ref_loss = got["final_train_loss"], ref["final_train_loss"]
        if not abs(loss - ref_loss) <= LOSS_RTOL * abs(ref_loss):
            problems.append(f"{key}: final_train_loss {loss} vs reference {ref_loss}")
    return problems


def provenance_records(run_dir: Path) -> list[dict]:
    files = sorted((Path(run_dir) / "fusion").glob("*/*/*.provenance.json"))
    return [json.loads(f.read_text()) for f in files]


def mean_scores(records: list[dict]) -> dict[str, float]:
    """Mean normalized test score per (algorithm, mode) over its subsets."""
    groups: dict[str, list[float]] = {}
    for r in records:
        groups.setdefault(f"{r['algorithm']}/{r['mode']}", []).append(r["mean_normalized_score"])
    return {key: float(np.mean(v)) for key, v in sorted(groups.items())}


def replay_problems(resolved: dict, run_dir: Path, records: list[dict]) -> list[tuple[str, str]]:
    """(algorithm, problem) for every record that does not replay bit-identically."""
    problems = []
    by_mode = {}
    for r in records:
        mode = ModeTag(r["mode"])
        if mode not in by_mode:
            by_mode[mode] = pipeline.load_mode_checkpoints(resolved, run_dir, mode)
        replayed = fusion.replay_merge(r, by_mode[mode])
        if replayed.digest() != r["merged_digest"]:
            subset = "+".join(r["subset"])
            problems.append((r["algorithm"], f"{r['algorithm']}/{r['mode']}/{subset} replay differs"))
    return problems


class Workload:
    """A workload with nothing to build once per invocation."""

    def __init__(self, seed: int, ops: Ops):
        self.seed = seed
        self.ops = ops

    def prepare(self, scratch: Path) -> dict:
        return {}


class Train(Workload):
    """stage_finetune on the default config: 4 modes x 4 tasks x 300 steps."""

    name = "train"
    config: dict = {}

    def __init__(self, seed: int, ops: Ops):
        super().__init__(seed, ops)
        self.master_seed = seed % REFERENCE_SEEDS
        self.resolved = resolve_config(self.config, seed_override=self.master_seed)
        self.reference = load_reference(self.name, self.master_seed)

    def setup(self, rep_dir: Path, rep: int) -> dict:
        self.ops.call("gen-tasks", pipeline.stage_gen_tasks, self.resolved, rep_dir)
        return {}

    def run(self, rep_dir: Path, rep: int) -> dict:
        op, _, seconds = self.ops.call("finetune", pipeline.stage_finetune, self.resolved, rep_dir)
        self.finetune_op = op
        return {"finetune_s": seconds}

    def check(self, rep_dir: Path, rep: int) -> None:
        for problem in checkpoint_problems(self.resolved, rep_dir, self.reference["checkpoints"]):
            self.ops.fail(self.finetune_op, problem)


class Merge(Train):
    """Every fuse, analyze and report stage over one finetune (MERGE_CONFIG).

    The finetune is built once per invocation, by the code under test, and
    copied into each repetition's fresh directory.
    """

    name = "merge"
    config = MERGE_CONFIG

    def prepare(self, scratch: Path) -> dict:
        self.fixture = scratch / "fixture"
        super().setup(self.fixture, 0)
        seconds = super().run(self.fixture, 0)
        super().check(self.fixture, 0)
        return seconds

    def setup(self, rep_dir: Path, rep: int) -> dict:
        shutil.copytree(self.fixture, rep_dir)
        return {}

    def run(self, rep_dir: Path, rep: int) -> dict:
        seconds = {"fuse_s": 0.0, "analyze_s": 0.0}
        self.fuse_ops = {}
        for algorithm in ALGORITHMS:
            op, _, s = self.ops.call(f"fuse {algorithm}", pipeline.stage_fuse,
                                     self.resolved, rep_dir, algorithm)
            self.fuse_ops[algorithm] = op
            seconds["fuse_s"] += s
        for kind in ANALYSES:
            stage = getattr(pipeline, f"stage_analyze_{kind}")
            _, _, s = self.ops.call(f"analyze {kind}", stage, self.resolved, rep_dir)
            seconds["analyze_s"] += s
        self.ops.call("report", pipeline.stage_report, self.resolved, rep_dir)
        return seconds

    def check(self, rep_dir: Path, rep: int) -> None:
        records = provenance_records(rep_dir)
        expected = len(ALGORITHMS) * len(ModeTag) * 11
        if len(records) != expected:
            for op in self.fuse_ops.values():
                self.ops.fail(op, f"{len(records)} provenance records, expected {expected}")
            return
        for algorithm, problem in replay_problems(self.resolved, rep_dir, records):
            self.ops.fail(self.fuse_ops[algorithm], problem)
        reference = self.reference["scores"]
        for key, score in mean_scores(records).items():
            if not abs(score - reference[key]) <= SCORE_TOLERANCE:
                self.ops.fail(self.fuse_ops[key.split("/")[0]],
                              f"{key}: mean normalized score {score} vs reference {reference[key]}")


class Small(Workload):
    """The whole CLI pipeline on the acceptance-11 config, one master seed per repetition."""

    name = "small"

    def __init__(self, seed: int, ops: Ops, pool: list[int] | None = None):
        super().__init__(seed, ops)
        self.pool = pool or json.loads(REFERENCE_FILE.read_text())[self.name]

    def master_seed(self, rep: int) -> int:
        return self.pool[(self.seed * 97 + rep) % len(self.pool)]

    def setup(self, rep_dir: Path, rep: int) -> dict:
        rep_dir.mkdir(parents=True)
        config = dict(SMALL_CONFIG, master_seed=self.master_seed(rep))
        (rep_dir / "config.json").write_text(json.dumps(config))
        return {}

    def run(self, rep_dir: Path, rep: int) -> dict:
        common = ["--config", str(rep_dir / "config.json"), "--out", str(rep_dir / "out")]
        commands = [(None, ["gen-tasks"]), ("finetune_s", ["finetune"])]
        commands += [("fuse_s", ["fuse", "--algorithm", a, "--all-subsets"]) for a in ALGORITHMS]
        commands += [("analyze_s", ["analyze", kind]) for kind in ANALYSES]
        commands.append((None, ["report"]))
        seconds = {"finetune_s": 0.0, "fuse_s": 0.0, "analyze_s": 0.0}
        with contextlib.redirect_stdout(io.StringIO()):
            for kind, argv in commands:
                op, code, s = self.ops.call(argv[0], cli.main, argv + common)
                if code != 0:
                    self.ops.fail(op, f"fuselab {' '.join(argv)} returned {code}")
                if kind:
                    seconds[kind] += s
        self.last_op = op
        return seconds

    def check(self, rep_dir: Path, rep: int) -> None:
        files = sum(1 for f in (rep_dir / "out").rglob("*") if f.is_file())
        if files != SMALL_FILES_PER_SEED:
            self.ops.fail(self.last_op,
                          f"master seed {self.master_seed(rep)} wrote {files} files, "
                          f"expected {SMALL_FILES_PER_SEED}")


WORKLOADS = {"train": Train, "merge": Merge, "small": Small}
