"""The per-process read memo for task files and checkpoints, and the artifact JSON and CSV text."""

import json
import shutil
import sys
from pathlib import Path

import pytest

from fuselab import checkpoints, files, tasks
from fuselab.checkpoints import Checkpoint, load_checkpoint, save_checkpoint
from fuselab.cli import main
from fuselab.errors import ConfigError, ContractError
from fuselab.models import ModeTag, ModelSpec, build_model
from fuselab.tasks import export_task, import_task, make_task_suite

# The acceptance-11 configuration (perfbench's SMALL_CONFIG).
SMALL_CONFIG = {
    "master_seed": 7,
    "suite": {"samples_per_split": 48},
    "model": {"hidden_dims": [12]},
    "train": {"steps": 40},
    "fusion": {"lambda_grid": [0.0, 0.5, 1.0], "lorahub_max_steps": 8,
               "fewshot_per_task": 8},
    "analysis": {"resolution": 4, "ntk_max_samples": 12},
}


@pytest.fixture
def task_file(tmp_path):
    suite = make_task_suite(seed=41, samples_per_split=16, input_dim=4)
    path = tmp_path / "task0.csv"
    export_task(suite.tasks[0], path, suite)
    return path


@pytest.fixture
def checkpoint_file(tmp_path):
    spec = ModelSpec(input_dim=4, hidden_dims=(5,), num_classes=3, mode=ModeTag.LORA)
    _, phi0 = build_model(spec, seed=5)
    path = tmp_path / "ck.json"
    save_checkpoint(Checkpoint(spec, "task0", 5, phi0, phi0, {"final_val_accuracy": 0.5}),
                    path, config_digest="sha256:run")
    return path


@pytest.fixture
def counted(monkeypatch):
    """Counts the parses of task files and checkpoints that miss the memo."""
    counts = {"task": 0, "checkpoint": 0}

    def counting(kind, parse):
        def wrapper(path, data):
            counts[kind] += 1
            return parse(path, data)
        return wrapper

    monkeypatch.setattr(tasks, "_parse_task", counting("task", tasks._parse_task))
    monkeypatch.setattr(checkpoints, "_parse_checkpoint",
                        counting("checkpoint", checkpoints._parse_checkpoint))
    return counts


def test_a_task_file_edited_after_a_load_is_rechecked(task_file):
    import_task(task_file)
    lines = task_file.read_text().splitlines()
    split, label, first, rest = lines[5].split(",", 3)
    lines[5] = ",".join([split, label, repr(float(first) + 0.5), rest])
    task_file.write_text("\n".join(lines) + "\n")
    with pytest.raises(ContractError, match="content_digest"):
        import_task(task_file)


def test_a_checkpoint_edited_after_a_load_is_rechecked(checkpoint_file):
    load_checkpoint(checkpoint_file)
    payload = json.loads(checkpoint_file.read_text())
    payload["metrics"]["final_val_accuracy"] = 1.0
    checkpoint_file.write_text(json.dumps(payload))
    with pytest.raises(ContractError, match="digest mismatch"):
        load_checkpoint(checkpoint_file)


def test_identical_bytes_at_a_second_path_are_served(task_file, checkpoint_file, counted):
    task, _ = import_task(task_file)
    ckpt = load_checkpoint(checkpoint_file)
    parsed = dict(counted)
    task_copy = shutil.copy(task_file, task_file.with_name("copy.csv"))
    ckpt_copy = shutil.copy(checkpoint_file, checkpoint_file.with_name("copy.json"))
    assert import_task(task_copy)[0] is task
    assert load_checkpoint(ckpt_copy).trained is ckpt.trained
    assert counted == parsed


def test_the_config_check_runs_on_every_load(checkpoint_file):
    load_checkpoint(checkpoint_file, expected_config_digest="sha256:run")
    with pytest.raises(ConfigError):
        load_checkpoint(checkpoint_file, expected_config_digest="sha256:other")


def test_a_failed_parse_is_not_stored(tmp_path):
    path = tmp_path / "artifact"
    path.write_bytes(b"bad")
    calls = []

    def parse(path, data):
        calls.append(data)
        raise ContractError("bad artifact")

    size = len(files._memo)
    for _ in range(2):
        with pytest.raises(ContractError):
            files.read_memoized(path, parse)
    assert len(calls) == 2
    assert len(files._memo) == size


def test_meta_and_metrics_are_per_call_copies(task_file, checkpoint_file):
    _, meta = import_task(task_file)
    meta["task_id"] = "edited"
    _, again = import_task(task_file)
    assert again["task_id"] == "task0" and again is not meta

    ckpt = load_checkpoint(checkpoint_file)
    ckpt.metrics["final_val_accuracy"] = 2.0
    again = load_checkpoint(checkpoint_file)
    assert again.metrics == {"final_val_accuracy": 0.5} and again.metrics is not ckpt.metrics


def test_the_memo_never_exceeds_its_bound(tmp_path):
    calls = []

    def parse(path, data):
        calls.append(path)
        return data

    paths = [tmp_path / f"artifact{i}" for i in range(files.MEMO_ENTRIES + 3)]
    for i, path in enumerate(paths):
        path.write_bytes(f"artifact {i}".encode())
        files.read_memoized(path, parse)
        assert len(files._memo) <= files.MEMO_ENTRIES
    assert len(files._memo) == files.MEMO_ENTRIES
    # The least recently used entry went first: the newest is still held,
    # the oldest is parsed again.
    calls.clear()
    files.read_memoized(paths[-1], parse)
    files.read_memoized(paths[0], parse)
    assert calls == [paths[0]]


def test_two_runs_in_one_process_are_byte_identical_and_the_second_parses_nothing(
        tmp_path, counted):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    commands = [["gen-tasks"], ["finetune"]]
    commands += [["fuse", "--algorithm", a, "--all-subsets"]
                 for a in ("simple_average", "task_arithmetic", "ties_merging", "lorahub")]
    commands += [["analyze", kind] for kind in ("similarity", "disentangle", "landscape", "ntk")]
    commands.append(["report"])
    trees, parses = [], []
    for name in ("one", "two"):
        out = tmp_path / name
        before = dict(counted)
        for argv in commands:
            assert main(argv + ["--config", str(config), "--out", str(out)]) == 0
        parses.append({k: counted[k] - before[k] for k in counted})
        trees.append({str(f.relative_to(out)): f.read_bytes()
                      for f in sorted(out.rglob("*")) if f.is_file()})
    assert trees[0] == trees[1]
    assert parses == [{"task": 4, "checkpoint": 16}, {"task": 0, "checkpoint": 0}]


class Crash(BaseException):
    """A process dying at a write: no handler of the program catches it."""


def crash_stage(path) -> str:
    """The stage that writes the run file at ``path``, relative to the run."""
    top = path.parts[0]
    if top == "fusion":
        return f"fuse {path.parts[1]}"
    if top == "analysis":
        return "analyze " + path.name.split("_")[0]
    return {"resolved_config.json": "gen-tasks", "tasks": "gen-tasks", "checkpoints": "finetune"}.get(top, top)


def test_a_crash_at_any_stage_leaves_nothing_a_rerun_trusts(tmp_path, monkeypatch):
    # A run that crashes at one write and is run again in the same directory
    # gives the clean run's tree and leaves no temp file. The crash comes at
    # the middle write of each stage, before anything of that write reaches disk.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"master_seed": 7, "suite": {"n_tasks": 2, "samples_per_split": 16},
                                  "model": {"hidden_dims": [4]}, "train": {"steps": 4},
                                  "fusion": {"lambda_grid": [0.5, 1.0], "lorahub_max_steps": 4,
                                             "fewshot_per_task": 4},
                                  "analysis": {"resolution": 3, "ntk_max_samples": 4}}))
    commands = [["gen-tasks"], ["finetune"]]
    commands += [["fuse", "--algorithm", a, "--all-subsets"]
                 for a in ("simple_average", "task_arithmetic", "ties_merging", "lorahub")]
    commands += [["analyze", kind] for kind in ("similarity", "disentangle", "landscape", "ntk")]
    commands.append(["report"])
    real, written, crash_at = files.write_atomic, [], [None]

    def write_atomic(path, text):
        if len(written) == crash_at[0]:
            raise Crash(path)
        written.append(path)
        real(path, text)

    for module in [m for name, m in sys.modules.items() if name.startswith("fuselab")]:
        if getattr(module, "write_atomic", None) is real:
            monkeypatch.setattr(module, "write_atomic", write_atomic)

    def run(out):
        for argv in commands:
            assert main(argv + ["--config", str(config), "--out", str(out)]) == 0

    def tree(out):
        return {str(f.relative_to(out)): f.read_bytes() for f in sorted(out.rglob("*")) if f.is_file()}

    run(tmp_path / "clean")
    clean = tree(tmp_path / "clean")
    stages = {}
    for k, path in enumerate(written):
        stages.setdefault(crash_stage(Path(path).relative_to(tmp_path / "clean")), []).append(k)
    assert len(stages) == 11 and len(written) == len(clean)
    for stage, ks in stages.items():
        out = tmp_path / stage.replace(" ", "_")
        written.clear()
        crash_at[0] = ks[len(ks) // 2]
        with pytest.raises(Crash):
            run(out)
        crash_at[0] = None
        run(out)
        assert tree(out) == clean, stage
        assert not list(out.rglob("*.tmp")), stage


# --- the indented JSON writer -----------------------------------------------------

from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

JSON_LEAVES = (st.none() | st.booleans() | st.integers() | st.floats(allow_nan=True)
               | st.sampled_from([-0.0, float("inf"), float("-inf"), 1e-300, 5e-324])
               | st.text(max_size=80) | st.text(alphabet="ab+/=\\\"\x7f\x01é", min_size=60, max_size=120))
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=20,
)


# Every example overwrites the same file, so sharing tmp_path is safe.
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(value=JSON_VALUES)
@example(value={"data": "QUJD" * 40, "empty": {}, "none": [], "nested": [[], {}, [[]]]})
@example(value={"ünï": [" ", "\x00", -0.0, float("nan")]})
@example(value={1: "int key", 2.5: [True, None]})
def test_write_json_is_json_dumps_and_a_newline_byte_for_byte(tmp_path, value):
    files.write_json(tmp_path / "v.json", value)
    expected = json.dumps(value, sort_keys=True, indent=1) + "\n"
    assert (tmp_path / "v.json").read_bytes() == expected.encode("utf-8")


def test_a_saved_checkpoint_keeps_the_json_dumps_bytes(tmp_path):
    spec = ModelSpec(input_dim=4, hidden_dims=(6,), num_classes=3, mode=ModeTag.FULL_FT)
    _, init = build_model(spec, 3)
    path = tmp_path / "c.json"
    save_checkpoint(Checkpoint(spec, "task0", 3, init, init, {"acc": 0.5}), path)
    payload = json.loads(path.read_text())
    assert path.read_text() == json.dumps(payload, sort_keys=True, indent=1) + "\n"


# --- Golden CSV bytes -----------------------------------------------------------
# Each expected string is what the per-artifact writers produced before they
# shared files.write_csv. The cells cover -0.0, the smallest subnormal, the
# largest double, numpy scalars and the empty comment.

import numpy as np  # noqa: E402

from fuselab.analysis import FusionReport, ReportRow, read_grid_csv, write_grid_csv, write_report_csv  # noqa: E402
from fuselab.task_vectors import write_similarity_csv  # noqa: E402
from fuselab.training import write_metrics_csv  # noqa: E402

TINY, HUGE = 5e-324, 1.7976931348623157e308
AXIS1 = np.array([-0.0, TINY])
AXIS2 = [np.float64(HUGE), 0.1, -2.5]
GRID = np.array([[1 / 3, -0.0, TINY], [HUGE, -1e-300, 2.0]])
GRID_BODY = ("lambda1\\lambda2,1.7976931348623157e+308,0.10000000000000001,-2.5\n"
             "-0,0.33333333333333331,-0,4.9406564584124654e-324\n"
             "4.9406564584124654e-324,1.7976931348623157e+308,-1e-300,2\n")
REPORT = FusionReport(rows=(ReportRow("lorahub", "l_lora", None, np.int64(5), np.float64(-0.0), TINY),
                            ReportRow("ties_merging", "full_ft", 2, 6, 0.1, HUGE)))
REPORT_HEADER = ["algorithm", "mode", "subset_size", "n_subsets", "mean_normalized", "std_normalized"]
SIMILARITY = np.array([[1.0, -0.0], [TINY, np.float64(2 / 3)]])
HISTORY = [(0, np.float64(1.0986), 1 / 3), (np.int64(10), TINY, -0.0)]
NTK_ROW = [0.05, np.int64(12), np.float64(1e-7), HUGE, -0.0]

GOLDEN = {
    "grid_no_comment": (
        lambda path: write_grid_csv(AXIS1, AXIS2, GRID, path),
        "", ["lambda1\\lambda2", *AXIS2], [[a, *row] for a, row in zip(AXIS1, GRID)],
        GRID_BODY),
    "grid": (
        lambda path: write_grid_csv(AXIS1, AXIS2, GRID, path, meta="mode=lora pair=a,b"),
        "mode=lora pair=a,b", ["lambda1\\lambda2", *AXIS2], [[a, *row] for a, row in zip(AXIS1, GRID)],
        "# mode=lora pair=a,b\n" + GRID_BODY),
    "report": (
        lambda path: write_report_csv(REPORT, path, meta="config_digest=sha256:ab"),
        "config_digest=sha256:ab", REPORT_HEADER,
        [["lorahub", "l_lora", "all", np.int64(5), np.float64(-0.0), TINY],
         ["ties_merging", "full_ft", 2, 6, 0.1, HUGE]],
        "# config_digest=sha256:ab\n" + ",".join(REPORT_HEADER) + "\n"
        "lorahub,l_lora,all,5,-0,4.9406564584124654e-324\n"
        "ties_merging,full_ft,2,6,0.10000000000000001,1.7976931348623157e+308\n"),
    "similarity": (
        lambda path: write_similarity_csv(["task0", "task1"], SIMILARITY, path),
        "", ["task_id", "task0", "task1"], [["task0", *SIMILARITY[0]], ["task1", *SIMILARITY[1]]],
        "task_id,task0,task1\ntask0,1,-0\ntask1,4.9406564584124654e-324,0.66666666666666663\n"),
    "metrics": (
        lambda path: write_metrics_csv(HISTORY, path),
        "fuselab-metrics v1", ["step", "train_loss", "val_accuracy"], HISTORY,
        "# fuselab-metrics v1\nstep,train_loss,val_accuracy\n"
        "0,1.0986,0.33333333333333331\n10,4.9406564584124654e-324,-0\n"),
    "ntk": (
        None,
        "mode=l_lora task=task0 config_digest=sha256:ab",
        ["eta", "batch", "relative_error", "predicted_norm", "observed_norm"], [NTK_ROW],
        "# mode=l_lora task=task0 config_digest=sha256:ab\n"
        "eta,batch,relative_error,predicted_norm,observed_norm\n"
        "0.050000000000000003,12,9.9999999999999995e-08,1.7976931348623157e+308,-0\n"),
}


@pytest.mark.parametrize("kind", GOLDEN)
def test_write_csv_gives_each_artifact_its_golden_bytes(tmp_path, kind):
    writer, comment, header, rows, expected = GOLDEN[kind]
    files.write_csv(tmp_path / "direct.csv", comment, header, rows)
    assert (tmp_path / "direct.csv").read_bytes() == expected.encode()
    if writer is not None:
        writer(tmp_path / "artifact.csv")
        assert (tmp_path / "artifact.csv").read_bytes() == expected.encode()


def test_read_grid_csv_returns_every_float_bit_for_bit(tmp_path):
    path = tmp_path / "grid.csv"
    write_grid_csv(AXIS1, AXIS2, GRID, path, meta="mode=lora")
    a1, a2, values = read_grid_csv(path)
    for got, wrote in ((a1, AXIS1), (a2, AXIS2), (values, GRID)):
        assert got.dtype == np.float64
        assert got.tobytes() == np.asarray(wrote, dtype=np.float64).tobytes()
