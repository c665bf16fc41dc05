"""The per-process read memo for task files and checkpoints."""

import json
import shutil

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


# --- the indented JSON writer -----------------------------------------------------

from hypothesis import example, given, settings  # noqa: E402
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


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
@example({"data": "QUJD" * 40, "empty": {}, "none": [], "nested": [[], {}, [[]]]})
@example({"ünï": [" ", "\x00", -0.0, float("nan")]})
@example({1: "int key", 2.5: [True, None]})
def test_indented_json_is_json_dumps_byte_for_byte(value):
    assert files.indented_json(value) == json.dumps(value, sort_keys=True, indent=1)


def test_a_saved_checkpoint_keeps_the_json_dumps_bytes(tmp_path):
    spec = ModelSpec(input_dim=4, hidden_dims=(6,), num_classes=3, mode=ModeTag.FULL_FT)
    _, init = build_model(spec, 3)
    path = tmp_path / "c.json"
    save_checkpoint(Checkpoint(spec, "task0", 3, init, init, {"acc": 0.5}), path)
    payload = json.loads(path.read_text())
    assert path.read_text() == json.dumps(payload, sort_keys=True, indent=1) + "\n"
