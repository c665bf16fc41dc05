"""CLI subcommands, file flows, digests, and end-to-end determinism."""

import base64
import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from fuselab.analysis import read_grid_csv
from fuselab.checkpoints import load_checkpoint
from fuselab.cli import main
from fuselab.config import config_digest, load_config, resolve_config
from fuselab.errors import ConfigError, ContractError
from fuselab.files import canonical_digest
from fuselab.fusion import FusionConfig, replay_merge
from fuselab.models import ModeTag, ModelSpec
from fuselab.pipeline import load_mode_checkpoints, load_tasks
from fuselab.training import TrainConfig, evaluate_checkpoint

FAST_CONFIG = {
    "master_seed": 7,
    "suite": {"samples_per_split": 64},
    "model": {"hidden_dims": [16, 16]},
    "train": {"steps": 60},
    "train_overrides": {"l_lora": {"steps": 200, "learning_rate": 0.02}},
    "fusion": {"lambda_grid": [0.0, 0.25, 0.5, 0.75, 1.0], "lorahub_max_steps": 12,
               "fewshot_per_task": 8},
    "analysis": {"resolution": 5, "ntk_max_samples": 16},
}


def write_config(tmp_path, extra=None) -> Path:
    cfg = json.loads(json.dumps(FAST_CONFIG))
    if extra:
        cfg.update(extra)
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg))
    return p


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One fully executed small pipeline shared by the read-only tests."""
    tmp_path = tmp_path_factory.mktemp("run")
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["gen-tasks", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["finetune", "--config", str(cfg), "--out", str(out)]) == 0
    for algorithm in ("simple_average", "task_arithmetic"):
        assert main(["fuse", "--config", str(cfg), "--out", str(out),
                     "--algorithm", algorithm, "--all-subsets"]) == 0
    for kind in ("similarity", "disentangle", "landscape", "ntk"):
        assert main(["analyze", kind, "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
    return cfg, out


class TestGenTasks:
    def test_produces_n_task_files(self, run_dir):
        _, out = run_dir
        files = sorted((out / "tasks").glob("task*.csv"))
        assert len(files) == 4

    def test_byte_identical_on_rerun(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["gen-tasks", "--config", str(cfg), "--out", str(out1)])
        main(["gen-tasks", "--config", str(cfg), "--out", str(out2)])
        for f1 in sorted((out1 / "tasks").iterdir()):
            f2 = out2 / "tasks" / f1.name
            assert f1.read_bytes() == f2.read_bytes()

    def test_round_trip_preserves_evaluation(self, run_dir):
        # file-loaded splits vs a fresh in-memory suite: same bits, same scores
        cfg, out = run_dir
        resolved = load_config(cfg)
        from fuselab.config import derive_seed
        from fuselab.tasks import make_task_suite

        s = resolved["suite"]
        fresh = make_task_suite(
            n_tasks=s["n_tasks"], input_dim=s["input_dim"],
            num_classes=s["num_classes"], samples_per_split=s["samples_per_split"],
            task_overlap=s["task_overlap"],
            seed=derive_seed(resolved["master_seed"], "suite"),
        )
        tasks = {t.id: t for t in load_tasks(resolved, out)}
        cks = load_mode_checkpoints(resolved, out, ModeTag.LORA)
        for ck in cks:
            from_file = evaluate_checkpoint(ck, tasks[ck.task_id].val)
            in_memory = evaluate_checkpoint(ck, fresh.by_id(ck.task_id).val)
            assert from_file == in_memory
            assert from_file == ck.metrics["final_val_accuracy"]


class TestFinetuneCmd:
    def test_all_modes_all_tasks_counts(self, run_dir):
        _, out = run_dir
        files = sorted((out / "checkpoints").glob("*/task*.json"))
        assert len(files) == 16  # 4 modes x 4 tasks

    def test_rerun_identical_digests(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            main(["gen-tasks", "--config", str(cfg), "--out", str(out)])
            main(["finetune", "--config", str(cfg), "--out", str(out),
                  "--mode", "lora", "--task", "task0"])
        f1 = out1 / "checkpoints/lora/task0.json"
        f2 = out2 / "checkpoints/lora/task0.json"
        assert f1.read_bytes() == f2.read_bytes()

    def test_llora_checkpoint_evaluates_above_chance(self, run_dir):
        cfg, out = run_dir
        resolved = load_config(cfg)
        tasks = {t.id: t for t in load_tasks(resolved, out)}
        for ck in load_mode_checkpoints(resolved, out, ModeTag.LLORA):
            acc = evaluate_checkpoint(ck, tasks[ck.task_id].val)
            assert acc > 1.0 / 3.0

    def test_metrics_sidecars_written(self, run_dir):
        _, out = run_dir
        sidecars = sorted((out / "checkpoints").glob("*/task*.metrics.csv"))
        assert len(sidecars) == 16
        lines = sidecars[0].read_text().splitlines()
        assert lines[1] == "step,train_loss,val_accuracy"
        assert len(lines) == 2 + FAST_CONFIG["train"]["steps"]


class TestFuseCmd:
    def test_all_subsets_counts(self, run_dir):
        _, out = run_dir
        merges = sorted((out / "fusion/task_arithmetic").glob("*/task*[!e].json"))
        provs = sorted((out / "fusion/task_arithmetic").glob("*/*.provenance.json"))
        assert len(provs) == 44  # 11 subsets x 4 modes

    def test_single_pair_emits_one(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["gen-tasks", "--config", str(cfg), "--out", str(out)])
        main(["finetune", "--config", str(cfg), "--out", str(out), "--mode", "lora"])
        code = main(["fuse", "--config", str(cfg), "--out", str(out),
                     "--algorithm", "ties_merging", "--subset", "task0,task1",
                     "--mode", "lora"])
        assert code == 0
        provs = list((out / "fusion/ties_merging/lora").glob("*.provenance.json"))
        assert len(provs) == 1

    def test_provenance_replay_bit_identical(self, run_dir):
        cfg, out = run_dir
        resolved = load_config(cfg)
        digest = config_digest(resolved)
        cks = load_mode_checkpoints(resolved, out, ModeTag.LORA)
        prov_file = out / "fusion/task_arithmetic/lora/task0+task1.provenance.json"
        record = json.loads(prov_file.read_text())
        replayed = replay_merge(record, cks)
        merged = load_checkpoint(out / "fusion/task_arithmetic/lora/task0+task1.json",
                                 expected_config_digest=digest)
        assert replayed.equal_bits(merged.trained)
        assert replayed.digest() == record["merged_digest"]


class TestAnalyzeCmd:
    def test_similarity_square_with_unit_diagonal(self, run_dir):
        _, out = run_dir
        f = out / "analysis/similarity_lora.csv"
        lines = [l for l in f.read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        assert header[0] == "task_id" and len(header) == 5
        for i, line in enumerate(lines[1:]):
            parts = line.split(",")
            assert float(parts[i + 1]) == 1.0

    def test_disentangle_grid_shape_follows_config(self, run_dir):
        _, out = run_dir
        a1, a2, values = read_grid_csv(out / "analysis/disentangle_lora_task0+task1.csv")
        assert values.shape == (5, 5)  # resolution from the fast config
        assert a1[0] == -1.0 and a1[-1] == 2.0
        assert np.all(values >= 0.0) and np.all(values <= 1.0)

    def test_landscape_endpoints_match_checkpoints(self, run_dir):
        cfg, out = run_dir
        resolved = load_config(cfg)
        # resolution 5 over [-1, 2] includes 0.5-steps; endpoints via direct eval
        a1, a2, loss = read_grid_csv(out / "analysis/landscape_task0+task1.csv")
        assert a1[0] == -1.0 and a1[-1] == 2.0
        assert np.all(np.isfinite(loss))

    def test_ntk_reports_tiny_relative_error(self, run_dir):
        _, out = run_dir
        f = out / "analysis/ntk_l_lora_task0.csv"
        lines = [l for l in f.read_text().splitlines() if not l.startswith("#")]
        header, row = lines[0].split(","), lines[1].split(",")
        rel = float(row[header.index("relative_error")])
        assert rel <= 1e-6


class TestReportCmd:
    def test_report_files_written(self, run_dir):
        _, out = run_dir
        assert (out / "report/fusion_report.csv").exists()
        assert (out / "report/fusion_report.txt").exists()

    def test_totals_match_recomputation(self, run_dir):
        _, out = run_dir
        rows = []
        for pf in sorted((out / "fusion").glob("*/*/*.provenance.json")):
            rows.append(json.loads(pf.read_text()))
        csv_lines = [l for l in (out / "report/fusion_report.csv").read_text().splitlines()
                     if not l.startswith("#")][1:]
        for line in csv_lines:
            algo, mode, size, n, mean, std = line.split(",")
            group = [r["mean_normalized_score"] for r in rows
                     if r["algorithm"] == algo and r["mode"] == mode
                     and (size == "all" or len(r["subset"]) == int(size))]
            assert int(n) == len(group)
            assert abs(float(mean) - np.mean(group)) < 1e-12
            assert abs(float(std) - np.std(group)) < 1e-12


class TestConfigHandling:
    def test_unknown_keys_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"sweet": 1}))
        assert main(["gen-tasks", "--config", str(p), "--out", str(tmp_path / "o")]) == 1

    def test_unknown_section_keys_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config({"train": {"lr": 0.1}})

    def test_seed_override_changes_digest(self, tmp_path):
        cfg = write_config(tmp_path)
        a = load_config(cfg)
        b = load_config(cfg, seed_override=123)
        assert config_digest(a) != config_digest(b)

    def test_mismatched_outputs_rejected(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["gen-tasks", "--config", str(cfg), "--out", str(out)]) == 0
        # same out dir, different seed: stage must refuse
        assert main(["finetune", "--config", str(cfg), "--out", str(out),
                     "--seed", "999"]) == 1

    def test_bad_flag_exits_one(self, tmp_path):
        assert main(["fuse", "--out", str(tmp_path / "o"), "--algorithm", "nope",
                     "--all-subsets"]) == 1
        assert main(["fuse", "--out", str(tmp_path / "o"), "--algorithm", "task_arithmetic",
                     "--all-subsets", "--jobs", "2"]) == 1

    def test_resolved_config_written_and_stable(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["gen-tasks", "--config", str(cfg), "--out", str(out)])
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["master_seed"] == 7
        assert "seed_scheme" in resolved
        assert resolved["train"]["steps"] == 60


def test_missing_upstream_stage_reported(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    code = main(["finetune", "--config", str(cfg), "--out", str(out)])
    assert code == 1


def test_divergence_exits_with_code_two(tmp_path):
    cfg = tmp_path / "diverge.json"
    cfg.write_text(json.dumps({
        "master_seed": 5,
        "suite": {"samples_per_split": 24},
        "model": {"hidden_dims": [8]},
        "train": {"steps": 20, "learning_rate": 1e308, "optimizer": "sgd"},
    }))
    out = tmp_path / "out"
    assert main(["gen-tasks", "--config", str(cfg), "--out", str(out)]) == 0
    code = main(["finetune", "--config", str(cfg), "--out", str(out),
                 "--mode", "full_ft", "--task", "task0"])
    assert code == 2


def test_seven_tasks_all_subsets_emit_120_merges(tmp_path):
    cfg = tmp_path / "seven.json"
    cfg.write_text(json.dumps({
        "master_seed": 3,
        "suite": {"n_tasks": 7, "samples_per_split": 24},
        "model": {"hidden_dims": [8]},
        "train": {"steps": 12},
    }))
    out = tmp_path / "out"
    assert main(["gen-tasks", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["finetune", "--config", str(cfg), "--out", str(out), "--mode", "lora"]) == 0
    assert main(["fuse", "--config", str(cfg), "--out", str(out),
                 "--algorithm", "simple_average", "--all-subsets", "--mode", "lora"]) == 0
    provs = list((out / "fusion/simple_average/lora").glob("*.provenance.json"))
    assert len(provs) == 120


@pytest.mark.parametrize("learning_rate", ["1e308"])
def test_final_step_divergence_exits_two_without_checkpoint(tmp_path, learning_rate):
    # One SGD step leaves finite parameters whose final train loss overflows.
    # An infinite rate (1e400) is a ConfigError, see the out-of-range cases.
    cfg = tmp_path / "diverge.json"
    cfg.write_text('{"master_seed": 5, "suite": {"samples_per_split": 24}, '
                   '"model": {"hidden_dims": [8]}, '
                   '"train": {"steps": 1, "optimizer": "sgd", "learning_rate": %s}}'
                   % learning_rate)
    out = tmp_path / "out"
    assert main(["gen-tasks", "--config", str(cfg), "--out", str(out)]) == 0
    code = main(["finetune", "--config", str(cfg), "--out", str(out),
                 "--mode", "full_ft", "--task", "task0"])
    assert code == 2
    assert not (out / "checkpoints/full_ft/task0.json").exists()


@pytest.mark.parametrize("raw", [
    {"model": {"hidden_dims": "44"}},
    {"train": {"steps": True}},
    {"train": {"steps": 2.7}},
    {"master_seed": 3.9},
    {"suite": 5},
], ids=["hidden_dims_string", "steps_bool", "steps_float", "master_seed_float",
        "section_not_object"])
def test_wrong_leaf_kind_exits_one(tmp_path, raw):
    # The first four used to be coerced: "44" to (4, 4), true to 1 step,
    # 2.7 to 2 steps, 3.9 to master seed 3. A section that is not an object
    # used to crash with a TypeError.
    with pytest.raises(ConfigError):
        resolve_config(raw)
    p = tmp_path / "config.json"
    p.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["gen-tasks", "--config", str(p), "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("raw", [
    {"fusion": {"lambda_grid": []}},
    {"fusion": {"ties_k_grid": []}},
    {"fusion": {"ties_lambda_grid": []}},
    {"fusion": {"ties_k_grid": [0.5, 1.5]}},
    {"fusion": {"ties_k_grid": [0.0]}},
    {"fusion": {"ties_k_grid": [-0.25]}},
    {"analysis": {"resolution": 1}},
    {"analysis": {"lambda_min": 2.0, "lambda_max": 2.0}},
    {"analysis": {"lambda_min": 3.0, "lambda_max": -1.0}},
    {"suite": {"n_tasks": 1}},
    json.loads('{"train": {"learning_rate": 1e400}}'),
    json.loads('{"train": {"learning_rate": NaN}}'),
    json.loads('{"fusion": {"lorahub_alpha": Infinity}}'),
    json.loads('{"fusion": {"lambda_grid": [0.5, -Infinity]}}'),
    json.loads('{"analysis": {"ntk_eta": NaN}}'),
    {"train": {"learning_rate": -0.01}},
    {"train_overrides": {"l_lora": {"learning_rate": -1}}},
    {"fusion": {"lorahub_alpha": -0.05}},
    {"model": {"lora_rank": 4}},
    {"suite": {"task_overlap": 1.5}},
    {"suite": {"task_overlap": -0.1}},
    {"suite": {"samples_per_split": 2}},
    json.loads('{"train": {"steps": 2, "learning_rate": 1' + "0" * 400 + '}}'),
    json.loads('{"model": {"lora_alpha": 1' + "0" * 400 + '}}'),
    {"analysis": {"resolution": 10**30}},
    {"suite": {"samples_per_split": 10**30}},
    {"model": {"hidden_dims": [8, 2**63]}},
], ids=["empty_lambda_grid", "empty_ties_k_grid", "empty_ties_lambda_grid", "ties_k_above_one",
        "ties_k_zero", "ties_k_negative", "resolution_one", "lambda_range_empty",
        "lambda_range_reversed", "one_task", "learning_rate_1e400", "learning_rate_nan",
        "lorahub_alpha_infinity", "lambda_grid_item_minus_infinity", "ntk_eta_nan",
        "learning_rate_negative", "override_learning_rate_negative", "lorahub_alpha_negative",
        "lora_rank_above_num_classes", "task_overlap_above_one", "task_overlap_negative",
        "samples_per_split_below_num_classes", "learning_rate_integer_overflow",
        "lora_alpha_integer_overflow", "resolution_beyond_int64", "samples_per_split_beyond_int64",
        "hidden_dim_beyond_int64"])
def test_out_of_range_leaf_exits_one_before_any_stage(tmp_path, raw):
    # Each of these used to resolve cleanly and fail only in a later stage
    # (or, for non-finite values, run on them), after the stages before it
    # had run. An integer too large for a float raised a raw OverflowError,
    # and an integer leaf beyond int64 a raw numpy error.
    with pytest.raises(ConfigError):
        resolve_config(raw)
    p = tmp_path / "config.json"
    p.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["gen-tasks", "--config", str(p), "--out", str(out)]) == 1
    assert not out.exists()


def test_integer_literal_too_long_to_parse_exits_one_naming_the_file(tmp_path, capsys):
    # json.loads refuses an integer literal of more than 4300 digits with a
    # plain ValueError, which used to end in a traceback.
    p = tmp_path / "big.json"
    p.write_text('{"train": {"steps": 1' + "0" * 5000 + '}}')
    out = tmp_path / "out"
    assert main(["gen-tasks", "--config", str(p), "--out", str(out)]) == 1
    assert str(p) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section, leaf, value", [
    ("analysis", "resolution", 10**30),
    ("suite", "samples_per_split", 10**30),
    ("train", "steps", 2**63),
    ("train", "batch_size", -2**63 - 1),
    ("model", "hidden_dims", [8, 2**63]),
], ids=["resolution", "samples_per_split", "steps_2_63", "batch_size_below_int64", "hidden_dims_item"])
def test_integer_leaf_beyond_int64_names_the_leaf(section, leaf, value):
    with pytest.raises(ConfigError, match=f"^{section}\\.{leaf} = .* 64-bit integer"):
        resolve_config({section: {leaf: value}})


def test_int64_bounds_resolve():
    resolved = resolve_config({"train": {"steps": 2**63 - 1}})
    assert resolved["train"]["steps"] == 2**63 - 1


def test_zero_rates_and_largest_rank_resolve():
    resolved = resolve_config({"train": {"learning_rate": 0},
                               "train_overrides": {"lora": {"learning_rate": 0.0}},
                               "fusion": {"lorahub_alpha": 0.0},
                               "model": {"lora_rank": 3}})
    assert resolved["model"]["lora_rank"] == 3


def test_boundary_leaves_resolve():
    resolved = resolve_config({"fusion": {"ties_k_grid": [1.0]},
                               "analysis": {"resolution": 2, "lambda_min": -0.5,
                                            "lambda_max": -0.25},
                               "suite": {"n_tasks": 2}})
    assert resolved["fusion"]["ties_k_grid"] == [1.0]


@pytest.mark.parametrize("raw", [
    {"fusion": {"fewshot_per_task": -1}},
    {"fusion": {"fewshot_per_task": 0}},
    {"fusion": {"lorahub_max_steps": -50}},
    {"train": {"steps": 0}},
    {"train": {"batch_size": 0}},
    {"train": {"optimizer": "sgdx"}},
    {"train": {"beta1": 1.0}},
    {"train": {"beta2": 1.5}},
    {"train": {"beta1": -0.1}},
    {"train_overrides": {"lora": {"steps": 0}}},
    {"train_overrides": {"full_linear": {"optimizer": "rmsprop"}}},
    {"train_overrides": {"l_lora": {"beta2": 1.0}}},
    {"analysis": {"ntk_max_samples": 0}},
    {"train": {"eps": -1.0}},
    {"train_overrides": {"lora": {"eps": 0.0}}},
    {"train": {"learning_rate": -1}, "train_overrides": {m.value: {} for m in ModeTag}},
], ids=["fewshot_per_task_negative", "fewshot_per_task_zero", "lorahub_max_steps_negative",
        "steps_zero", "batch_size_zero", "optimizer_unknown", "beta1_one", "beta2_above_one",
        "beta1_negative", "override_steps_zero", "override_optimizer_unknown",
        "override_beta2_one", "ntk_max_samples_zero", "eps_negative", "override_eps_zero",
        "train_read_by_no_mode"])
def test_count_and_choice_leaves_out_of_range_exit_one_before_any_stage(tmp_path, raw):
    # Each of these used to resolve cleanly, then fail in finetune, fuse or
    # analyze after the stages before had run, or run without an error: no
    # lorahub search at all for a negative lorahub_max_steps, and Adam
    # steps up the gradient for a negative eps.
    with pytest.raises(ConfigError):
        resolve_config(raw)
    p = tmp_path / "config.json"
    p.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["gen-tasks", "--config", str(p), "--out", str(out)]) == 1
    assert not out.exists()


def test_smallest_counts_and_betas_resolve():
    resolved = resolve_config({"train": {"steps": 1, "batch_size": 1, "optimizer": "sgd",
                                         "beta1": 0.0, "beta2": 0.0},
                               "fusion": {"fewshot_per_task": 1, "lorahub_max_steps": 0},
                               "analysis": {"ntk_max_samples": 1}})
    assert resolved["fusion"]["lorahub_max_steps"] == 0


@pytest.mark.parametrize("build", [
    lambda: TrainConfig(beta1=1.0),
    lambda: TrainConfig(beta2=1.5),
    lambda: TrainConfig(beta1=-0.1),
    lambda: TrainConfig(eps=0.0),
    lambda: TrainConfig(eps=-1.0),
    lambda: TrainConfig(learning_rate=math.nan),
    lambda: TrainConfig(learning_rate=math.inf),
    lambda: FusionConfig(ties_k_grid=(1.5,)),
    lambda: FusionConfig(ties_k_grid=(0.0,)),
    lambda: FusionConfig(lorahub_max_steps=-1),
    lambda: FusionConfig(lorahub_alpha=math.nan),
    lambda: ModelSpec(4, (6,), 3, lora_alpha=math.nan),
], ids=["beta1_one", "beta2_above_one", "beta1_negative", "eps_zero", "eps_negative",
        "learning_rate_nan", "learning_rate_inf", "ties_k_above_one", "ties_k_zero",
        "lorahub_max_steps_negative", "lorahub_alpha_nan", "lora_alpha_nan"])
def test_each_owner_rejects_what_the_config_rejects(build):
    # The config refused each of these, but the types took them: beta1 = 1
    # diverged at step 0, lorahub with -1 steps returned the pretrained
    # weights, and a NaN lorahub_alpha gave an infinite objective.
    with pytest.raises(ContractError):
        build()


# --- malformed run artifacts: exit 1 with an error naming the file ------------


@pytest.fixture
def run_copy(run_dir, tmp_path):
    """A private copy of the shared run, free to corrupt."""
    cfg, out = run_dir
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    return cfg, copy


def rewrite_checkpoint(path: Path, edit) -> None:
    payload = json.loads(path.read_text())
    del payload["digest"]
    edit(payload)
    payload["digest"] = canonical_digest(payload)
    path.write_text(json.dumps(payload))


def rewrite_task_row(path: Path, edit) -> None:
    """Edit the first data row and recompute the header's content_digest."""
    lines = path.read_text().splitlines()
    lines[3] = edit(lines[3])
    rows = lines[3:]
    digest = "sha256:" + hashlib.sha256("".join(r + "\n" for r in rows).encode()).hexdigest()
    lines[1] = " ".join(f"content_digest={digest}" if part.startswith("content_digest=") else part
                        for part in lines[1].split(" "))
    path.write_text("\n".join(lines) + "\n")


def truncate(path: Path) -> None:
    text = path.read_text()
    path.write_text(text[: len(text) // 2])


def set_field(key, value):
    """A corruption that sets one field of a JSON object file."""
    def corrupt(path: Path) -> None:
        record = json.loads(path.read_text())
        record[key] = value
        path.write_text(json.dumps(record))
    return corrupt


def rewrite_trees(edit, trees=("initial", "trained")):
    """A corruption that applies ``edit`` to the named trees of a checkpoint."""
    def corrupt(path: Path) -> None:
        rewrite_checkpoint(path, lambda payload: [edit(payload[tree]) for tree in trees])
    return corrupt


def swap_first_two_paths(tree: dict) -> None:
    for key in ("paths", "shapes"):
        tree[key][0], tree[key][1] = tree[key][1], tree[key][0]


def drop_last_path(tree: dict) -> None:
    size = int(np.prod(tree["shapes"][-1]))
    data = base64.b64decode(tree["data"])[: -8 * size]
    tree.update(paths=tree["paths"][:-1], shapes=tree["shapes"][:-1],
                data=base64.b64encode(data).decode())


def duplicate_first_path(tree: dict) -> None:
    tree["paths"][1] = tree["paths"][0]


def fuse_one_pair(cfg, out) -> int:
    return main(["fuse", "--config", str(cfg), "--out", str(out), "--algorithm",
                 "simple_average", "--subset", "task0,task1", "--mode", "full_ft"])


@pytest.mark.parametrize("corrupt", [
    truncate,
    lambda p: p.write_text("[1, 2]"),
    lambda p: rewrite_checkpoint(p, lambda payload: payload.pop("spec")),
    lambda p: rewrite_checkpoint(p, lambda payload: payload["trained"].update(
        data=base64.b64encode(np.full(len(base64.b64decode(payload["trained"]["data"])) // 8,
                                      np.nan).tobytes()).decode())),
    rewrite_trees(swap_first_two_paths),
    rewrite_trees(drop_last_path),
    rewrite_trees(drop_last_path, trees=("trained",)),
    rewrite_trees(duplicate_first_path),
], ids=["truncated", "not_an_object", "key_missing_digest_recomputed",
        "non_finite_value_digest_recomputed", "paths_swapped", "last_path_dropped",
        "last_trained_path_dropped", "path_duplicated"])
def test_malformed_checkpoint_exits_one_naming_the_file(run_copy, capsys, corrupt):
    # A truncated file used to raise a raw JSONDecodeError, a non-object an
    # AttributeError and a missing key a KeyError.
    cfg, out = run_copy
    path = out / "checkpoints/full_ft/task0.json"
    corrupt(path)
    capsys.readouterr()
    assert fuse_one_pair(cfg, out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


def test_checkpoint_with_swapped_paths_fails_similarity_naming_the_file(run_copy, capsys):
    # Bias values read as weights used to give a similarity CSV and exit 0.
    cfg, out = run_copy
    path = out / "checkpoints/full_ft/task0.json"
    rewrite_trees(swap_first_two_paths)(path)
    capsys.readouterr()
    assert main(["analyze", "similarity", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


@pytest.mark.parametrize("edit", [
    lambda row: "holdout," + row.split(",", 1)[1],
    lambda row: row + ",0.5",
    lambda row: row.rsplit(",", 1)[0],
    lambda row: "{0},one,{2}".format(*row.split(",", 2)),
    lambda row: "{0},-1,{2}".format(*row.split(",", 2)),
    lambda row: row.replace(",", ",x", 3).replace(",x", ",", 2),
    lambda row: "{0},3,{2}".format(*row.split(",", 2)),
], ids=["unknown_split", "extra_column", "missing_column", "non_numeric_label",
        "negative_label", "non_numeric_feature", "label_outside_the_classes"])
def test_malformed_task_row_exits_one_naming_the_file(run_copy, capsys, edit):
    # Rows that match a recomputed content_digest used to raise a KeyError
    # (unknown split) or a ValueError (column count, label); a label past the
    # classes was accepted.
    cfg, out = run_copy
    path = out / "tasks/task0.csv"
    rewrite_task_row(path, edit)
    capsys.readouterr()
    assert fuse_one_pair(cfg, out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


def test_task_header_num_classes_other_than_the_config_exits_one(run_copy, capsys):
    # A header that disagreed with suite.num_classes used to be accepted.
    cfg, out = run_copy
    path = out / "tasks/task0.csv"
    path.write_text(path.read_text().replace(" num_classes=3 ", " num_classes=4 ", 1))
    capsys.readouterr()
    assert fuse_one_pair(cfg, out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and "num_classes 4" in err


def drop_last_feature(input_dim: str | None = None):
    """A corruption that drops the last feature from the column line and every
    row, recomputes the content_digest and, if given, rewrites input_dim."""
    def corrupt(path: Path) -> None:
        lines = path.read_text().splitlines()
        lines[2:] = [line.rsplit(",", 1)[0] for line in lines[2:]]
        digest = "sha256:" + hashlib.sha256("".join(r + "\n" for r in lines[3:]).encode()).hexdigest()
        fields = {"content_digest": digest}
        if input_dim is not None:
            fields["input_dim"] = input_dim
        parts = [part.partition("=") for part in lines[1].split(" ")]
        lines[1] = " ".join(f"{key}={fields[key]}" if key in fields else key + eq + value
                            for key, eq, value in parts)
        path.write_text("\n".join(lines) + "\n")
    return corrupt


def replace_in_header(old: str, new: str):
    def corrupt(path: Path) -> None:
        path.write_text(path.read_text().replace(old, new, 1))
    return corrupt


@pytest.mark.parametrize("corrupt, named", [
    (replace_in_header(" task_id=task0 ", " task_id=task1 "), "task_id task1"),
    (replace_in_header(" input_dim=16 ", " input_dim=12 "), "input_dim 12"),
    (drop_last_feature(), "15 features"),
    (drop_last_feature(input_dim="15"), "input_dim 15"),
], ids=["task_id_of_another_task", "input_dim_in_header_only", "dropped_feature_column",
        "dropped_feature_column_and_input_dim"])
def test_task_header_disagreeing_with_its_file_or_the_config_exits_one(run_copy, capsys, corrupt, named):
    # A task0 file whose header named task1 was trained and saved as task1,
    # a header-only input_dim was accepted, and a dropped feature column
    # failed on the input batch shape without naming the file.
    cfg, out = run_copy
    path = out / "tasks/task0.csv"
    corrupt(path)
    capsys.readouterr()
    assert fuse_one_pair(cfg, out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and named in err


@pytest.mark.parametrize("corrupt", [
    truncate,
    lambda p: p.write_text('"provenance"'),
    set_field("mean_normalized_score", None),
    set_field("mean_normalized_score", True),
    set_field("subset", "task0+task1"),
], ids=["truncated", "not_an_object", "score_null", "score_a_bool", "subset_a_string"])
def test_malformed_provenance_exits_one_naming_the_file(run_copy, capsys, corrupt):
    # A null score used to raise a raw TypeError; a true score counted as 1.0
    # and a string subset as an 11-task subset, and report exited 0.
    cfg, out = run_copy
    path = out / "fusion/task_arithmetic/lora/task0+task1.provenance.json"
    corrupt(path)
    capsys.readouterr()
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


def test_truncated_resolved_config_exits_one_naming_the_file(run_copy, capsys):
    cfg, out = run_copy
    truncate(out / "resolved_config.json")
    capsys.readouterr()
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out / "resolved_config.json") in err


# --- malformed task-id arguments: exit 1 naming the id, nothing written -------


def file_tree(root: Path) -> dict:
    return {str(f.relative_to(root)): f.read_bytes() for f in sorted(root.rglob("*")) if f.is_file()}


@pytest.mark.parametrize("kind, mode", [("landscape", "full_ft"), ("disentangle", "lora")])
def test_a_grid_too_large_to_allocate_exits_one_writing_nothing(tmp_path, capsys, kind, mode):
    # 10**18 fits in int64, so the config resolves; numpy's MemoryError from
    # grid_axis used to end in a traceback.
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"suite": {"samples_per_split": 16}, "model": {"hidden_dims": [4]},
                               "train": {"steps": 4}, "analysis": {"resolution": 10**18}}))
    common = ["--config", str(cfg), "--out", str(tmp_path / "out")]
    assert main(["gen-tasks", *common]) == 0
    assert main(["finetune", "--mode", mode, *common]) == 0
    before = file_tree(tmp_path / "out")
    capsys.readouterr()
    assert main(["analyze", kind, *common]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert file_tree(tmp_path / "out") == before


@pytest.mark.parametrize("argv, named", [
    (["fuse", "--algorithm", "simple_average", "--subset", "task0,task9"], "task9"),
    (["fuse", "--algorithm", "simple_average", "--subset", "task0,task0"], "task0"),
    (["fuse", "--algorithm", "simple_average", "--subset", "task0"], "task0"),
    (["analyze", "disentangle", "--pair", "task0,task9"], "task9"),
    (["analyze", "landscape", "--pair", "task0,task0"], "task0"),
    (["analyze", "ntk", "--task", "task9"], "task9"),
    (["finetune", "--task", "task0", "--task", "task0"], "task0"),
    (["finetune", "--task", "task9"], "task9"),
    (["finetune", "--mode", "full_ft", "--mode", "full_ft"], "full_ft"),
    (["fuse", "--algorithm", "simple_average", "--all-subsets", "--mode", "full_ft", "--mode", "full_ft"],
     "full_ft"),
    (["analyze", "similarity", "--mode", "full_ft", "--mode", "full_ft"], "full_ft"),
], ids=["fuse_unknown", "fuse_repeated", "fuse_single", "disentangle_unknown",
        "landscape_repeated", "ntk_unknown", "finetune_repeated", "finetune_unknown",
        "finetune_mode_repeated", "fuse_mode_repeated", "similarity_mode_repeated"])
def test_malformed_task_ids_exit_one_before_any_artifact(run_copy, capsys, argv, named):
    # Unknown ids used to raise a KeyError; a repeated or single id merged or
    # analysed a degenerate set and wrote it.
    cfg, out = run_copy
    before = file_tree(out)
    capsys.readouterr()
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(named) in err
    assert file_tree(out) == before


@pytest.mark.parametrize("argv, flag", [
    (["analyze", "landscape", "--mode", "lora"], "--mode"),
    (["analyze", "landscape", "--task", "task2"], "--task"),
    (["analyze", "similarity", "--pair", "task0,task1"], "--pair"),
    (["analyze", "ntk", "--pair", "task0,task1"], "--pair"),
    (["analyze", "disentangle", "--task", "task1"], "--task"),
], ids=["landscape_mode", "landscape_task", "similarity_pair", "ntk_pair", "disentangle_task"])
def test_analyze_flag_the_kind_does_not_read_exits_one(run_copy, capsys, argv, flag):
    # Each of these used to be ignored: the analysis ran on its defaults and exited 0.
    cfg, out = run_copy
    before = file_tree(out)
    capsys.readouterr()
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err
    assert file_tree(out) == before


@pytest.mark.parametrize("argv, flag", [
    (["fuse", "--algorithm", "lorahub", "--algorithm", "simple_average", "--all-subsets"],
     "--algorithm"),
    (["fuse", "--algorithm", "simple_average", "--subset", "task0,task1", "--subset", "task2,task3"],
     "--subset"),
    (["analyze", "ntk", "--task", "task0", "--task", "task1"], "--task"),
    (["analyze", "disentangle", "--pair", "task0,task1", "--pair", "task2,task3"], "--pair"),
    (["report", "--seed", "1", "--seed", "2"], "--seed"),
    (["report", "--out", "elsewhere"], "--out"),
    (["report", "--config", "other.json"], "--config"),
], ids=["algorithm", "subset", "ntk_task", "pair", "seed", "out", "config"])
def test_single_value_flag_given_twice_exits_one(run_copy, capsys, argv, flag):
    # Each of these used to keep the flag's last value and run on it.
    cfg, out = run_copy
    before = file_tree(out)
    capsys.readouterr()
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: {flag} given more than once" in err
    assert file_tree(out) == before
