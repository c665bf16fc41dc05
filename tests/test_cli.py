"""CLI subcommands, file flows, digests, and end-to-end determinism."""

import base64
import functools
import hashlib
import inspect
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fuselab
from fuselab.analysis import AnalysisConfig, read_grid_csv
from fuselab.checkpoints import load_checkpoint
from fuselab import config, pipeline
from fuselab.cli import main
from fuselab.config import config_digest, load_config, resolve_config
from fuselab.errors import ConfigError, ContractError
from fuselab.files import canonical_digest
from fuselab.fusion import FusionConfig, replay_merge
from fuselab.models import ModeTag, ModelSpec, build_model
from fuselab.pipeline import load_mode_checkpoints, load_tasks
from fuselab.tasks import make_task_suite
from fuselab.training import TrainConfig
from test_training import checkpoint_accuracy

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
        fresh_tasks = {t.id: t for t in fresh.tasks}
        cks = load_mode_checkpoints(resolved, out, ModeTag.LORA)
        for ck in cks:
            from_file = checkpoint_accuracy(ck, tasks[ck.task_id].val)
            in_memory = checkpoint_accuracy(ck, fresh_tasks[ck.task_id].val)
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
            acc = checkpoint_accuracy(ck, tasks[ck.task_id].val)
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


KEPT, NOT_AN_OBJECT = object(), object()


@pytest.mark.parametrize("algorithm, hyperparameters, task_ids, named", [
    ("task_arithmetic", {}, KEPT, "lambda"),
    ("task_arithmetic", {"lambda": "0.5"}, KEPT, "lambda"),
    ("ties_merging", {"lambda": 0.5}, KEPT, "k"),
    ("lorahub", {"weights": {"task0": 0.5}}, KEPT, "task1"),
    ("lorahub", {"weights": {"task0": 0.5, "task1": "0.5"}}, KEPT, "task1"),
    ("task_arithmetic", {"lambda": 0.5}, ["task0", "task0"], "task_ids"),
    ("task_arithmetic", {"lambda": 0.5}, None, "task_ids"),
    ("task_arithmetic", {"lambda": 0.5}, [["task0"]], "task_ids"),
    ("task_arithmetic", {"lambda": 0.5}, "task0", "task_ids"),
    ("task_arithmetic", {"lambda": 0.5}, [], "task_ids"),
    ("task_arithmetic", {"lambda": 0.5}, ["task0", "task9"], "task_ids"),
    ("task_arithmetic", {"lambda": 0.5}, NOT_AN_OBJECT, "task_ids"),
], ids=["lambda_missing", "lambda_string", "k_missing", "weight_missing", "weight_string",
        "task_ids_repeated", "task_ids_missing", "task_ids_nested", "task_ids_string",
        "task_ids_empty", "task_ids_unknown", "record_a_list"])
def test_replay_reads_each_recorded_hyperparameter_by_exact_kind(run_dir, algorithm, hyperparameters,
                                                                 task_ids, named):
    # Each field the replay reads must be recorded with its exact kind, or the
    # error names it: a coerced string lambda, a repeated task id (which
    # counts its vector twice) or a string task_ids (read character by
    # character) would replay a merge that was never made.
    cfg, out = run_dir
    resolved = load_config(cfg)
    record = json.loads((out / "fusion/task_arithmetic/lora/task0+task1.provenance.json").read_text())
    record.update(algorithm=algorithm, hyperparameters=hyperparameters)
    if task_ids is None:
        del record["task_ids"]
    elif task_ids is NOT_AN_OBJECT:
        record = [record]
    elif task_ids is not KEPT:
        record["task_ids"] = task_ids
    with pytest.raises(ContractError, match=repr(named)):
        replay_merge(record, load_mode_checkpoints(resolved, out, ModeTag.LORA))


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
            algo, mode, size, n, mean, std, mean_abs, std_abs, single = line.split(",")
            group = [r for r in rows if r["algorithm"] == algo and r["mode"] == mode
                     and (size == "all" or len(r["subset"]) == int(size))]
            normalized = [r["mean_normalized_score"] for r in group]
            absolute = [np.mean([r["test_scores"][t] for t in r["subset"]]) for r in group]
            assert int(n) == len(group)
            assert abs(float(mean) - np.mean(normalized)) < 1e-12
            assert abs(float(std) - np.std(normalized)) < 1e-12
            assert abs(float(mean_abs) - np.mean(absolute)) < 1e-12
            assert abs(float(std_abs) - np.std(absolute)) < 1e-12
            assert abs(float(single) - np.mean([np.mean([r["single_task_test_scores"][t] for t in r["subset"]])
                                                for r in group])) < 1e-12


class TestConfigHandling:
    def test_unknown_keys_rejected(self, tmp_path, capsys):
        # out_dir used to be accepted with any value and ignored; --out names the run directory.
        for key in ("sweet", "out_dir"):
            p = tmp_path / "bad.json"
            p.write_text(json.dumps({key: 1}))
            assert main(["gen-tasks", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1 and repr(key) in err

    def test_defaults_are_their_owners_signature_defaults(self):
        def defaults(owner):
            return {name: p.default for name, p in inspect.signature(owner).parameters.items()}

        resolved = resolve_config({})
        suite = defaults(make_task_suite)
        del suite["seed"]
        assert resolved["suite"] == suite
        spec = defaults(ModelSpec)
        for key in ("lora_rank", "lora_alpha"):
            assert resolved["model"][key] == spec[key], key
        assert resolved["analysis"] == defaults(AnalysisConfig)

    def test_every_leaf_reaches_its_owner(self):
        # A field added to an owner used to resolve and then be dropped by a
        # field list in config or pipeline; each leaf is now passed by name.
        given = {
            "suite": {"n_tasks": 3, "input_dim": 5, "num_classes": 4, "samples_per_split": 24,
                      "task_overlap": 0.5},
            "model": {"hidden_dims": [6, 7], "lora_rank": 3, "lora_alpha": 1.5},
            "train": {"steps": 9, "batch_size": 5, "learning_rate": 0.25, "optimizer": "sgd",
                      "beta1": 0.5, "beta2": 0.75, "eps": 1e-6},
            "fusion": {"lambda_grid": [0.5], "ties_k_grid": [0.25], "ties_lambda_grid": [1.5],
                       "lorahub_alpha": 0.5, "lorahub_max_steps": 3, "fewshot_per_task": 5},
            "analysis": {"lambda_min": 0.5, "lambda_max": 1.5, "resolution": 3, "ntk_eta": 0.25,
                         "ntk_max_samples": 7},
        }
        override = {"steps": 11, "batch_size": 3, "learning_rate": 0.125, "optimizer": "sgd",
                    "beta1": 0.25, "beta2": 0.5, "eps": 1e-4}
        defaults = resolve_config({})
        for section, leaves in [*given.items(), ("train", override)]:
            assert set(leaves) == set(defaults[section]), section
            assert all(v != defaults[section][k] for k, v in leaves.items()), section
        resolved = resolve_config({**given, "train_overrides": {"l_lora": override}})

        def carried(built, leaves):
            return all(getattr(built, k) == (tuple(v) if isinstance(v, list) else v)
                       for k, v in leaves.items())

        suite = config.task_suite(resolved)
        assert (len(suite.tasks), suite.input_dim, suite.num_classes, len(suite.tasks[0].train),
                suite.task_overlap) == tuple(given["suite"].values())
        assert suite.seed == resolved["derived_seeds"]["suite"]
        spec = config.model_spec(resolved, "lora")
        assert carried(spec, given["model"]) and (spec.input_dim, spec.num_classes) == (5, 4)
        assert carried(config.train_config(resolved, "lora", "task0"), given["train"])
        assert carried(config.train_config(resolved, "l_lora", "task0"), override)
        assert carried(config.fusion_config(resolved, "lorahub"), given["fusion"])
        assert carried(config.analysis_config(resolved), given["analysis"])

    def test_int_valued_float_leaves_keep_their_float_kind(self, tmp_path):
        # Each leaf is cast to its default's kind on the way to its owner.
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"suite": {"samples_per_split": 16, "task_overlap": 1},
                                   "model": {"hidden_dims": [4], "lora_alpha": 3},
                                   "train": {"steps": 4}}))
        common = ["--config", str(cfg), "--out", str(tmp_path / "out")]
        assert main(["gen-tasks", *common]) == 0
        assert main(["finetune", "--mode", "lora", "--task", "task0", *common]) == 0
        header = (tmp_path / "out/tasks/task0.csv").read_text().splitlines()[1].split(" ")
        assert "task_overlap=1.0" in header
        assert '"lora_alpha": 3.0' in (tmp_path / "out/checkpoints/lora/task0.json").read_text()
        alpha = config.fusion_config(resolve_config({"fusion": {"lorahub_alpha": 0}}), "lorahub").lorahub_alpha
        assert type(alpha) is float and alpha == 0.0

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


def test_non_finite_ntk_check_exits_two_writing_no_csv(tmp_path):
    # The arrays stay finite while their norms overflow; the check used to
    # exit 0 and write relative_error nan with both norms inf, and then to
    # print numpy's overflow warnings before its one line. A subprocess,
    # since pytest captures warnings.
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"suite": {"samples_per_split": 16}, "model": {"hidden_dims": [4]},
                               "train": {"steps": 4}, "analysis": {"ntk_eta": 1e300}}))
    out = tmp_path / "out"
    common = ["--config", str(cfg), "--out", str(out)]
    assert main(["gen-tasks", *common]) == 0
    assert main(["finetune", "--mode", "l_lora", *common]) == 0
    run = subprocess.run([sys.executable, "-m", "fuselab.cli", "analyze", "ntk", *common], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(Path(fuselab.__file__).parents[1])})
    assert run.returncode == 2
    assert run.stderr.startswith("numeric failure: ") and run.stderr.count("\n") == 1, run.stderr
    assert list(out.rglob("ntk_*.csv")) == []


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
    {"analysis": {"ntk_eta": 0.0}},
    {"analysis": {"ntk_eta": -1.0}},
], ids=["empty_lambda_grid", "empty_ties_k_grid", "empty_ties_lambda_grid", "ties_k_above_one",
        "ties_k_zero", "ties_k_negative", "resolution_one", "lambda_range_empty",
        "lambda_range_reversed", "one_task", "learning_rate_1e400", "learning_rate_nan",
        "lorahub_alpha_infinity", "lambda_grid_item_minus_infinity", "ntk_eta_nan",
        "learning_rate_negative", "override_learning_rate_negative", "lorahub_alpha_negative",
        "lora_rank_above_num_classes", "task_overlap_above_one", "task_overlap_negative",
        "samples_per_split_below_num_classes", "learning_rate_integer_overflow",
        "lora_alpha_integer_overflow", "resolution_beyond_int64", "samples_per_split_beyond_int64",
        "hidden_dim_beyond_int64", "ntk_eta_zero", "ntk_eta_negative"])
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


def test_a_config_path_naming_a_directory_exits_one_naming_it(tmp_path, capsys):
    # read_text's IsADirectoryError used to end in a traceback.
    conf = tmp_path / "conf"
    conf.mkdir()
    out = tmp_path / "out"
    assert main(["gen-tasks", "--config", str(conf), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(conf) in err
    assert not out.exists()


@pytest.mark.parametrize("out", ["taken", "taken/run"], ids=["a_file", "under_a_file"])
def test_an_out_path_that_cannot_be_a_directory_exits_one_naming_it(tmp_path, capsys, out):
    # mkdir's FileExistsError or NotADirectoryError used to end in a traceback.
    cfg = write_config(tmp_path)
    (tmp_path / "taken").write_text("kept\n")
    before = file_tree(tmp_path)
    assert main(["gen-tasks", "--config", str(cfg), "--out", str(tmp_path / out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(tmp_path / out) in err
    assert file_tree(tmp_path) == before


@pytest.mark.parametrize("command, entry, make", [
    ("gen-tasks", "resolved_config.json", "dir"),
    ("gen-tasks", "tasks/task0.csv", "dir"),
    ("finetune", "tasks/task0.csv", "dir"),
    ("gen-tasks", "tasks", "file"),
], ids=["gen_tasks_resolved_config", "gen_tasks_task_file", "finetune_task_file", "gen_tasks_task_dir"])
def test_a_run_entry_of_the_wrong_kind_exits_one_naming_it(tmp_path, capsys, command, entry, make):
    # read_bytes' and os.replace's IsADirectoryError, and mkdir's
    # FileExistsError, used to end in a traceback.
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    if command == "finetune":
        assert main(["gen-tasks", "--config", str(cfg), "--out", str(out)]) == 0
        (out / entry).unlink()
    if make == "dir":
        (out / entry).mkdir(parents=True)
    else:
        out.mkdir()
        (out / entry).write_text("")
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(out / entry) in err
    assert [p for p in out.rglob("*") if p.name.endswith(".tmp")] == []
    assert not (out / "checkpoints").exists()


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
    lambda: TrainConfig(steps=1.5),
    lambda: TrainConfig(batch_size=2.5),
    lambda: TrainConfig(shuffle_seed=True),
    lambda: FusionConfig(lorahub_max_steps=1.5),
    lambda: FusionConfig(fewshot_per_task=1.5),
    lambda: FusionConfig(lambda_grid=("a",)),
    lambda: AnalysisConfig(resolution=3.5),
    lambda: ModelSpec(16, (12,), 3, lora_rank=True, mode=ModeTag.LORA),
    lambda: ModelSpec(16.0, (32,), 3),
    lambda: ModelSpec(16, (32.0,), 3),
], ids=["beta1_one", "beta2_above_one", "beta1_negative", "eps_zero", "eps_negative",
        "learning_rate_nan", "learning_rate_inf", "ties_k_above_one", "ties_k_zero",
        "lorahub_max_steps_negative", "lorahub_alpha_nan", "lora_alpha_nan",
        "steps_float", "batch_size_float", "shuffle_seed_bool", "lorahub_max_steps_float",
        "fewshot_per_task_float", "lambda_grid_string", "resolution_float", "lora_rank_bool",
        "input_dim_float", "hidden_dim_float"])
def test_each_owner_rejects_what_the_config_rejects(build):
    # The config refused each of these, but the types took them: beta1 = 1
    # diverged at step 0, lorahub with -1 steps returned the pretrained
    # weights, and a NaN lorahub_alpha gave an infinite objective. A count
    # of the wrong kind failed later with a raw TypeError from range, a
    # slice, grid_axis or numpy.
    with pytest.raises(ContractError):
        build()


def test_owner_kind_errors_name_the_field():
    for build, field in [(lambda: TrainConfig(steps=1.5), "steps"),
                         (lambda: FusionConfig(lambda_grid=("a",)), "lambda_grid"),
                         (lambda: AnalysisConfig(resolution=3.5), "resolution"),
                         (lambda: ModelSpec(16.0, (32,), 3), "input_dim")]:
        with pytest.raises(ContractError, match=f"^{field} = .* does not have the kind of"):
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


def copy_from(relative: str):
    """A corruption that overwrites a file with the run's file at ``relative`` to its directory."""
    def corrupt(path: Path) -> None:
        shutil.copy(path.parent / relative, path)
    return corrupt


def rewrite_trees(edit):
    """A corruption that applies ``edit`` to the trained tree of a checkpoint."""
    def corrupt(path: Path) -> None:
        rewrite_checkpoint(path, lambda payload: edit(payload["trained"]))
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
    rewrite_trees(duplicate_first_path),
], ids=["truncated", "not_an_object", "key_missing_digest_recomputed",
        "non_finite_value_digest_recomputed", "paths_swapped", "last_path_dropped",
        "path_duplicated"])
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


def as_version_one(payload: dict) -> None:
    """The format before version 2: the initial tree stored beside the trained one, no digest of it."""
    initial = build_model(ModelSpec.from_dict(payload["spec"]), payload["seed"])[1]
    del payload["initial_digest"]
    payload.update(version=1, initial={**payload["trained"], "data": base64.b64encode(
        initial.flatten().astype("<f8").tobytes()).decode()})


def set_spec(key, value):
    """A checkpoint edit setting its spec's ``key`` to ``value(old)``, or removing it on None."""
    def edit(payload: dict) -> None:
        new = value(payload["spec"].pop(key, None))
        if new is not None:
            payload["spec"][key] = new
    return edit


@pytest.mark.parametrize("edit, field", [
    (set_spec("lora_rank", lambda rank: rank + 0.9), "lora_rank"),
    (set_spec("lora_alpha", str), "lora_alpha"),
    (set_spec("hidden_dims", lambda dims: [d + 0.5 for d in dims]), "hidden_dims"),
    (set_spec("input_dim", lambda dim: True), "input_dim"),
    (set_spec("lora_rank", lambda rank: None), "lora_rank"),
    (set_spec("sigma_b", lambda missing: 0.04), "sigma_b"),
    (set_spec("mode", lambda mode: "tangent"), "ModeTag"),
    (lambda payload: payload.update(seed=float(payload["seed"])), "seed"),
    (lambda payload: payload.update(seed=-1), "seed"),
    (lambda payload: payload["metrics"].update(final_val_accuracy="high"), "metrics.final_val_accuracy"),
    (lambda payload: payload.update(metrics=[["a", 1]]), "metrics"),
    (lambda payload: payload.update(version=True), "version"),
    (lambda payload: payload.update(version=1.0), "version"),
    (lambda payload: payload.update(mode="full_ft"), "mode"),
    (lambda payload: payload.update(initial_digest=payload["theta0_digest"]), "initial_digest"),
    (as_version_one, "version"),
], ids=["lora_rank_float", "lora_alpha_string", "hidden_dim_float", "input_dim_bool", "key_missing",
        "key_extra", "mode_unknown", "seed_float", "seed_negative", "metric_string", "metrics_a_list",
        "version_true", "version_float", "mode_contradicts_spec", "initial_digest_edited", "version_one"])
def test_a_checkpoint_field_of_the_wrong_kind_exits_one_naming_the_file_and_field(run_copy, capsys, edit, field):
    # The spec used to be cast field by field, so the first three loaded,
    # equalled the config's spec and exited 0; a negative seed raised a traceback.
    # A version of true or 1.0, a mode the spec contradicts and an edited
    # initial tree (stored until version 2) loaded too, the last giving
    # wrong task vectors.
    cfg, out = run_copy
    path = out / "checkpoints/lora/task0.json"
    rewrite_checkpoint(path, edit)
    capsys.readouterr()
    assert main(["analyze", "similarity", "--mode", "lora", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err and field in err


def copy_over(source: str):
    """A corruption that copies the checkpoint at ``source`` over the one at the path."""
    def corrupt(path: Path) -> None:
        shutil.copyfile(path.parents[1] / source, path)
    return corrupt


@pytest.mark.parametrize("slot, corrupt, argv", [
    ("full_ft/task0.json", copy_over("full_ft/task1.json"), ["analyze", "similarity", "--mode", "full_ft"]),
    ("full_ft/task0.json", copy_over("full_ft/task1.json"),
     ["fuse", "--algorithm", "simple_average", "--all-subsets", "--mode", "full_ft"]),
    ("l_lora/task0.json", lambda path: [shutil.copyfile(f, path.parent / f.name)
                                        for f in path.parents[1].glob("lora/*.json")],
     ["fuse", "--algorithm", "simple_average", "--all-subsets", "--mode", "l_lora"]),
], ids=["other_task_similarity", "other_task_fuse", "other_mode_fuse"])
def test_a_checkpoint_outside_its_slot_exits_one_naming_the_file(run_copy, capsys, slot, corrupt, argv):
    # Each checkpoint of the run used to be accepted wherever it was stored:
    # similarity wrote the header task_id,task1,task1,task2,task3, fuse merged
    # 4 subsets instead of 11, and l_lora fusions recorded "mode": "lora".
    cfg, out = run_copy
    path = out / "checkpoints" / slot
    corrupt(path)
    before = file_tree(out)
    capsys.readouterr()
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err
    assert file_tree(out) == before


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
    copy_from("../l_lora/task0+task1.provenance.json"),
    copy_from("task2+task3.provenance.json"),
    set_field("mode", "l_lora"),
    set_field("algorithm", "simple_average"),
    set_field("subset", ["task0", "task2"]),
    set_field("test_scores", {"task0": 0.5, "task1": "0.5"}),
    set_field("single_task_test_scores", {"task0": 0.5}),
], ids=["truncated", "not_an_object", "score_null", "score_a_bool", "subset_a_string",
        "copy_of_another_modes_record", "copy_of_another_subsets_record", "mode_of_another_slot",
        "algorithm_of_another_slot", "subset_of_another_slot", "test_score_a_string",
        "single_scores_missing_a_task"])
def test_malformed_provenance_exits_one_naming_the_file(run_copy, capsys, corrupt):
    # A null score used to raise a raw TypeError; a true score counted as 1.0
    # and a string subset as an 11-task subset, and report exited 0. A record
    # copied into another slot was counted under the mode and subset inside it.
    cfg, out = run_copy
    path = out / "fusion/task_arithmetic/lora/task0+task1.provenance.json"
    corrupt(path)
    capsys.readouterr()
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err


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
    (["analyze", "disentangle", "--pair", "task0,task1,task2"], "task0,task1,task2"),
    (["fuse", "--algorithm", "simple_average", "--subset", ""], ""),
    (["analyze", "landscape", "--pair", ""], ""),
], ids=["fuse_unknown", "fuse_repeated", "fuse_single", "disentangle_unknown",
        "landscape_repeated", "ntk_unknown", "finetune_repeated", "finetune_unknown",
        "finetune_mode_repeated", "fuse_mode_repeated", "similarity_mode_repeated",
        "disentangle_pair_of_three", "fuse_subset_empty", "landscape_pair_empty"])
def test_malformed_task_ids_exit_one_before_any_artifact(run_copy, capsys, argv, named):
    # Unknown ids used to raise a KeyError; a repeated or single id merged or
    # analysed a degenerate set and wrote it. An empty --subset merged every
    # subset and an empty --pair analysed the default pair.
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


# --- stage arguments: each stage checks and canonicalizes what it is given -----


@pytest.mark.parametrize("call, named", [
    (lambda r, out: pipeline.stage_finetune(r, out, modes=["lora", "bogus"]), "'bogus'"),
    (lambda r, out: pipeline.stage_finetune(r, out, modes=["lora", ModeTag.LORA]), "'lora'"),
    (lambda r, out: pipeline.stage_fuse(r, out, "simple_average", modes=[ModeTag.LORA, ModeTag.LORA]),
     "'lora'"),
    (lambda r, out: pipeline.stage_fuse(r, out, "simple_average",
                                        subsets=[("task0", "task1"), ("task1", "task0")]), "'task0,task1'"),
    (lambda r, out: pipeline.stage_fuse(r, out, "simple_average", subsets=[("task1", "task9")]), "'task9'"),
    (lambda r, out: pipeline.stage_analyze_similarity(r, out, modes=["tangent"]), "'tangent'"),
    (lambda r, out: pipeline.stage_analyze_disentangle(r, out, pairs=[("task0", "task1", "task2")]),
     "'task0,task1,task2'"),
    (lambda r, out: pipeline.stage_analyze_disentangle(r, out, pairs=[("task1", "task0")] * 2),
     "'task1,task0'"),
    (lambda r, out: pipeline.stage_analyze_landscape(r, out, pairs=[("task0",)]), "'task0'"),
    (lambda r, out: pipeline.stage_analyze_ntk(r, out, modes=["bogus"]), "'bogus'"),
    (lambda r, out: pipeline.stage_analyze_ntk(r, out, modes=[ModeTag.LLORA, ModeTag.FULL_FT], task_id="task1"),
     "not full_ft"),
], ids=["finetune_mode_unknown", "finetune_mode_repeated_as_its_value", "fuse_mode_repeated",
        "fuse_subset_repeated_in_another_order", "fuse_subset_unknown", "similarity_mode_unknown",
        "disentangle_pair_of_three", "disentangle_pair_repeated", "landscape_pair_of_one",
        "ntk_mode_unknown", "ntk_mode_not_linearized"])
def test_a_malformed_stage_argument_raises_config_error_changing_nothing(run_copy, call, named):
    # Called directly, mode strings raised AttributeError (finetune only after
    # training its first model), an unknown ntk mode a raw ValueError and a
    # pair of three an unpacking ValueError; a repeated mode or subset was
    # merged twice, and ntk wrote l_lora's task1 file before refusing full_ft.
    cfg, out = run_copy
    before = file_tree(out)
    with pytest.raises(ConfigError) as raised:
        call(load_config(cfg), out)
    assert named in str(raised.value)
    assert file_tree(out) == before


@pytest.mark.parametrize("stage", [
    lambda resolved, out, modes: pipeline.stage_finetune(resolved, out, modes=modes, task_ids=["task0"]),
    lambda resolved, out, modes: pipeline.stage_fuse(resolved, out, "lorahub", modes=modes,
                                                     subsets=[("task0", "task1")]),
    lambda resolved, out, modes: pipeline.stage_analyze_similarity(resolved, out, modes=modes),
    lambda resolved, out, modes: pipeline.stage_analyze_disentangle(resolved, out, modes=modes),
], ids=["finetune", "fuse", "similarity", "disentangle"])
def test_a_mode_given_by_its_value_writes_the_same_bytes(run_dir, tmp_path, stage):
    cfg, out = run_dir
    resolved = load_config(cfg)
    trees = []
    for modes in (["lora"], [ModeTag.LORA]):
        copy = tmp_path / str(len(trees))
        shutil.copytree(out, copy)
        assert stage(resolved, copy, modes)
        trees.append(file_tree(copy))
    assert trees[0] == trees[1]


def test_an_unsorted_subset_merges_as_the_sorted_one_and_counts_once(run_copy):
    # stage_fuse used to write task1+task0.* beside the CLI's task0+task1.*,
    # from few-shot seeds that depend on the order, and the report counted
    # that one merge twice.
    cfg, out = run_copy
    resolved = load_config(cfg)
    written = pipeline.stage_fuse(resolved, out, "lorahub", modes=["lora"], subsets=[("task1", "task0")])
    assert [f.name for f in written] == ["task0+task1.json", "task0+task1.provenance.json"]
    unsorted = file_tree(out)
    pipeline.stage_fuse(resolved, out, "lorahub", modes=[ModeTag.LORA], subsets=[("task0", "task1")])
    assert file_tree(out) == unsorted
    report, _ = pipeline.stage_report(resolved, out)
    counted = [r.n_subsets for r in report.rows if (r.algorithm, r.mode) == ("lorahub", "lora")]
    assert counted == [1, 1]  # all sizes, and size 2


def test_analyze_passes_each_flag_to_the_parameter_its_stage_declares(run_copy, monkeypatch, capsys):
    # cli.py used to keep its own table of the flags each kind reads, so a
    # parameter added to a stage stayed out of reach until that table changed.
    cfg, out = run_copy
    calls = []

    def landscape(resolved, out, pairs=None, modes=None):
        calls.append((pairs, modes))
        return []

    @functools.wraps(landscape)
    def traced(*args, **kwargs):  # as perfbench's tracer wraps a stage
        return landscape(*args, **kwargs)

    monkeypatch.setattr(pipeline, "stage_analyze_landscape", traced)
    common = ["--config", str(cfg), "--out", str(out)]
    assert main(["analyze", "landscape", "--mode", "lora", "--pair", "task1,task0", *common]) == 0
    assert calls == [([("task1", "task0")], ["lora"])]
    capsys.readouterr()
    assert main(["analyze", "landscape", "--task", "task0", *common]) == 1
    assert capsys.readouterr().err == "error: analyze landscape does not read --task\n"
    assert len(calls) == 1


# --- opening a run: only gen-tasks creates one, every other stage opens it once


READING_COMMANDS = [
    ["finetune"],
    ["fuse", "--algorithm", "task_arithmetic", "--all-subsets"],
    ["analyze", "similarity"],
    ["analyze", "disentangle"],
    ["analyze", "landscape"],
    ["analyze", "ntk"],
    ["report"],
]
READING_IDS = ["finetune", "fuse", "similarity", "disentangle", "landscape", "ntk", "report"]


@pytest.mark.parametrize("argv", READING_COMMANDS, ids=READING_IDS)
@pytest.mark.parametrize("made", [False, True], ids=["missing", "empty"])
def test_a_reading_stage_outside_a_run_exits_one_changing_nothing(tmp_path, capsys, argv, made):
    # Each of these used to create the directory and pin resolved_config.json
    # to its config before failing, so a later gen-tasks under another seed
    # exited 1 with "produced under a different configuration".
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    if made:
        out.mkdir()
    capsys.readouterr()
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and f"{out} holds no run" in err
    assert (list(out.iterdir()) == []) if made else not out.exists()
    assert main(["gen-tasks", "--config", str(cfg), "--out", str(out), "--seed", "5"]) == 0


def count_resolved_config_parses(monkeypatch) -> list:
    """Patch the pipeline's JSON reader; the returned list gains one entry per
    parse of a resolved_config.json."""
    parses, read = [], pipeline.read_json_object

    def counted(path, what):
        if Path(path).name == "resolved_config.json":
            parses.append(path)
        return read(path, what)

    monkeypatch.setattr(pipeline, "read_json_object", counted)
    return parses


@pytest.mark.parametrize("argv", [
    ["gen-tasks"],
    ["finetune", "--mode", "full_ft", "--task", "task0"],
    ["fuse", "--algorithm", "simple_average", "--all-subsets"],
    *READING_COMMANDS[2:],
], ids=["gen_tasks_existing", *READING_IDS])
def test_each_stage_parses_the_resolved_config_once(run_copy, monkeypatch, argv):
    # Every loader used to reopen the run: fuse parsed it 6 times,
    # similarity 5, disentangle 4, landscape and ntk 3 and finetune 2.
    cfg, out = run_copy
    parses = count_resolved_config_parses(monkeypatch)
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 0
    assert parses == [out / "resolved_config.json"]


def test_gen_tasks_on_a_fresh_directory_parses_no_resolved_config(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    parses = count_resolved_config_parses(monkeypatch)
    assert main(["gen-tasks", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert parses == []
