"""Self-test of the benchmark harness.

Run from the repository root:  python3 -m pytest perfbench/test_harness.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.use_checkout_source()

import fuselab  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.CHECKOUT / "BENCHMARK.json").read_text())


def fuselab_bindings() -> dict:
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "fuselab" or name.startswith("fuselab.")
        for attr, value in vars(module).items()
    }


def assert_restored(before: dict) -> None:
    after = fuselab_bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_small_traced_counts_match_closed_forms(tmp_path):
    before = fuselab_bindings()
    ops = workloads.Ops()
    small = workloads.Small(seed=3, ops=ops)
    rep_dir = tmp_path / "rep"
    small.setup(rep_dir, 0)
    with tracer.Tracer() as t:
        small.run(rep_dir, 0)
    small.check(rep_dir, 0)
    assert ops.problems == []
    assert_restored(before)

    m = t.metrics()
    # 4 modes x 4 tasks x (40 steps + final train loss), plus one in the ntk check
    assert m["training.batch_loss_and_grad.calls"] == 16 * 41 + 1
    assert m["training._accuracy_from_flat.calls"] == 16 * 40
    # 4 algorithms x 4 modes x 11 subsets; candidates 1 + 3 (lambda grid) + 16 (ties) + 1
    assert m["fusion.sweep_and_select.calls"] == 176
    assert m["fusion.candidates_scored"] == 44 * (1 + 3 + 16 + 1)
    assert m["cli.main.calls"] == 11
    for name in tracer.FUNCTIONS:
        assert 0.0 <= m[f"{name}.self_s"] <= m[f"{name}.s"]


def test_every_alias_is_wrapped_and_restored_after_an_error():
    before = fuselab_bindings()
    aliases = [("fuselab.analysis", "batch_loss_and_grad"), ("fuselab.pipeline", "finetune"),
               ("fuselab.fusion", "predict_logits"), ("fuselab", "finetune"),
               ("fuselab.training", "finetune")]
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            for module, attr in aliases:
                assert getattr(sys.modules[module], attr) is not before[(module, attr)]
            raise RuntimeError("inside the traced block")
    assert_restored(before)
    assert fuselab.finetune is fuselab.training.finetune


def benchmark_result(*args: str, cwd: Path = run.CHECKOUT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_reports_every_declared_metric(trace, section):
    done = benchmark_result("--workload", "small", "--seed", "5", "--seconds", "0.1",
                            "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 11
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_declared_per_layer_metrics_are_the_tracer_metrics():
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracer.metric_units()


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(run.CHECKOUT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.CHECKOUT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = benchmark_result("--workload", "small", "--seed", "1", "--seconds", "1",
                            "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
