"""How often the network runs at the anchor of a tangent model, and how often
each JVP is taken, in one fuse stage and in one fine-tuning run."""

import hashlib
from collections import Counter

import numpy as np
import pytest

from fuselab.config import resolve_config
from fuselab.models import ModeTag, ModelSpec, Network
from fuselab.pipeline import load_tasks, stage_finetune, stage_fuse, stage_gen_tasks
from fuselab.tasks import make_task_suite
from fuselab.training import TrainConfig, finetune

CONFIG = {
    "master_seed": 3,
    "suite": {"n_tasks": 3, "samples_per_split": 24},
    "model": {"hidden_dims": [8]},
    "train": {"steps": 5},
    "fusion": {"lambda_grid": [0.0, 0.5, 1.0], "ties_k_grid": [0.5, 1.0],
               "ties_lambda_grid": [0.5, 1.0], "lorahub_max_steps": 4, "fewshot_per_task": 4},
}
LINEARIZED = [ModeTag.FULL_LINEAR, ModeTag.LLORA]


def key(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


class Calls:
    """Counts ``Network.activations`` per input batch and ``Network.jvp`` per
    (input batch, direction), keyed by content."""

    def __init__(self, monkeypatch):
        self.activations: Counter = Counter()
        self.jvps: Counter = Counter()
        activations, jvp = Network.activations, Network.jvp

        def counted_activations(net, flat, x):
            self.activations[key(x)] += 1
            return activations(net, flat, x)

        def counted_jvp(net, anchor, d, acts):
            self.jvps[key(acts[1][0]), key(d)] += 1  # acts[1][0]: the first layer's input, the rows
            return jvp(net, anchor, d, acts)

        monkeypatch.setattr(Network, "activations", counted_activations)
        monkeypatch.setattr(Network, "jvp", counted_jvp)

    def reset(self):
        self.activations.clear()
        self.jvps.clear()


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    resolved = resolve_config(CONFIG)
    stage_gen_tasks(resolved, out)
    stage_finetune(resolved, out, modes=LINEARIZED)
    return resolved, out


@pytest.mark.parametrize("algorithm", ["task_arithmetic", "lorahub"])
@pytest.mark.parametrize("mode", LINEARIZED)
def test_one_fuse_stage_runs_each_anchor_once_per_split(run_dir, monkeypatch, mode, algorithm):
    resolved, out = run_dir
    tasks = load_tasks(resolved, out)
    calls = Calls(monkeypatch)
    counts = []
    for _ in range(2):  # a second stage call repeats the counts: no scorer outlives a call
        calls.reset()
        stage_fuse(resolved, out, algorithm, modes=[mode])
        splits = {key(t.val.xs): "val" for t in tasks} | {key(t.test.xs): "test" for t in tasks}
        per_split = Counter(splits.get(x, "fewshot") for x in calls.activations)
        # f(φ₀) once per (task, split); lorahub adds one few-shot scorer per subset
        assert [calls.activations[key(t.val.xs)] for t in tasks] == [1, 1, 1]
        assert [calls.activations[key(t.test.xs)] for t in tasks] == [1, 1, 1]
        assert per_split["fewshot"] == (4 if algorithm == "lorahub" else 0)
        val_jvps = {pair: n for pair, n in calls.jvps.items() if splits.get(pair[0]) == "val"}
        assert set(val_jvps.values()) == {1}  # each (validation set, direction) once
        if algorithm == "lorahub":
            # one direction per task on each validation set, shared by the
            # three subsets holding that task
            assert len(val_jvps) == len(tasks) ** 2
        else:
            # one task-vector sum per subset, on each of its tasks' validation sets
            assert len(val_jvps) == 3 * 2 + 1 * 3
        counts.append((dict(calls.activations), dict(calls.jvps)))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("mode", LINEARIZED)
def test_finetune_runs_the_validation_anchor_once(monkeypatch, mode):
    suite = make_task_suite(n_tasks=2, seed=5, samples_per_split=24, input_dim=4)
    task = suite.tasks[0]
    spec = ModelSpec(input_dim=4, hidden_dims=(6,), num_classes=3, mode=mode)
    calls = Calls(monkeypatch)
    for _ in range(2):
        calls.reset()
        finetune(spec, task, TrainConfig(steps=6, batch_size=8), init_seed=5)
        assert calls.activations[key(task.val.xs)] == 1
