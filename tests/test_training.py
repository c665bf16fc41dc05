"""Fine-tuning loop, loss, evaluation, and checkpoint file round-trips."""

import json
import math
import os

import numpy as np
import pytest

from fuselab import models
from fuselab.checkpoints import Checkpoint, checkpoint_payload, load_checkpoint, save_checkpoint
from fuselab.errors import ContractError, TrainingDivergedError, ConfigError
from fuselab.files import canonical_digest
from fuselab.models import ModeTag, ModelSpec, Network, Scorer, build_model
from fuselab.params import ParamTree
from fuselab.tasks import Dataset, make_task_suite
from fuselab.training import (
    TrainConfig,
    batch_loss_and_grad,
    ce_logit_gradient,
    cross_entropy_loss,
    evaluate,
    finetune,
)


def checkpoint_accuracy(ckpt, dataset):
    return evaluate(ckpt.spec, ckpt.theta0(), ckpt.initial, ckpt.trained, dataset)


def default_spec(mode):
    return ModelSpec(input_dim=16, hidden_dims=(32, 32), num_classes=3,
                     lora_rank=2, lora_alpha=2.0, mode=mode)


@pytest.fixture(scope="module")
def suite():
    return make_task_suite(seed=101, samples_per_split=256)


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss = cross_entropy_loss(np.zeros((4, 3)), [0, 1, 2, 0])
        assert loss == pytest.approx(math.log(3.0), rel=1e-12)

    def test_strongly_peaked_logits(self):
        logits = np.zeros((2, 3))
        logits[0, 1] = 1000.0
        logits[1, 2] = 1000.0
        assert cross_entropy_loss(logits, [1, 2]) == pytest.approx(0.0, abs=1e-12)

    def test_two_sample_hand_case(self):
        logits = np.array([[0.3, -0.2, 1.1], [2.0, 0.0, -1.0]])
        labels = [2, 0]
        want = 0.0
        for row, y in zip(logits, labels):
            want += -(row[y] - math.log(sum(math.exp(v) for v in row)))
        want /= 2
        assert abs(cross_entropy_loss(logits, labels) - want) < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(ContractError):
            cross_entropy_loss(np.zeros((2, 3)), [0, 3])


class TestFinetune:
    def test_zero_learning_rate_keeps_init(self, suite):
        spec = default_spec(ModeTag.LORA)
        _, phi0 = build_model(spec, seed=1)
        cfg = TrainConfig(steps=5, learning_rate=0.0, optimizer="sgd", shuffle_seed=2)
        ckpt, _ = finetune(spec, suite.tasks[0], cfg, init_seed=1)
        assert ckpt.trained.equal_bits(phi0)

    def test_lora_learns_above_chance(self, suite):
        spec = default_spec(ModeTag.LORA)
        cfg = TrainConfig(steps=300, shuffle_seed=3)
        ckpt, _ = finetune(spec, suite.tasks[0], cfg, init_seed=1)
        acc = checkpoint_accuracy(ckpt, suite.tasks[0].val)
        assert acc > 1.0 / 3.0

    def test_llora_learns_above_chance(self, suite):
        spec = default_spec(ModeTag.LLORA)
        cfg = TrainConfig(steps=300, shuffle_seed=3)
        ckpt, _ = finetune(spec, suite.tasks[0], cfg, init_seed=1)
        acc = checkpoint_accuracy(ckpt, suite.tasks[0].val)
        assert acc > 1.0 / 3.0

    def test_determinism_bit_identical(self, suite):
        spec = default_spec(ModeTag.LLORA)
        cfg = TrainConfig(steps=40, shuffle_seed=9)
        c1, h1 = finetune(spec, suite.tasks[1], cfg, init_seed=4)
        c2, h2 = finetune(spec, suite.tasks[1], cfg, init_seed=4)
        assert c1.trained.equal_bits(c2.trained)
        assert h1 == h2

    def test_backbone_untouched_in_peft(self, suite):
        spec = default_spec(ModeTag.LORA)
        theta0 = build_model(spec, 5)[0]  # the cached backbone finetune reads
        before = {p: t.tobytes() for p, t in theta0.items()}
        finetune(spec, suite.tasks[0], TrainConfig(steps=30, shuffle_seed=1), init_seed=5)
        assert build_model(spec, 5)[0] is theta0
        assert {p: t.tobytes() for p, t in theta0.items()} == before

    def test_finetune_starts_from_the_cached_initial_point(self, suite):
        # build_model is the one source of the initial point: equal calls
        # share their trees, and a checkpoint's initial tree is that phi0.
        spec = default_spec(ModeTag.LORA)
        theta0, phi0 = build_model(spec, 2)
        assert build_model(spec, seed=2)[0] is theta0 and build_model(spec, 2)[1] is phi0
        ckpt, _ = finetune(spec, suite.tasks[0], TrainConfig(steps=3), init_seed=2)
        assert ckpt.initial is phi0 and ckpt.theta0() is theta0

    def test_a_seed_that_is_not_a_non_negative_int_is_refused(self, suite):
        # 1.5 used to train from seed 1's initial point and record seed 1.
        with pytest.raises(ContractError, match="seed = 1.5 is not a non-negative int"):
            finetune(default_spec(ModeTag.LORA), suite.tasks[0], TrainConfig(steps=3), init_seed=1.5)

    def test_divergence_reports_step(self, suite):
        spec = default_spec(ModeTag.FULL_FT)
        cfg = TrainConfig(steps=50, learning_rate=1e308, optimizer="sgd", shuffle_seed=1)
        with pytest.raises(TrainingDivergedError) as err:
            finetune(spec, suite.tasks[0], cfg, init_seed=6)
        assert err.value.step >= 0

    def test_one_sgd_step_decreases_batch_loss(self, suite):
        spec = default_spec(ModeTag.LORA)
        theta0, phi0 = build_model(spec, seed=7)
        task = suite.tasks[0]
        xb, yb = task.train.xs[:32], task.train.ys[:32]
        flat = phi0.flatten()
        scorer = Scorer(spec, theta0, phi0, xb)
        loss0, g = batch_loss_and_grad(scorer, flat, yb)
        stepped = flat - 1e-4 * g
        loss1, _ = batch_loss_and_grad(scorer, stepped, yb)
        assert loss1 < loss0

    def test_linear_model_full_vs_linearized_trajectories(self, suite):
        base = ModelSpec(input_dim=16, hidden_dims=(), num_classes=3, mode=ModeTag.FULL_FT)
        cfg = TrainConfig(steps=60, learning_rate=0.1, optimizer="sgd", shuffle_seed=11)
        ck_full, h_full = finetune(base, suite.tasks[0], cfg, init_seed=8)
        lin = base.with_mode(ModeTag.FULL_LINEAR)
        ck_lin, h_lin = finetune(lin, suite.tasks[0], cfg, init_seed=8)
        gap = np.max(np.abs(ck_full.trained.flatten() - ck_lin.trained.flatten()))
        assert gap < 1e-9
        for (s1, l1, _), (s2, l2, _) in zip(h_full, h_lin):
            assert s1 == s2 and abs(l1 - l2) < 1e-9


class TestEvaluate:
    def test_all_correct(self):
        spec = ModelSpec(input_dim=2, hidden_dims=(), num_classes=2, mode=ModeTag.FULL_FT)
        theta = ParamTree({
            "layers.0.weight": np.array([[1.0, 0.0], [0.0, 1.0]]),
            "layers.0.bias": np.array([0.0, 0.0]),
        })
        ds = Dataset(np.array([[2.0, 0.0], [0.0, 2.0]]), np.array([0, 1]))
        assert evaluate(spec, theta, theta, theta, ds) == 1.0

    def test_random_labels_near_chance(self):
        spec = default_spec(ModeTag.FULL_FT)
        theta0, tr0 = build_model(spec, seed=9)
        rng = np.random.default_rng(10)
        ds = Dataset(rng.standard_normal((10000, 16)), rng.integers(0, 3, 10000))
        assert abs(evaluate(spec, theta0, tr0, tr0, ds) - 1.0 / 3.0) < 0.03

    def test_tie_resolves_to_class_zero(self):
        spec = ModelSpec(input_dim=2, hidden_dims=(), num_classes=3, mode=ModeTag.FULL_FT)
        theta = ParamTree({
            "layers.0.weight": np.zeros((3, 2)),
            "layers.0.bias": np.zeros(3),
        })
        ds = Dataset(np.ones((4, 2)), np.array([0, 0, 1, 2]))
        assert evaluate(spec, theta, theta, theta, ds) == pytest.approx(0.5)

    def test_empty_dataset_rejected(self):
        spec = default_spec(ModeTag.FULL_FT)
        theta0, tr0 = build_model(spec, seed=9)
        with pytest.raises(ContractError):
            evaluate(spec, theta0, tr0, tr0, Dataset(np.zeros((0, 16)), np.zeros(0, dtype=int)))


class TestCheckpointFiles:
    def make_checkpoint(self, suite):
        spec = default_spec(ModeTag.LORA)
        ckpt, _ = finetune(spec, suite.tasks[0], TrainConfig(steps=20, shuffle_seed=13), init_seed=12)
        return ckpt

    def test_round_trip_bit_identical(self, suite, tmp_path):
        ckpt = self.make_checkpoint(suite)
        path = tmp_path / "ck.json"
        save_checkpoint(ckpt, path, config_digest="sha256:abc")
        loaded = load_checkpoint(path, expected_config_digest="sha256:abc")
        assert loaded.trained.equal_bits(ckpt.trained)
        assert loaded.initial.equal_bits(ckpt.initial)
        assert loaded.spec == ckpt.spec
        assert loaded.task_id == ckpt.task_id
        assert checkpoint_accuracy(loaded, suite.tasks[0].val) == checkpoint_accuracy(
            ckpt, suite.tasks[0].val
        )

    def test_corruption_detected(self, suite, tmp_path):
        ckpt = self.make_checkpoint(suite)
        path = tmp_path / "ck.json"
        save_checkpoint(ckpt, path)
        raw = path.read_text()
        # flip one character inside the base64 payload
        i = raw.index('"data": "') + 12
        flipped = raw[:i] + ("A" if raw[i] != "A" else "B") + raw[i + 1 :]
        path.write_text(flipped)
        with pytest.raises(ContractError):
            load_checkpoint(path)

    @pytest.mark.parametrize("task_id", [7, ["task0"]], ids=["int", "list"])
    def test_a_task_id_that_is_not_a_string_is_rejected_naming_the_file(self, suite, tmp_path, task_id):
        # Each used to load, as the task id of the checkpoint.
        path = tmp_path / "ck.json"
        payload = checkpoint_payload(self.make_checkpoint(suite))
        del payload["digest"]
        payload["task_id"] = task_id
        payload["digest"] = canonical_digest(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(ContractError, match="task_id") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("change, field", [
        ({"task_id": 7}, "task_id = 7 is not a string"),
        ({"init_seed": -1}, "seed = -1 is not a non-negative int"),
        ({"init_seed": 1.5}, "seed = 1.5 is not a non-negative int"),
        ({"init_seed": True}, "seed = True is not a non-negative int"),
        ({"trained": build_model(default_spec(ModeTag.FULL_FT), 3)[1]}, "does not match the lora trainable set"),
        ({"metrics": [["acc", 0.5]]}, "metrics = .* is not a JSON object"),
        ({"metrics": {"acc": "high"}}, "metrics.acc = 'high' does not have the kind of 0.0"),
        ({"metrics": {"acc": math.nan}}, "metrics.acc = nan is not a finite float"),
        ({"metrics": {1: 0.5}}, "metrics key 1 is not a string"),
    ], ids=["task_id_int", "seed_negative", "seed_float", "seed_bool", "trained_of_another_mode",
            "metrics_a_list", "metric_string", "metric_nan", "metric_key_int"])
    def test_a_checkpoint_the_reader_would_refuse_is_not_built(self, change, field):
        # Each used to build, and save_checkpoint wrote a file that load_checkpoint
        # refused or read back as another checkpoint (seed 1 for 1.5, key "1" for 1).
        spec = default_spec(ModeTag.LORA)
        fields = dict(spec=spec, task_id="task0", init_seed=3, trained=build_model(spec, 3)[1], metrics={})
        with pytest.raises(ContractError, match=field):
            Checkpoint(**{**fields, **change})

    def test_config_digest_mismatch_rejected(self, suite, tmp_path):
        ckpt = self.make_checkpoint(suite)
        path = tmp_path / "ck.json"
        save_checkpoint(ckpt, path, config_digest="sha256:one")
        with pytest.raises(ConfigError):
            load_checkpoint(path, expected_config_digest="sha256:two")


def test_failed_checkpoint_write_leaves_no_file(tmp_path, monkeypatch):
    # A write that fails before its final rename must leave neither a partial
    # target nor the temp file behind.
    spec = default_spec(ModeTag.LORA)
    _, phi0 = build_model(spec, seed=3)
    ckpt = Checkpoint(spec, "task0", 3, phi0)

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(ckpt, tmp_path / "ck.json")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mode", list(ModeTag), ids=lambda m: m.value)
def test_a_training_step_runs_one_forward_pass_and_keeps_the_gradient_bits(mode, monkeypatch):
    spec = default_spec(mode)
    theta0, init = build_model(spec, seed=4)
    rng = np.random.default_rng(4)
    anchor = init.flatten()
    flat = anchor + 0.1 * rng.standard_normal(anchor.size)
    xs, ys = rng.standard_normal((32, 16)), rng.integers(0, 3, 32)
    point = anchor if mode.is_linearized else flat
    net = Network(spec, theta0, init)
    acts = net.activations(point, xs)
    if mode.is_linearized:
        f0, jd = net.jvp(anchor, flat - anchor, acts)
        logits = f0 + jd
    else:
        logits = acts[0]
    want = net.vjp(point, ce_logit_gradient(logits, ys), acts)

    passes = []
    activations = Network.activations
    monkeypatch.setattr(Network, "activations",
                        lambda self, at, x: passes.append(at) or activations(self, at, x))
    loss, grad = batch_loss_and_grad(Scorer(spec, theta0, init, xs), flat, ys)
    assert len(passes) == 1 and passes[0] is point
    assert loss == cross_entropy_loss(logits, ys)
    assert grad.tobytes() == want.tobytes()


@pytest.mark.parametrize("mode", list(ModeTag), ids=lambda m: m.value)
def test_finetune_builds_the_validation_scorer_once(suite, mode, monkeypatch):
    # One Network and one tree check for the whole run: the validation
    # scorer's, which every training batch and the final train loss score
    # through on their rows.
    built, checked = [], []
    init, require_trees = Network.__init__, models.require_trees
    monkeypatch.setattr(Network, "__init__",
                        lambda self, spec, theta0, template: built.append(template.num_values)
                        or init(self, spec, theta0, template))
    monkeypatch.setattr(models, "require_trees", lambda *trees: checked.append(1) or require_trees(*trees))
    spec = default_spec(mode)
    _, phi0 = build_model(spec, seed=9)
    task = suite.tasks[0]
    cfg = TrainConfig(steps=7, shuffle_seed=2)
    finetune(spec, task, cfg, init_seed=9)
    assert built == [phi0.num_values]
    assert len(checked) == 1
