"""Task-vector deltas and cosine geometry."""

import numpy as np
import pytest

from fuselab.checkpoints import Checkpoint, load_checkpoint, save_checkpoint
from fuselab.errors import ContractError, UndefinedSimilarityError
from fuselab.models import ModeTag, ModelSpec, build_model
from fuselab.params import ParamTree
from fuselab.task_vectors import (
    TaskVector,
    compute_task_vector,
    cosine_similarity,
    similarity_matrix,
    write_similarity_csv,
)


def vec(values, mode=ModeTag.LORA, task_id="t"):
    return TaskVector(ParamTree({"p": np.asarray(values, dtype=float)}),
                      ModeTag(mode), task_id)


def scaled(v, factor):
    return TaskVector(v.delta.with_flat(v.delta.flatten() * factor), v.mode, v.task_id)


class TestComputeTaskVector:
    def test_zero_when_untrained(self):
        spec = ModelSpec(input_dim=4, hidden_dims=(8,), num_classes=3, mode=ModeTag.LORA)
        _, phi0 = build_model(spec, seed=1)
        ckpt = Checkpoint(spec, "t0", 1, phi0)
        tv = compute_task_vector(ckpt)
        assert np.all(tv.delta.flatten() == 0.0)

    def test_hand_arithmetic(self):
        spec = ModelSpec(input_dim=2, hidden_dims=(), num_classes=2, mode=ModeTag.FULL_FT)
        _, phi0 = build_model(spec, seed=0)  # the seed's initial point; its biases are zero
        trained = ParamTree({"layers.0.weight": np.array([[3.0, 1.0]] * 2),
                             "layers.0.bias": np.array([0.5, -0.5])})
        tv = compute_task_vector(Checkpoint(spec, "t0", 0, trained))
        assert np.array_equal(tv.delta["layers.0.weight"], np.array([[3.0, 1.0]] * 2) - phi0["layers.0.weight"])
        assert np.array_equal(tv.delta["layers.0.bias"], [0.5, -0.5])

    def test_round_tripped_checkpoint_bit_identical(self, tmp_path):
        spec = ModelSpec(input_dim=4, hidden_dims=(8,), num_classes=3, mode=ModeTag.LORA)
        theta0, phi0 = build_model(spec, seed=2)
        rng = np.random.default_rng(3)
        trained = phi0.with_flat(phi0.flatten() + rng.standard_normal(phi0.num_values))
        ckpt = Checkpoint(spec, "t0", 2, trained)
        path = tmp_path / "c.json"
        save_checkpoint(ckpt, path)
        reloaded = load_checkpoint(path)
        tv1 = compute_task_vector(ckpt)
        tv2 = compute_task_vector(reloaded)
        assert tv1.delta.equal_bits(tv2.delta)


class TestCosine:
    def test_self_similarity_is_one(self):
        v = vec([0.3, -0.7, 2.0])
        assert cosine_similarity(v, v) == 1.0

    def test_orthogonal(self):
        assert cosine_similarity(vec([1.0, 0.0]), vec([0.0, 1.0])) == pytest.approx(0.0, abs=0)

    def test_antiparallel_scaled(self):
        v = vec([0.4, -1.2, 3.3])
        w = scaled(v, -2.0)
        assert cosine_similarity(v, w) == pytest.approx(-1.0, abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        v1 = vec(rng.standard_normal(20), task_id="a")
        v2 = vec(rng.standard_normal(20), task_id="b")
        base = cosine_similarity(v1, v2)
        for a, b in [(2.5, 0.1), (-3.0, 7.0), (-1e-3, -4.0)]:
            got = cosine_similarity(scaled(v1, a), scaled(v2, b))
            assert got == pytest.approx(np.sign(a * b) * base, abs=1e-12)

    def test_zero_vector_undefined(self):
        with pytest.raises(UndefinedSimilarityError):
            cosine_similarity(vec([0.0, 0.0]), vec([1.0, 0.0]))

    def test_native_cross_mode_rejected(self):
        spec = ModelSpec(input_dim=4, hidden_dims=(8,), num_classes=3, mode=ModeTag.LORA)
        _, phi0 = build_model(spec, seed=1)
        theta0, _ = build_model(spec.with_mode(ModeTag.FULL_FT), seed=1)
        rng = np.random.default_rng(6)
        peft = TaskVector(phi0.with_flat(rng.standard_normal(phi0.num_values)),
                          ModeTag.LORA, "a")
        full = TaskVector(theta0.with_flat(rng.standard_normal(theta0.num_values)),
                          ModeTag.FULL_FT, "b")
        with pytest.raises(ContractError):
            cosine_similarity(peft, full)


class TestSimilarityMatrix:
    def test_orthogonal_pair(self):
        ids, m = similarity_matrix([vec([1.0, 0.0], task_id="a"), vec([0.0, 1.0], task_id="b")])
        assert ids == ["a", "b"]
        assert np.array_equal(m, np.eye(2))

    def test_duplicates_all_ones(self):
        v = vec([1.0, 2.0, 3.0])
        _, m = similarity_matrix([v, v, v])
        assert np.array_equal(m, np.ones((3, 3)))

    def test_matches_pairwise_calls(self):
        rng = np.random.default_rng(7)
        vs = [vec(rng.standard_normal(12), task_id=f"t{i}") for i in range(4)]
        _, m = similarity_matrix(vs)
        for i in range(4):
            for j in range(4):
                assert m[i, j] == cosine_similarity(vs[i], vs[j])
        assert np.max(np.abs(m - m.T)) <= 1e-12
        assert np.array_equal(np.diag(m), np.ones(4))


def test_similarity_csv_round_number_format(tmp_path):
    ids, m = similarity_matrix([vec([1.0, 0.0], task_id="a"), vec([0.0, 1.0], task_id="b")])
    path = tmp_path / "sim.csv"
    write_similarity_csv(ids, m, path, meta="mode=lora")
    lines = path.read_text().splitlines()
    assert lines[0] == "# mode=lora"
    assert lines[1] == "task_id,a,b"
    assert lines[2].startswith("a,1,")
