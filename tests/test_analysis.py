"""Disentanglement error, landscape grids, NTK identity, and report math."""

import numpy as np
import pytest

from fuselab.analysis import (
    aggregate_report,
    disentanglement_error,
    disentanglement_grid,
    format_report_table,
    loss_landscape_grid,
    normalized_score,
    ntk_one_step_check,
    read_grid_csv,
    write_grid_csv,
    write_report_csv,
)
from fuselab.errors import ContractError, ResourceLimitError
from fuselab.models import LinearizedState, ModeTag, ModelSpec, build_model, forward
from fuselab.params import ParamTree
from fuselab.task_vectors import TaskVector
from fuselab.tasks import Dataset
from fuselab.training import cross_entropy_loss


def lora_setting(seed=1):
    spec = ModelSpec(input_dim=4, hidden_dims=(6,), num_classes=3,
                     lora_rank=2, mode=ModeTag.LORA)
    theta0, phi0 = build_model(spec, seed=seed)
    rng = np.random.default_rng(seed + 50)
    nu1 = TaskVector(phi0.with_flat(rng.standard_normal(phi0.num_values)), spec.mode, "a")
    nu2 = TaskVector(phi0.with_flat(rng.standard_normal(phi0.num_values)), spec.mode, "b")
    d1 = Dataset(rng.standard_normal((40, 4)), rng.integers(0, 3, 40))
    d2 = Dataset(rng.standard_normal((40, 4)), rng.integers(0, 3, 40))
    return spec, theta0, phi0, nu1, nu2, d1, d2


class TestDisentanglementError:
    def test_zero_at_origin(self):
        spec, theta0, phi0, nu1, nu2, d1, d2 = lora_setting()
        assert disentanglement_error(spec, theta0, phi0, nu1, nu2, 0.0, 0.0, (d1, d2)) == 0.0

    def test_zero_second_vector_reduces_to_plain_shift_disagreement(self):
        # with nu2 = 0 the combined model is phi0 + l1*nu1: the first task's
        # term vanishes and the second term no longer depends on l2
        spec, theta0, phi0, nu1, _, d1, d2 = lora_setting()
        zero = TaskVector(phi0.with_flat(np.zeros(phi0.num_values)), spec.mode, "z")
        assert disentanglement_error(spec, theta0, phi0, nu1, zero, 0.0, 1.3, (d1, d2)) == 0.0
        base = disentanglement_error(spec, theta0, phi0, nu1, zero, 0.5, 0.0, (d1, d2))
        for l2 in (-1.0, 0.7, 2.0):
            xi = disentanglement_error(spec, theta0, phi0, nu1, zero, 0.5, l2, (d1, d2))
            assert xi == base
        combined = phi0.with_flat(phi0.flatten() + nu1.delta.flatten() * 0.5)
        p0 = np.argmax(forward(spec, theta0, phi0, d2.xs), axis=1)
        pc = np.argmax(forward(spec, theta0, combined, d2.xs), axis=1)
        assert base == pytest.approx(float(np.mean(p0 != pc)), abs=0)

    def test_hand_counted_disagreement(self):
        # one linear layer, 2 classes; adapter vectors chosen to flip signs
        spec = ModelSpec(input_dim=1, hidden_dims=(), num_classes=2,
                         lora_rank=1, lora_alpha=1.0, mode=ModeTag.LORA)
        theta0 = ParamTree({
            "layers.0.weight": np.array([[1.0], [-1.0]]),
            "layers.0.bias": np.array([0.0, 0.0]),
        })
        phi0 = ParamTree({
            "layers.0.lora_a": np.array([[1.0]]),
            "layers.0.lora_b": np.array([[0.0], [0.0]]),
        })
        # nu1 pushes class-0 logit up strongly, nu2 pushes class-1 logit up
        nu1 = TaskVector(ParamTree({
            "layers.0.lora_a": np.array([[0.0]]),
            "layers.0.lora_b": np.array([[10.0], [0.0]]),
        }), spec.mode, "a")
        nu2 = TaskVector(ParamTree({
            "layers.0.lora_a": np.array([[0.0]]),
            "layers.0.lora_b": np.array([[0.0], [30.0]]),
        }), spec.mode, "b")
        xs = np.array([[1.0], [2.0], [3.0]])
        d = Dataset(xs, np.zeros(3, dtype=int))
        # single nu1: logits ((1+10)x, -x) -> class 0 on all three samples
        # combined: ((1+10)x, (-1+30)x) -> class 1 wins on all three samples
        # single nu2: ((1)x, 29x) -> class 1: agrees with combined on task-2 data
        xi = disentanglement_error(spec, theta0, phi0, nu1, nu2, 1.0, 1.0, (d, d))
        assert xi == pytest.approx(1.0, abs=0)  # 3/3 disagree + 0/3 disagree

    def test_swap_symmetry_exact(self):
        spec, theta0, phi0, nu1, nu2, d1, d2 = lora_setting(seed=3)
        for l1, l2 in [(0.7, -0.4), (1.5, 1.5), (-1.0, 2.0)]:
            a = disentanglement_error(spec, theta0, phi0, nu1, nu2, l1, l2, (d1, d2))
            b = disentanglement_error(spec, theta0, phi0, nu2, nu1, l2, l1, (d2, d1))
            assert a == b

    def test_range_bounds(self):
        spec, theta0, phi0, nu1, nu2, d1, d2 = lora_setting(seed=4)
        rng = np.random.default_rng(0)
        for _ in range(10):
            l1, l2 = rng.uniform(-2, 2, 2)
            xi = disentanglement_error(spec, theta0, phi0, nu1, nu2, l1, l2, (d1, d2))
            assert 0.0 <= xi <= 2.0


class TestDisentanglementGrid:
    def test_zero_vectors_zero_grid(self):
        spec, theta0, phi0, _, _, d1, d2 = lora_setting(seed=5)
        zero1 = TaskVector(phi0.with_flat(np.zeros(phi0.num_values)), spec.mode, "z1")
        zero2 = TaskVector(phi0.with_flat(np.zeros(phi0.num_values)), spec.mode, "z2")
        grid = disentanglement_grid(spec, theta0, phi0, zero1, zero2, (d1, d2),
                                    resolution=5)
        assert np.all(grid.xi == 0.0)
        assert np.all(grid.xi_raw == 0.0)

    def test_resolution_two_matches_direct_calls(self):
        spec, theta0, phi0, nu1, nu2, d1, d2 = lora_setting(seed=6)
        grid = disentanglement_grid(spec, theta0, phi0, nu1, nu2, (d1, d2),
                                    lambda_range=(-1.0, 2.0), resolution=2)
        for i, l1 in enumerate(grid.lambda1_axis):
            for j, l2 in enumerate(grid.lambda2_axis):
                direct = disentanglement_error(spec, theta0, phi0, nu1, nu2,
                                               float(l1), float(l2), (d1, d2))
                assert grid.xi_raw[i, j] == direct
                assert grid.xi[i, j] == direct / 2.0

    def test_disjoint_output_behaviors_give_small_xi(self):
        # Tangent model with hand-built anchors: nu1 only moves logits for
        # inputs in the first coordinate block, nu2 only for the second.
        spec = ModelSpec(input_dim=4, hidden_dims=(), num_classes=2,
                         lora_rank=2, lora_alpha=2.0, mode=ModeTag.LLORA)
        theta0 = ParamTree({
            "layers.0.weight": 0.1 * np.array([[1.0, -1.0, 2.0, 0.5],
                                               [0.3, 0.7, -1.2, 1.1]]),
            "layers.0.bias": np.array([0.0, 0.0]),
        })
        a0 = np.array([[1.0, 2.0, 0.0, 0.0],
                       [0.0, 0.0, 1.5, -1.0]])
        b0 = np.array([[0.5, -0.3], [0.2, 0.4]])
        phi0 = ParamTree({"layers.0.lora_a": a0, "layers.0.lora_b": b0})
        # nu1: touch A row 0 (block-1 inputs) and B column 0 only
        nu1 = TaskVector(ParamTree({
            "layers.0.lora_a": np.array([[0.8, -0.6, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]),
            "layers.0.lora_b": np.array([[0.9, 0.0], [-0.7, 0.0]]),
        }), spec.mode, "a")
        nu2 = TaskVector(ParamTree({
            "layers.0.lora_a": np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.1, 0.4]]),
            "layers.0.lora_b": np.array([[0.0, -0.5], [0.0, 0.6]]),
        }), spec.mode, "b")
        rng = np.random.default_rng(7)
        x1 = np.zeros((30, 4))
        x1[:, :2] = rng.standard_normal((30, 2))
        x2 = np.zeros((30, 4))
        x2[:, 2:] = rng.standard_normal((30, 2))
        d1 = Dataset(x1, rng.integers(0, 2, 30))
        d2 = Dataset(x2, rng.integers(0, 2, 30))
        grid = disentanglement_grid(spec, theta0, phi0, nu1, nu2, (d1, d2),
                                    lambda_range=(-1.0, 2.0), resolution=9)
        assert np.max(grid.xi) < 0.05


class TestLossLandscape:
    def setting(self):
        spec = ModelSpec(input_dim=4, hidden_dims=(5,), num_classes=3, mode=ModeTag.FULL_FT)
        theta0, _ = build_model(spec, seed=8)
        rng = np.random.default_rng(9)
        theta1 = theta0.with_flat(theta0.flatten() + 0.3 * rng.standard_normal(theta0.num_values))
        theta2 = theta0.with_flat(theta0.flatten() + 0.3 * rng.standard_normal(theta0.num_values))
        d1 = Dataset(rng.standard_normal((25, 4)), rng.integers(0, 3, 25))
        d2 = Dataset(rng.standard_normal((25, 4)), rng.integers(0, 3, 25))
        return spec, theta0, theta1, theta2, d1, d2

    def test_endpoints_match_raw_models(self):
        spec, theta0, theta1, theta2, d1, d2 = self.setting()
        axes = np.array([0.0, 1.0])
        grid = loss_landscape_grid(spec, theta0, theta1, theta2, axes, axes, (d1, d2))

        def joint(theta):
            total = 0.0
            for data in (d1, d2):
                total += cross_entropy_loss(forward(spec, theta0, theta, data.xs), data.ys)
            return total

        assert grid.loss[0, 0] == joint(theta0)
        assert grid.loss[1, 0] == joint(theta1)
        assert grid.loss[0, 1] == joint(theta2)

    def test_constant_when_all_models_equal(self):
        spec, theta0, _, _, d1, d2 = self.setting()
        axes = np.linspace(-1, 2, 4)
        grid = loss_landscape_grid(spec, theta0, theta0, theta0, axes, axes, (d1, d2))
        assert np.max(grid.loss) - np.min(grid.loss) == 0.0

    def test_three_by_three_matches_direct(self):
        spec, theta0, theta1, theta2, d1, d2 = self.setting()
        axes = np.array([-0.5, 0.5, 1.5])
        grid = loss_landscape_grid(spec, theta0, theta1, theta2, axes, axes, (d1, d2))
        v1 = theta1.sub(theta0).flatten()
        v2 = theta2.sub(theta0).flatten()
        for i, l1 in enumerate(axes):
            for j, l2 in enumerate(axes):
                theta = theta0.with_flat(theta0.flatten() + v1 * float(l1) + v2 * float(l2))
                want = sum(
                    cross_entropy_loss(forward(spec, theta0, theta, d.xs), d.ys)
                    for d in (d1, d2)
                )
                assert grid.loss[i, j] == want


class TestNormalizedScore:
    def test_hand_division(self):
        assert normalized_score(0.45, 0.90) == pytest.approx(0.5, abs=0)

    def test_equal_scores_give_one(self):
        assert normalized_score(0.8, 0.8) == 1.0

    def test_degenerate_reference_rejected(self):
        with pytest.raises(ContractError):
            normalized_score(0.5, 0.0)


class TestNtkOneStep:
    def linearized_setting(self, mode=ModeTag.LLORA, seed=11):
        spec = ModelSpec(input_dim=4, hidden_dims=(6,), num_classes=3,
                         lora_rank=2, mode=mode)
        theta0, phi0 = build_model(spec, seed=seed)
        rng = np.random.default_rng(seed)
        phi = phi0.with_flat(phi0.flatten() + 0.3 * rng.standard_normal(phi0.num_values))
        xs = rng.standard_normal((12, 4))
        ys = rng.integers(0, 3, 12)
        return spec, theta0, LinearizedState(phi0, phi), xs, ys

    def test_zero_eta_zero_deltas(self):
        spec, theta0, lin, xs, ys = self.linearized_setting()
        pred, obs, rel = ntk_one_step_check(spec, theta0, lin, xs, ys, eta=0.0)
        assert np.all(pred == 0.0) and np.all(obs == 0.0) and rel == 0.0

    def test_exact_for_purely_linear_model(self):
        spec = ModelSpec(input_dim=3, hidden_dims=(), num_classes=2, mode=ModeTag.FULL_LINEAR)
        theta0, _ = build_model(spec, seed=12)
        rng = np.random.default_rng(13)
        phi = theta0.with_flat(theta0.flatten() + rng.standard_normal(theta0.num_values))
        xs = rng.standard_normal((8, 3))
        ys = rng.integers(0, 2, 8)
        for eta in (1e-3, 0.1, 1.0):
            _, _, rel = ntk_one_step_check(spec, theta0, LinearizedState(theta0, phi),
                                           xs, ys, eta=eta)
            assert rel <= 1e-9

    def test_tangent_model_identity_at_default_rates(self):
        spec, theta0, lin, xs, ys = self.linearized_setting()
        for eta in (1e-3, 5e-4):
            _, _, rel = ntk_one_step_check(spec, theta0, lin, xs, ys, eta=eta)
            assert rel <= 1e-6

    def test_batch_cap_enforced(self):
        spec, theta0, lin, xs, ys = self.linearized_setting()
        with pytest.raises(ResourceLimitError):
            ntk_one_step_check(spec, theta0, lin, xs, ys, eta=1e-3, max_jacobian_samples=4)

    def test_nonlinear_mode_rejected(self):
        spec, theta0, lin, xs, ys = self.linearized_setting()
        bad = spec.with_mode(ModeTag.LORA)
        with pytest.raises(ContractError):
            ntk_one_step_check(bad, theta0, lin, xs, ys, eta=1e-3)


class TestAggregateReport:
    def test_single_subset_zero_std(self):
        rows = [{"algorithm": "task_arithmetic", "mode": "lora",
                 "subset": ("a", "b"), "mean_normalized_score": 0.75}]
        report = aggregate_report(rows)
        overall = report.lookup("task_arithmetic", "lora", None)
        assert overall.mean_normalized == 0.75
        assert overall.std_normalized == 0.0

    def test_two_subsets_hand_stats(self):
        rows = [
            {"algorithm": "ties_merging", "mode": "l_lora", "subset": ("a", "b"),
             "mean_normalized_score": 0.6},
            {"algorithm": "ties_merging", "mode": "l_lora", "subset": ("a", "c"),
             "mean_normalized_score": 0.8},
        ]
        overall = aggregate_report(rows).lookup("ties_merging", "l_lora", None)
        assert overall.mean_normalized == pytest.approx(0.7, abs=1e-15)
        assert overall.std_normalized == pytest.approx(0.1, abs=1e-15)

    def test_grouping_by_subset_size(self):
        rows = [
            {"algorithm": "simple_average", "mode": "lora", "subset": ("a", "b"),
             "mean_normalized_score": 0.5},
            {"algorithm": "simple_average", "mode": "lora", "subset": ("a", "b", "c"),
             "mean_normalized_score": 0.9},
        ]
        report = aggregate_report(rows)
        assert report.lookup("simple_average", "lora", 2).mean_normalized == 0.5
        assert report.lookup("simple_average", "lora", 3).mean_normalized == 0.9
        assert report.lookup("simple_average", "lora", None).n_subsets == 2

    def test_csv_recomputation_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        rows = [{"algorithm": "task_arithmetic", "mode": "lora",
                 "subset": tuple(f"t{j}" for j in range(2 + i % 3)),
                 "mean_normalized_score": float(rng.uniform(0.2, 1.0))}
                for i in range(9)]
        report = aggregate_report(rows)
        path = tmp_path / "report.csv"
        write_report_csv(report, path, meta="seeds=1")
        body = [l for l in path.read_text().splitlines() if not l.startswith("#")][1:]
        for line, row in zip(body, report.rows):
            algo, mode, size, n, mean, std = line.split(",")
            group = [r["mean_normalized_score"] for r in rows
                     if r["algorithm"] == algo and r["mode"] == mode
                     and (size == "all" or len(r["subset"]) == int(size))]
            assert abs(float(mean) - np.mean(group)) < 1e-12
            assert abs(float(std) - np.std(group)) < 1e-12

    def test_table_renders(self):
        rows = [{"algorithm": "lorahub", "mode": "l_lora", "subset": ("a", "b"),
                 "mean_normalized_score": 0.66}]
        table = format_report_table(aggregate_report(rows))
        assert "lorahub" in table and "0.66" in table


def test_grid_csv_round_trip(tmp_path):
    rng = np.random.default_rng(15)
    axis1 = np.linspace(-1, 2, 5)
    axis2 = np.linspace(-1, 2, 7)
    values = rng.uniform(0, 1, (5, 7))
    path = tmp_path / "grid.csv"
    write_grid_csv(axis1, axis2, values, path, meta="mode=lora pair=a,b")
    a1, a2, v = read_grid_csv(path)
    assert np.array_equal(a1, axis1)
    assert np.array_equal(a2, axis2)
    assert np.array_equal(v, values)
