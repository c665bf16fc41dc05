"""Fusion algorithms against hand cases and independent step-by-step oracles."""

import inspect
import math

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuselab import fusion
from fuselab.checkpoints import Checkpoint
from fuselab.errors import ContractError
from fuselab.fusion import (
    ALGORITHMS,
    FusionConfig,
    _fewshot_loss,
    _lorahub_objective,
    enumerate_subsets,
    lorahub_optimize,
    replay_merge,
    simple_average,
    sweep_and_select,
    task_arithmetic,
    ties_merge,
    ties_trim,
)
from fuselab.fusion import scorers_for
from fuselab.models import ModeTag, ModelSpec, build_model
from fuselab.params import ParamTree, combine
from fuselab.task_vectors import TaskVector, compute_task_vector
from fuselab.tasks import Dataset, make_task_suite
from fuselab.training import TrainConfig, evaluate, finetune
from test_scoring_counts import Calls, key


def reference_ties(deltas, k, lam):
    """Independent trim/elect/merge reference, coordinate-by-coordinate."""
    n, d = len(deltas), len(deltas[0])
    m = math.ceil(k * d)
    trimmed = []
    for v in deltas:
        order = sorted(range(d), key=lambda i: (-abs(v[i]), i))
        keep = set(order[:m])
        trimmed.append([v[i] if i in keep else 0.0 for i in range(d)])
    merged = []
    for i in range(d):
        col = [trimmed[j][i] for j in range(n)]
        total = sum(col)
        sign = (total > 0) - (total < 0)
        if sign == 0:
            merged.append(0.0)
            continue
        matching = [c for c in col if ((c > 0) - (c < 0)) == sign]
        merged.append(sum(matching) / len(matching) if matching else 0.0)
    return [lam * v for v in merged]


def first_rows(dataset, n):
    return Dataset(dataset.xs[:n], dataset.ys[:n])


def merged_accuracy(ckpt, model, dataset):
    """Accuracy of ``model`` on the backbone, paradigm and initial point of ``ckpt``, one of its inputs."""
    return evaluate(ckpt.spec, ckpt.theta0(), ckpt.initial, model.trainable, dataset)


def vec(values, task_id, mode=ModeTag.LORA):
    return TaskVector(ParamTree({"p": np.asarray(values, dtype=float)}),
                      ModeTag(mode), task_id)


def flat_tree(values):
    return ParamTree({"p": np.asarray(values, dtype=float)})


def make_checkpoints(n=3, seed=1, mode=ModeTag.LORA, spread=0.5):
    spec = ModelSpec(input_dim=4, hidden_dims=(6,), num_classes=3,
                     lora_rank=2, mode=mode)
    theta0, phi0 = build_model(spec, seed=seed)
    rng = np.random.default_rng(seed + 100)
    out = []
    for i in range(n):
        trained = phi0.with_flat(phi0.flatten() + spread * rng.standard_normal(phi0.num_values))
        out.append(Checkpoint(spec, f"task{i}", seed, trained))
    return spec, theta0, phi0, out


class TestSimpleAverage:
    def test_idempotent_on_identical_checkpoints(self):
        _, _, _, cks = make_checkpoints(n=1)
        same = [cks[0], Checkpoint(cks[0].spec, "other", cks[0].init_seed, cks[0].trained)]
        merged = simple_average(cks[0].initial, same)
        assert merged.trainable.equal_bits(cks[0].trained)

    def test_hand_mean(self):
        spec = ModelSpec(input_dim=2, hidden_dims=(), num_classes=2, mode=ModeTag.FULL_FT)
        theta0, _ = build_model(spec, seed=0)
        init = theta0
        t1 = init.with_flat(np.full(init.num_values, 2.0))
        t2 = init.with_flat(np.full(init.num_values, 4.0))
        cks = [Checkpoint(spec, "a", 0, t1), Checkpoint(spec, "b", 0, t2)]
        merged = simple_average(init, cks)
        assert np.all(merged.trainable.flatten() == 3.0)

    def test_equals_initial_plus_mean_vector(self):
        _, _, phi0, cks = make_checkpoints(n=3)
        merged = simple_average(phi0, cks)
        vectors = [compute_task_vector(c) for c in cks]
        via_vectors = phi0.flatten() + np.mean([v.delta.flatten() for v in vectors], axis=0)
        assert np.max(np.abs(merged.trainable.flatten() - via_vectors)) < 1e-12

    def test_single_checkpoint_rejected(self):
        _, _, phi0, cks = make_checkpoints(n=1)
        with pytest.raises(ContractError):
            simple_average(phi0, cks[:1])

    def test_mixed_modes_rejected(self):
        _, _, phi0, cks_a = make_checkpoints(n=2, mode=ModeTag.LORA)
        _, _, _, cks_b = make_checkpoints(n=2, mode=ModeTag.LLORA)
        with pytest.raises(ContractError):
            simple_average(phi0, [cks_a[0], cks_b[1]])


class TestTaskArithmetic:
    def test_lambda_zero_returns_initial_exactly(self):
        _, _, phi0, cks = make_checkpoints(n=2)
        vectors = [compute_task_vector(c) for c in cks]
        merged = task_arithmetic(phi0, vectors, 0.0)
        assert merged.trainable.equal_bits(phi0)

    def test_hand_case(self):
        init = flat_tree([0.0, 0.0])
        merged = task_arithmetic(init, [vec([1.0, 0.0], "a"), vec([0.0, 2.0], "b")], 0.5)
        assert np.array_equal(merged.trainable["p"], [0.5, 1.0])

    def test_lambda_one_single_vector_reconstructs(self):
        _, _, phi0, cks = make_checkpoints(n=1)
        v = compute_task_vector(cks[0])
        merged = task_arithmetic(phi0, [v], 1.0)
        assert np.max(np.abs(merged.trainable.flatten() - cks[0].trained.flatten())) < 1e-12

    def test_midpoint_linearity(self):
        _, _, phi0, cks = make_checkpoints(n=3)
        vectors = [compute_task_vector(c) for c in cks]
        l1, l2 = 0.3, 0.9
        mid = task_arithmetic(phi0, vectors, (l1 + l2) / 2).trainable.flatten()
        avg = (task_arithmetic(phi0, vectors, l1).trainable.flatten()
               + task_arithmetic(phi0, vectors, l2).trainable.flatten()) / 2
        assert np.max(np.abs(mid - avg)) < 1e-12

    def test_permutation_invariance_exact(self):
        _, _, phi0, cks = make_checkpoints(n=4)
        vectors = [compute_task_vector(c) for c in cks]
        a = task_arithmetic(phi0, vectors, 0.7).trainable
        b = task_arithmetic(phi0, list(reversed(vectors)), 0.7).trainable
        assert a.equal_bits(b)

    def test_simple_average_identity(self):
        _, _, phi0, cks = make_checkpoints(n=3)
        vectors = [compute_task_vector(c) for c in cks]
        avg = simple_average(phi0, cks).trainable.flatten()
        ta = task_arithmetic(phi0, vectors, 1.0 / 3.0).trainable.flatten()
        assert np.max(np.abs(avg - ta)) < 1e-12


class TestTiesMerge:
    def test_spec_hand_case(self):
        init = flat_tree([0.0, 0.0, 0.0])
        v1 = vec([1.0, -2.0, 0.1], "a")
        v2 = vec([3.0, 1.0, -0.2], "b")
        merged = ties_merge(init, [v1, v2], k=2.0 / 3.0, lam=1.0)
        assert np.array_equal(merged.trainable["p"], [2.0, -2.0, 0.0])

    def test_identical_vectors_k1_identity(self):
        v = vec([0.5, -1.5, 2.5], "a")
        w = vec([0.5, -1.5, 2.5], "b")
        init = flat_tree([0.0, 0.0, 0.0])
        merged = ties_merge(init, [v, w], k=1.0, lam=1.0)
        assert np.array_equal(merged.trainable["p"], [0.5, -1.5, 2.5])

    def test_sign_tie_merges_to_zero(self):
        init = flat_tree([0.0])
        merged = ties_merge(init, [vec([1.0], "a"), vec([-1.0], "b")], k=1.0, lam=1.0)
        assert np.array_equal(merged.trainable["p"], [0.0])

    def test_single_vector_k1_reduces_to_task_arithmetic(self):
        rng = np.random.default_rng(13)
        v = vec(rng.standard_normal(9), "a")
        init = flat_tree(np.zeros(9))
        t = ties_merge(init, [v], k=1.0, lam=0.4).trainable.flatten()
        ta = task_arithmetic(init, [v], 0.4).trainable.flatten()
        assert np.array_equal(t, ta)

    def test_invalid_k_rejected(self):
        with pytest.raises(ContractError):
            ties_trim(np.ones(3), 0.0)
        with pytest.raises(ContractError):
            ties_trim(np.ones(3), 1.5)

    def test_permutation_invariance_exact(self):
        rng = np.random.default_rng(17)
        vs = [vec(rng.standard_normal(12), f"t{i}") for i in range(4)]
        init = flat_tree(np.zeros(12))
        a = ties_merge(init, vs, k=0.5, lam=0.75).trainable
        b = ties_merge(init, list(reversed(vs)), k=0.5, lam=0.75).trainable
        assert a.equal_bits(b)

    def test_random_instances_match_reference(self):
        rng = np.random.default_rng(19)
        for trial in range(200):
            n = int(rng.integers(2, 6))
            d = int(rng.integers(3, 65))
            k = float(rng.choice([0.25, 0.5, 0.75, 1.0]))
            lam = float(rng.choice([0.25, 0.5, 0.75, 1.0]))
            deltas = [rng.standard_normal(d) for _ in range(n)]
            vs = [vec(deltas[i], f"t{i}") for i in range(n)]
            init = flat_tree(np.zeros(d))
            got = ties_merge(init, vs, k=k, lam=lam).trainable.flatten()
            want = np.array(reference_ties([list(map(float, dv)) for dv in deltas], k, lam))
            assert np.max(np.abs(got - want)) < 1e-12


@pytest.fixture(scope="module")
def setting():
    suite = make_task_suite(n_tasks=2, seed=301, samples_per_split=64)
    spec = ModelSpec(input_dim=16, hidden_dims=(32, 32), num_classes=3,
                     lora_rank=2, mode=ModeTag.LORA)
    theta0, phi0 = build_model(spec, seed=301)
    cfg = TrainConfig(steps=150, shuffle_seed=5)
    cks = [finetune(spec, t, cfg, init_seed=301)[0] for t in suite.tasks]
    return suite, spec, theta0, phi0, cks


class TestLorahub:

    def test_huge_penalty_shrinks_weights(self, setting):
        suite, spec, theta0, phi0, cks = setting
        vectors = [compute_task_vector(c) for c in cks]
        fewshot = first_rows(suite.tasks[0].val, 32)
        weights, _ = lorahub_optimize(spec, theta0, phi0, vectors, fewshot,
                                      alpha=1e3, max_steps=40, seed=0)
        assert np.sum(np.abs(weights)) < 1.0  # below the uniform-start L1 norm

    def test_single_vector_beats_pretrained(self, setting):
        suite, spec, theta0, phi0, cks = setting
        v = compute_task_vector(cks[0])
        fewshot = first_rows(suite.tasks[0].val, 32)
        _, model = lorahub_optimize(spec, theta0, phi0, [v], fewshot,
                                    alpha=0.05, max_steps=40, seed=0)
        from fuselab.fusion import _fewshot_loss

        pretrained = _fewshot_loss(spec, theta0, phi0, phi0, fewshot) + 0.0
        assert model.provenance["objective"] <= pretrained

    def test_deterministic_given_seed(self, setting):
        suite, spec, theta0, phi0, cks = setting
        vectors = [compute_task_vector(c) for c in cks]
        fewshot = first_rows(suite.tasks[1].val, 32)
        w1, m1 = lorahub_optimize(spec, theta0, phi0, vectors, fewshot, seed=7)
        w2, m2 = lorahub_optimize(spec, theta0, phi0, vectors, fewshot, seed=7)
        assert w1 == w2
        assert m1.trainable.equal_bits(m2.trainable)

    def test_defaults_match_published_protocol(self):
        cfg = FusionConfig(algorithm="lorahub")
        assert cfg.lorahub_alpha == 0.05
        assert cfg.lorahub_max_steps == 40
        # a library call of lorahub_optimize runs the protocol a CLI run does
        params = inspect.signature(lorahub_optimize).parameters
        assert params["alpha"].default == cfg.lorahub_alpha
        assert params["max_steps"].default == cfg.lorahub_max_steps


class TestEnumerateSubsets:
    def test_seven_tasks_give_120(self):
        subsets = enumerate_subsets([f"t{i}" for i in range(7)])
        assert len(subsets) == 120

    def test_two_tasks_give_one(self):
        assert enumerate_subsets(["a", "b"]) == [("a", "b")]

    def test_four_tasks_match_powerset_oracle(self):
        import itertools

        ids = ["a", "b", "c", "d"]
        subsets = enumerate_subsets(ids)
        brute = [s for r in range(len(ids) + 1)
                 for s in itertools.combinations(sorted(ids), r) if len(s) >= 2]
        assert len(subsets) == 11
        assert set(subsets) == set(brute)

    def test_ordering_by_size_then_lex(self):
        subsets = enumerate_subsets(["c", "a", "b"])
        assert subsets == [("a", "b"), ("a", "c"), ("b", "c"), ("a", "b", "c")]


@pytest.fixture(scope="module")
def trained_setting():
    suite = make_task_suite(n_tasks=2, seed=401, samples_per_split=64)
    spec = ModelSpec(input_dim=16, hidden_dims=(32, 32), num_classes=3,
                     lora_rank=2, mode=ModeTag.LORA)
    cfg = TrainConfig(steps=120, shuffle_seed=5)
    cks = [finetune(spec, t, cfg, init_seed=401)[0] for t in suite.tasks]
    return suite, cks


class TestSweepAndSelect:
    def make_validation(self, suite):
        return {t.id: t.val for t in suite.tasks}

    def test_single_point_grid_returned(self, trained_setting):
        suite, cks = trained_setting
        cfg = FusionConfig(algorithm="task_arithmetic", lambda_grid=(0.3,))
        merged = sweep_and_select(cfg, cks, self.make_validation(suite))
        assert merged.provenance["hyperparameters"]["lambda"] == 0.3
        assert merged.provenance["candidates_evaluated"] == 1

    def test_task_arithmetic_candidate_count_is_21(self, trained_setting):
        suite, cks = trained_setting
        cfg = FusionConfig(algorithm="task_arithmetic")
        assert len(cfg.lambda_grid) == 21
        merged = sweep_and_select(cfg, cks, self.make_validation(suite))
        assert merged.provenance["candidates_evaluated"] == 21

    def test_ties_candidate_count_is_16(self, trained_setting):
        suite, cks = trained_setting
        merged = sweep_and_select(FusionConfig(algorithm="ties_merging"), cks,
                                  self.make_validation(suite))
        assert merged.provenance["candidates_evaluated"] == 16

    def test_selection_matches_exhaustive_oracle(self, trained_setting):
        suite, cks = trained_setting
        validation = self.make_validation(suite)
        cfg = FusionConfig(algorithm="task_arithmetic")
        merged = sweep_and_select(cfg, cks, validation)
        from fuselab.task_vectors import compute_task_vector as ctv

        vectors = [ctv(c) for c in sorted(cks, key=lambda c: c.task_id)]
        phi0 = cks[0].initial
        best_lam, best_score = None, -1.0
        for lam in sorted(cfg.lambda_grid):
            cand = task_arithmetic(phi0, vectors, lam)
            score = np.mean([merged_accuracy(cks[0], cand, validation[c.task_id]) for c in cks])
            if score > best_score:
                best_lam, best_score = lam, score
        assert merged.provenance["hyperparameters"]["lambda"] == best_lam
        assert merged.provenance["mean_validation_score"] == pytest.approx(best_score)

    def test_empty_validation_rejected(self, trained_setting):
        suite, cks = trained_setting
        with pytest.raises(ContractError):
            sweep_and_select(FusionConfig(algorithm="task_arithmetic"), cks, {})


class TestReplay:
    def test_replay_reproduces_bits(self):
        _, _, phi0, cks = make_checkpoints(n=3)
        vectors = [compute_task_vector(c) for c in cks]
        merged = ties_merge(phi0, vectors, k=0.5, lam=0.75)
        replayed = replay_merge(merged.provenance, cks)
        assert replayed.equal_bits(merged.trainable)

    def test_replay_lorahub_weights(self):
        suite = make_task_suite(n_tasks=2, seed=402, samples_per_split=32)
        spec = ModelSpec(input_dim=16, hidden_dims=(8,), num_classes=3,
                         lora_rank=2, mode=ModeTag.LORA)
        theta0, phi0 = build_model(spec, seed=402)
        cks = [Checkpoint(spec, t.id, 402,
                          phi0.with_flat(phi0.flatten() + 0.1 * np.random.default_rng(i).standard_normal(phi0.num_values)))
               for i, t in enumerate(suite.tasks)]
        vectors = [compute_task_vector(c) for c in cks]
        fewshot = first_rows(suite.tasks[0].val, 16)
        _, model = lorahub_optimize(spec, theta0, phi0, vectors, fewshot, max_steps=10)
        replayed = replay_merge(model.provenance, cks)
        assert replayed.equal_bits(model.trainable)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_replay_bit_identical_for_every_algorithm(trained_setting, algorithm):
    suite, cks = trained_setting
    validation = {t.id: t.val for t in suite.tasks}
    fewshot = first_rows(suite.tasks[0].val, 16)
    cfg = FusionConfig(algorithm=algorithm, lorahub_max_steps=10)
    merged = sweep_and_select(cfg, cks, validation, fewshot=fewshot, seed=3)
    replayed = replay_merge(merged.provenance, list(reversed(cks)))
    assert replayed.equal_bits(merged.trainable)


# --- properties over random congruent trees ------------------------------------

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def merge_cases(draw):
    """(initial tree, trained trees in task-id order, a permutation of them)."""
    shapes = draw(st.lists(st.lists(st.integers(1, 3), max_size=2).map(tuple),
                           min_size=1, max_size=3))
    n = draw(st.integers(2, 4))

    def tree():
        return ParamTree({f"p{i}": draw(hnp.arrays(np.float64, s, elements=finite))
                          for i, s in enumerate(shapes)})

    initial = tree()
    trained = [tree() for _ in range(n)]
    return initial, trained, draw(st.permutations(range(n)))


def as_vectors(initial, trained):
    """The task vectors ``trained`` make from ``initial``, as ``compute_task_vector`` gives them."""
    return [TaskVector(t.sub(initial), ModeTag.FULL_FT, f"task{i}") for i, t in enumerate(trained)]


AVERAGE_SPEC = ModelSpec(input_dim=2, hidden_dims=(), num_classes=2, mode=ModeTag.FULL_FT)


@st.composite
def average_cases(draw):
    """(checkpoints of ``AVERAGE_SPEC`` at seed 0 with arbitrary trained values, a permutation of them)."""
    n = draw(st.integers(2, 4))
    shapes = AVERAGE_SPEC.trainable_shapes()
    cks = [Checkpoint(AVERAGE_SPEC, f"task{i}", 0,
                      ParamTree({p: draw(hnp.arrays(np.float64, s, elements=finite)) for p, s in shapes.items()}))
           for i in range(n)]
    return cks, draw(st.permutations(range(n)))


@settings(max_examples=60, deadline=None)
@given(merge_cases(), average_cases(), st.sampled_from([0.25, 0.5, 0.75, 1.0]), st.sampled_from([0.3, 1.0]))
def test_merges_bit_invariant_under_permutation(case, average, k, lam):
    initial, trained, perm = case
    vectors = as_vectors(initial, trained)
    shuffled_vectors = [vectors[i] for i in perm]
    cks, order = average
    phi0 = cks[0].initial
    assert simple_average(phi0, [cks[i] for i in order]).trainable.equal_bits(
        simple_average(phi0, cks).trainable)
    assert task_arithmetic(initial, shuffled_vectors, lam).trainable.equal_bits(
        task_arithmetic(initial, vectors, lam).trainable)
    assert ties_merge(initial, shuffled_vectors, k, lam).trainable.equal_bits(
        ties_merge(initial, vectors, k, lam).trainable)


@settings(max_examples=60, deadline=None)
@given(merge_cases())
def test_task_arithmetic_lambda_zero_is_initial(case):
    initial, trained, _ = case
    vectors = as_vectors(initial, trained)
    assert task_arithmetic(initial, vectors, 0.0).trainable.equal_bits(initial)


@settings(max_examples=60, deadline=None)
@given(merge_cases(), st.sampled_from([0.25, 0.5, 0.75, 1.0]), st.sampled_from([0.25, 1.0]))
def test_ties_merge_matches_reference(case, k, lam):
    initial, trained, _ = case
    vectors = as_vectors(initial, trained)
    got = ties_merge(initial, vectors, k, lam).trainable.flatten()
    deltas = [list(map(float, v.delta.flatten())) for v in vectors]
    want = initial.flatten() + np.array(reference_ties(deltas, k, lam))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-9)


def test_lorahub_bit_invariant_under_permutation(setting):
    # The Nelder-Mead search draws no random numbers and the vectors are
    # sorted by task id, so input order cannot change the result.
    suite, spec, theta0, phi0, cks = setting
    vectors = [compute_task_vector(c) for c in cks]
    fewshot = first_rows(suite.tasks[0].val, 32)
    w1, m1 = lorahub_optimize(spec, theta0, phi0, vectors, fewshot, max_steps=20)
    w2, m2 = lorahub_optimize(spec, theta0, phi0, list(reversed(vectors)), fewshot, max_steps=20)
    assert w1 == w2
    assert m1.trainable.equal_bits(m2.trainable)


# --- linearized modes: affine scoring against the traced evaluate route -------


@pytest.fixture(scope="module")
def trained_llora_setting():
    suite = make_task_suite(n_tasks=2, seed=401, samples_per_split=64)
    spec = ModelSpec(input_dim=16, hidden_dims=(32, 32), num_classes=3,
                     lora_rank=2, mode=ModeTag.LLORA)
    cfg = TrainConfig(steps=120, learning_rate=0.02, shuffle_seed=5)
    cks = [finetune(spec, t, cfg, init_seed=401)[0] for t in suite.tasks]
    return suite, cks


def test_llora_selection_matches_exhaustive_oracle(trained_llora_setting):
    # The sweep scores l_lora candidates as axpys on tangent features; the
    # oracle scores every lambda through training.evaluate, i.e. one JVP at
    # the merged tree.
    suite, cks = trained_llora_setting
    validation = {t.id: t.val for t in suite.tasks}
    cfg = FusionConfig(algorithm="task_arithmetic")
    merged = sweep_and_select(cfg, cks, validation)
    vectors = [compute_task_vector(c) for c in sorted(cks, key=lambda c: c.task_id)]
    phi0 = cks[0].initial
    scores = {}
    for lam in sorted(cfg.lambda_grid):
        cand = task_arithmetic(phi0, vectors, lam)
        scores[lam] = np.mean([merged_accuracy(cks[0], cand, validation[c.task_id]) for c in cks])
    best_lam = max(scores, key=lambda lam: (scores[lam], -lam))
    assert len(set(scores.values())) > 1  # the grid is not flat, so the choice means something
    assert merged.provenance["hyperparameters"]["lambda"] == best_lam
    assert merged.provenance["mean_validation_score"] == pytest.approx(scores[best_lam])


def linear_lorahub_case(mode):
    spec, theta0, phi0, cks = make_checkpoints(n=3, seed=5, mode=mode)
    vectors = [compute_task_vector(c) for c in cks]
    rng = np.random.default_rng(6)
    fewshot = Dataset(rng.standard_normal((24, 4)), rng.integers(0, 3, size=24))
    return spec, theta0, phi0, vectors, fewshot


@pytest.mark.parametrize("mode", [ModeTag.FULL_LINEAR, ModeTag.LLORA])
def test_affine_lorahub_objective_matches_fewshot_loss(mode):
    spec, theta0, phi0, vectors, fewshot = linear_lorahub_case(mode)
    deltas = [v.delta.flatten() for v in vectors]
    objective = _lorahub_objective(spec, theta0, phi0, deltas, fewshot, alpha=0.05)
    for w in ([0.0, 0.0, 0.0], [1 / 3, 1 / 3, 1 / 3], [1.3, -0.4, 0.05]):
        tree = phi0.with_flat(combine(phi0.flatten(), deltas, w))
        want = _fewshot_loss(spec, theta0, phi0, tree, fewshot) + 0.05 * np.sum(np.abs(w))
        assert abs(objective(np.array(w)) - want) <= 1e-12 * max(abs(want), 1.0)


def test_non_finite_lorahub_candidate_scores_inf_and_is_never_selected(monkeypatch):
    spec, theta0, phi0, vectors, fewshot = linear_lorahub_case(ModeTag.LLORA)
    deltas = [v.delta.flatten() for v in vectors]
    huge = np.full(3, 1e308)
    objective = _lorahub_objective(spec, theta0, phi0, deltas, fewshot, alpha=0.05)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.all(np.isfinite(combine(phi0.flatten(), deltas, huge)))
        assert objective(huge) == np.inf

    budgets = []

    def probe(f, x0, maxfev, xatol, fatol):  # stands in for Nelder-Mead: one huge, one finite step
        budgets.append(maxfev)
        f(huge)
        f(np.array([0.5, 0.25, 0.0]))

    monkeypatch.setattr(fusion, "_nelder_mead", probe)
    weights, model = lorahub_optimize(spec, theta0, phi0, vectors, fewshot)
    assert budgets == [40 + 3 + 1]  # the search ran as the probe: max_steps + n + 1 evaluations
    assert weights in ([0.0, 0.0, 0.0], [0.5, 0.25, 0.0])
    assert np.isfinite(model.provenance["objective"])
    assert np.all(np.isfinite(model.trainable.flatten()))


@pytest.mark.parametrize("label", [3, 7])
@pytest.mark.parametrize("mode", [ModeTag.LORA, ModeTag.LLORA])
def test_lorahub_rejects_a_few_shot_label_outside_the_classes(mode, label):
    # A bad label used to be caught as a non-finite candidate: every weighting
    # scored inf, the search returned zero weights and provenance recorded an
    # infinite objective.
    spec, theta0, phi0, vectors, fewshot = linear_lorahub_case(mode)
    ys = fewshot.ys.copy()
    ys[5] = label
    with pytest.raises(ContractError, match="label out of range"):
        lorahub_optimize(spec, theta0, phi0, vectors, Dataset(fewshot.xs, ys), max_steps=4)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("mode", [ModeTag.LORA, ModeTag.FULL_LINEAR, ModeTag.LLORA])
def test_sweeps_sharing_scorers_across_subsets_match_their_own_scorers(algorithm, mode):
    # One scorer per task serves every subset, as in a fuse stage; the
    # provenance and merged bits equal those of sweeps that build their own.
    spec, theta0, phi0, cks = make_checkpoints(n=3, seed=9, mode=mode)
    rng = np.random.default_rng(10)
    validation = {c.task_id: Dataset(rng.standard_normal((40, 4)), rng.integers(0, 3, size=40))
                  for c in cks}
    fewshot = Dataset(rng.standard_normal((12, 4)), rng.integers(0, 3, size=12))
    config = FusionConfig(algorithm=algorithm, lambda_grid=(0.0, 0.3, 0.6, 0.9),
                          lorahub_max_steps=6)
    shared = scorers_for(cks, validation)
    by_id = {c.task_id: c for c in cks}
    for subset in enumerate_subsets(sorted(by_id)):
        sub = [by_id[t] for t in subset]
        own = sweep_and_select(config, sub, validation, fewshot=fewshot)
        reused = sweep_and_select(config, sub, validation, fewshot=fewshot, scorers=shared)
        assert reused.provenance == own.provenance
        assert reused.trainable.equal_bits(own.trainable)


def test_sweep_rejects_scorers_built_on_another_anchor():
    _, _, _, cks = make_checkpoints(n=2, seed=9, mode=ModeTag.LLORA)
    _, _, _, others = make_checkpoints(n=2, seed=19, mode=ModeTag.LLORA)
    rng = np.random.default_rng(11)
    validation = {c.task_id: Dataset(rng.standard_normal((20, 4)), rng.integers(0, 3, size=20))
                  for c in cks}
    config = FusionConfig(algorithm="task_arithmetic")
    with pytest.raises(ContractError, match="initial tree"):
        sweep_and_select(config, cks, validation, scorers=scorers_for(others, validation))


def test_sweep_rejects_scorers_on_other_rows_and_a_missing_task():
    # Scorers on the test rows used to run the sweep there and record those
    # scores as validation scores; a dict without a task raised a raw KeyError.
    _, _, _, cks = make_checkpoints(n=3, seed=9, mode=ModeTag.LLORA)
    rng = np.random.default_rng(12)
    validation, test = ({c.task_id: Dataset(rng.standard_normal((20, 4)), rng.integers(0, 3, size=20))
                         for c in cks} for _ in range(2))
    config = FusionConfig(algorithm="task_arithmetic")
    with pytest.raises(ContractError, match="'task0'.*validation inputs"):
        sweep_and_select(config, cks, validation, scorers=scorers_for(cks, test))
    partial = {t: s for t, s in scorers_for(cks, validation).items() if t != "task2"}
    with pytest.raises(ContractError, match="'task2'"):
        sweep_and_select(config, cks, validation, scorers=partial)


@pytest.fixture(scope="module")
def two_checkpoint_sets():
    """Per linearized mode, two checkpoint sets on one spec and initial tree,
    trained 300 and 60 steps."""
    suite = make_task_suite(n_tasks=2, seed=403, samples_per_split=64)
    sets = {}
    for mode in (ModeTag.FULL_LINEAR, ModeTag.LLORA):
        spec = ModelSpec(input_dim=16, hidden_dims=(32, 32), num_classes=3, lora_rank=2, mode=mode)
        sets[mode] = [[finetune(spec, t, TrainConfig(steps=steps, learning_rate=0.02), init_seed=403)[0]
                       for t in suite.tasks] for steps in (300, 60)]
    return {t.id: t.val for t in suite.tasks}, sets


@pytest.mark.parametrize("algorithm", ["task_arithmetic", "ties_merging"])
@pytest.mark.parametrize("mode", [ModeTag.FULL_LINEAR, ModeTag.LLORA])
def test_a_scorer_dict_reused_on_another_checkpoint_set_matches_fresh_scorers(two_checkpoint_sets, mode, algorithm):
    # The sets share the spec and the initial tree, so the sweep accepts the
    # dict; scoring the second set with the first set's JVPs used to choose
    # another merge.
    validation, sets = two_checkpoint_sets
    first, second = sets[mode]
    config = FusionConfig(algorithm=algorithm)
    scorers = scorers_for(first, validation)
    sweep_and_select(config, first, validation, scorers=scorers)
    reused = sweep_and_select(config, second, validation, scorers=scorers)
    fresh = sweep_and_select(config, second, validation)
    for field in ("hyperparameters", "validation_scores"):
        assert reused.provenance[field] == fresh.provenance[field]
    assert reused.trainable.digest() == fresh.trainable.digest()


def random_validation(cks, seed, rows=30):
    rng = np.random.default_rng(seed)
    return {c.task_id: Dataset(rng.standard_normal((rows, 4)), rng.integers(0, 3, size=rows))
            for c in cks}


@pytest.mark.parametrize("algorithm, built", [("task_arithmetic", 1), ("ties_merging", 2)])
@pytest.mark.parametrize("mode", [ModeTag.FULL_LINEAR, ModeTag.LLORA])
def test_a_sweep_releases_the_tangents_of_the_directions_it_built(monkeypatch, mode, algorithm, built):
    # The task-vector sum and the TIES merge vectors serve one sweep only, so
    # sweeping a subset again on the same scorer dict takes their JVPs again
    # on each validation set; they used to stay in the scorers for the stage.
    _, _, _, cks = make_checkpoints(n=3, seed=9, mode=mode)
    validation = random_validation(cks, 13)
    config = FusionConfig(algorithm=algorithm, lambda_grid=(0.0, 0.5, 1.0), ties_k_grid=(0.5, 1.0))
    scorers = scorers_for(cks, validation)
    calls = Calls(monkeypatch)
    first, second = (sweep_and_select(config, cks[:2], validation, scorers=scorers) for _ in range(2))
    assert second.provenance == first.provenance
    assert second.trainable.equal_bits(first.trainable)
    assert {x for x, _ in calls.jvps} == {key(validation[c.task_id].xs) for c in cks[:2]}
    assert len(calls.jvps) == 2 * built  # (validation set, direction) pairs
    assert set(calls.jvps.values()) == {2}


@pytest.mark.parametrize("mode", [ModeTag.FULL_LINEAR, ModeTag.LLORA])
def test_lorahub_sweeps_sharing_a_task_take_its_tangent_once_per_validation_set(monkeypatch, mode):
    # lorahub scores the task vectors themselves, which the next lorahub
    # sweep over these scorers asks for again, so the sweep keeps them.
    _, _, _, cks = make_checkpoints(n=3, seed=9, mode=mode)
    validation = random_validation(cks, 14)
    fewshot = Dataset(np.random.default_rng(15).standard_normal((12, 4)), np.arange(12) % 3)
    config = FusionConfig(algorithm="lorahub", lorahub_max_steps=4)
    scorers = scorers_for(cks, validation)
    calls = Calls(monkeypatch)
    for subset in ([cks[0], cks[1]], [cks[0], cks[2]]):
        sweep_and_select(config, subset, validation, fewshot=fewshot, scorers=scorers)
    val_jvps = {pair: n for pair, n in calls.jvps.items() if pair[0] != key(fewshot.xs)}
    # task0's set scores d0, d1, d2; task1's d0, d1; task2's d0, d2
    assert len(val_jvps) == 7
    assert set(val_jvps.values()) == {1}
    shared = (key(validation["task0"].xs), key(compute_task_vector(cks[0]).delta.flatten()))
    assert shared in val_jvps
