"""Model zoo: initialization, forward passes, and tangent-model behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuselab import autodiff as ad
from fuselab.autodiff import jvp
from fuselab.errors import ContractError
from fuselab.fusion import ties_trim
from fuselab.models import (
    LinearizedState,
    ModeTag,
    ModelSpec,
    Network,
    Scorer,
    build_model,
    forward,
    forward_linearized,
    predict_logits,
)
from fuselab.params import ParamTree, combine


def small_spec(mode, hidden=(8,), rank=2):
    return ModelSpec(input_dim=4, hidden_dims=hidden, num_classes=3,
                     lora_rank=rank, lora_alpha=2.0, mode=mode)


class TestBuildModel:
    def test_lora_init_matches_backbone(self):
        spec = small_spec(ModeTag.LORA)
        theta0, phi0 = build_model(spec, seed=5)
        x = np.random.default_rng(0).standard_normal((6, 4))
        lora_logits = forward(spec, theta0, phi0, x)
        full = spec.with_mode(ModeTag.FULL_FT)
        full_logits = forward(full, theta0, theta0, x)
        assert np.array_equal(lora_logits, full_logits)

    def test_same_seed_bit_identical(self):
        spec = small_spec(ModeTag.LLORA)
        t1, p1 = build_model(spec, seed=99)
        t2, p2 = build_model(spec, seed=99)
        assert t1.equal_bits(t2) and p1.equal_bits(p2)

    def test_backbone_shared_across_modes(self):
        t_full, _ = build_model(small_spec(ModeTag.FULL_FT), seed=17)
        t_lora, _ = build_model(small_spec(ModeTag.LORA), seed=17)
        assert t_full.equal_bits(t_lora)

    def test_lora_trainable_count_hand(self):
        # two layers, 4 -> 8 -> 3, r=2: 2*(4+8) + 2*(8+3) = 46
        spec = small_spec(ModeTag.LORA)
        _, phi0 = build_model(spec, seed=0)
        assert phi0.num_values == 46

    def test_rank_exceeding_layer_dims_rejected(self):
        with pytest.raises(ContractError):
            small_spec(ModeTag.LORA, hidden=(8,), rank=5)  # r > num_classes=3


class TestForward:
    def test_one_layer_hand_weights(self):
        spec = ModelSpec(input_dim=2, hidden_dims=(), num_classes=2, mode=ModeTag.FULL_FT)
        theta = ParamTree({
            "layers.0.weight": np.array([[1.0, 2.0], [3.0, 4.0]]),
            "layers.0.bias": np.array([0.5, -0.5]),
        })
        logits = forward(spec, theta, theta, np.array([[1.0, 1.0]]))
        assert np.array_equal(logits, [[3.5, 6.5]])

    def test_identical_rows_identical_logits(self):
        spec = small_spec(ModeTag.LORA)
        theta0, phi0 = build_model(spec, seed=3)
        row = np.random.default_rng(1).standard_normal(4)
        logits = forward(spec, theta0, phi0, np.stack([row, row]))
        assert np.array_equal(logits[0], logits[1])

    def test_incongruent_tree_rejected(self):
        spec = small_spec(ModeTag.LORA)
        theta0, _ = build_model(spec, seed=3)
        with pytest.raises(ContractError):
            forward(spec, theta0, theta0, np.zeros((1, 4)))


class TestForwardLinearized:
    def test_tangency_at_anchor(self):
        spec = small_spec(ModeTag.LLORA)
        theta0, phi0 = build_model(spec, seed=21)
        x = np.random.default_rng(2).standard_normal((5, 4))
        lin = forward_linearized(spec, theta0, LinearizedState(phi0, phi0), x)
        base = forward(spec, theta0, phi0, x)
        assert np.max(np.abs(lin - base)) <= 1e-12

    def test_scalar_taylor_hand_case(self):
        # f(phi) = phi^2 * x at phi0=1, phi=2, x=1: value 1, tangent 2 -> 3
        def f(p):
            return ad.mul(ad.mul(p, p), 1.0)

        value, tangent = jvp(f, np.float64(1.0), np.float64(2.0 - 1.0))
        assert float(value) + float(tangent) == pytest.approx(3.0, abs=1e-15)

    def test_exact_for_purely_linear_model(self):
        spec = ModelSpec(input_dim=3, hidden_dims=(), num_classes=2, mode=ModeTag.FULL_LINEAR)
        theta0, _ = build_model(spec, seed=4)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 3))
        phi = theta0.with_flat(theta0.flatten() + rng.standard_normal(theta0.num_values))
        lin = forward_linearized(spec, theta0, LinearizedState(theta0, phi), x)
        nonlin = forward(spec.with_mode(ModeTag.FULL_FT), theta0, phi, x)
        assert np.max(np.abs(lin - nonlin)) <= 1e-12

    def test_nonlinearized_mode_rejected(self):
        spec = small_spec(ModeTag.LORA)
        theta0, phi0 = build_model(spec, seed=6)
        with pytest.raises(ContractError):
            forward_linearized(spec, theta0, LinearizedState(phi0, phi0), np.zeros((1, 4)))


class TestTangentModelProperties:
    def test_exact_affinity_three_point(self):
        spec = small_spec(ModeTag.LLORA)
        theta0, phi0 = build_model(spec, seed=8)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((3, 4))
        delta = phi0.with_flat(rng.standard_normal(phi0.num_values))

        def at(a):
            phi = phi0.with_flat(phi0.flatten() + a * delta.flatten())
            return forward_linearized(spec, theta0, LinearizedState(phi0, phi), x)

        y0, y1, y2 = at(0.0), at(1.0), at(2.0)
        resid = np.max(np.abs(y2 - 2 * y1 + y0))
        scale = max(float(np.max(np.abs(y2))), 1e-12)
        assert resid / scale < 1e-8

    def test_first_order_agreement_eps_halving(self):
        spec = small_spec(ModeTag.LLORA)
        theta0, phi0 = build_model(spec, seed=10)
        rng = np.random.default_rng(11)
        x = rng.standard_normal((4, 4))
        d = rng.standard_normal(phi0.num_values)

        def gap(eps):
            phi = phi0.with_flat(phi0.flatten() + eps * d)
            lin = forward_linearized(spec, theta0, LinearizedState(phi0, phi), x)
            nonlin = forward(spec.with_mode(ModeTag.LORA), theta0, phi, x)
            return float(np.linalg.norm(nonlin - lin))

        ratio = gap(1e-3) / gap(5e-4)
        assert 3.5 <= ratio <= 4.5

    def test_backbone_never_mutated_by_forward(self):
        spec = small_spec(ModeTag.LORA)
        theta0, phi0 = build_model(spec, seed=12)
        before = {p: t.tobytes() for p, t in theta0.items()}
        forward(spec, theta0, phi0, np.random.default_rng(1).standard_normal((8, 4)))
        assert {p: t.tobytes() for p, t in theta0.items()} == before


# --- exact affinity of tangent models -----------------------------------------


@st.composite
def tangent_cases(draw):
    """(spec, seed) for a small random linearized network; lora_rank fits every layer."""
    mode = draw(st.sampled_from([ModeTag.FULL_LINEAR, ModeTag.LLORA]))
    dims = draw(st.lists(st.integers(1, 5), min_size=2, max_size=4))
    dims[-1] = max(dims[-1], 2)
    rank = draw(st.integers(1, min(min(a, b) for a, b in zip(dims, dims[1:]))))
    spec = ModelSpec(input_dim=dims[0], hidden_dims=tuple(dims[1:-1]), num_classes=dims[-1],
                     lora_rank=rank, mode=mode)
    return spec, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(tangent_cases(), st.floats(-3, 3), st.floats(-3, 3))
def test_tangent_logits_are_affine_in_the_parameters(case, a, b):
    # f(anchor + a*d1 + b*d2) - f(anchor) == a*(f(anchor + d1) - f(anchor))
    #                                       + b*(f(anchor + d2) - f(anchor)).
    # Exact in real arithmetic; in float64 only the rounding of the parameter
    # offsets and of the JVP differs, measured below 2e-15 of the largest term
    # over 3000 random cases, so the tolerance is 1e-12 of that term.
    spec, seed = case
    theta0, anchor = build_model(spec, seed=seed % 1000)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((5, spec.input_dim))
    base = anchor.flatten()
    d1, d2 = rng.standard_normal((2, base.size))

    def offset(flat):
        logits = predict_logits(spec, theta0, anchor, anchor.with_flat(flat), x)
        return logits - f0

    f0 = predict_logits(spec, theta0, anchor, anchor, x)
    o1, o2 = offset(base + d1), offset(base + d2)
    combined = offset(base + a * d1 + b * d2)
    scale = max(np.abs(a * o1).max(), np.abs(b * o2).max(), np.abs(f0).max(), 1.0)
    assert np.max(np.abs(combined - (a * o1 + b * o2))) <= 1e-12 * scale


# --- the affine fast path against the traced oracle ---------------------------


@pytest.mark.parametrize("mode", [ModeTag.FULL_LINEAR, ModeTag.LLORA])
@pytest.mark.parametrize("case", ["random", "ties_trim", "lorahub"])
def test_tangent_features_match_forward_linearized(mode, case):
    # The scorer's merge route, f(anchor) + Σ wᵢ·J·dᵢ, against
    # the tangent model evaluated at the merged tree anchor + Σ wᵢ·dᵢ. Equal
    # in real arithmetic; the float64 difference comes only from the order
    # of rounding, so the tolerance is 1e-12 of the largest term.
    spec = ModelSpec(input_dim=16, hidden_dims=(32, 32), num_classes=3, lora_rank=2, mode=mode)
    theta0, anchor = build_model(spec, seed=11)
    rng = np.random.default_rng(12)
    x = rng.standard_normal((64, 16))
    base = anchor.flatten()
    deltas = list(0.1 * rng.standard_normal((4, base.size)))
    if case == "random":
        directions, weights = deltas[:2], list(rng.uniform(-2.0, 2.0, size=2))
    elif case == "ties_trim":
        directions, weights = [ties_trim(deltas[0] + deltas[1], 0.25)], [0.75]
    else:
        directions, weights = deltas, list(rng.uniform(-1.5, 1.5, size=4))

    scorer = Scorer(spec, theta0, anchor, x)
    flat = combine(base, directions, weights)
    fast = scorer.candidates(flat[None], [directions], [weights])[0]
    oracle = forward_linearized(spec, theta0, LinearizedState(anchor, anchor.with_flat(flat)), x)
    f0 = scorer.candidates(base[None], [[]], [[]])[0]
    net = Network(spec, theta0, anchor)
    jds = [net.jvp(base, d, net.activations(base, x))[1] for d in directions]
    scale = max([np.abs(f0).max(), 1.0] + [abs(w) * np.abs(j).max() for w, j in zip(weights, jds)])
    assert np.max(np.abs(fast - oracle)) <= 1e-12 * scale
    assert np.abs(fast - f0).max() > 1e-6  # the directions move the logits


def test_tangent_features_without_directions_is_the_anchor_forward(monkeypatch):
    spec = small_spec(ModeTag.LLORA)
    theta0, anchor = build_model(spec, seed=3)
    x = np.random.default_rng(4).standard_normal((5, 4))
    want = forward_linearized(spec, theta0, LinearizedState(anchor, anchor), x)
    jvps = []
    monkeypatch.setattr(Network, "jvp", lambda *args: jvps.append(args))
    f0 = Scorer(spec, theta0, anchor, x).candidates(anchor.flatten()[None], [[]], [[]])[0]
    assert jvps == []
    assert np.array_equal(f0, want)


# --- one route from a merge candidate to its logits ---------------------------


@pytest.mark.parametrize("mode", list(ModeTag))
def test_candidate_logits_match_predict_logits(mode):
    # Two weightings of the same directions, so linearized modes reuse
    # their cached JVPs on the second call. Nonlinear modes run the same
    # program at the same vector and must agree bit for bit; linearized
    # modes differ from the traced oracle only in rounding order, so the
    # tolerance is 1e-12 of the largest term.
    spec = ModelSpec(input_dim=16, hidden_dims=(32, 32), num_classes=3, lora_rank=2, mode=mode)
    theta0, anchor = build_model(spec, seed=21)
    rng = np.random.default_rng(22)
    x = rng.standard_normal((64, 16))
    base = anchor.flatten()
    directions = list(0.1 * rng.standard_normal((2, base.size)))
    scorer = Scorer(spec, theta0, anchor, x)
    for weights in ([0.7, -1.3], [1.5, 0.25]):
        flat = combine(base, directions, weights)
        got = scorer.candidates(flat[None], [directions], [weights])[0]
        want = predict_logits(spec, theta0, anchor, anchor.with_flat(flat), x)
        if mode.is_linearized:
            f0 = predict_logits(spec, theta0, anchor, anchor, x)
            scale = max(np.abs(f0).max(), np.abs(want - f0).max(), 1.0)
            assert np.max(np.abs(got - want)) <= 1e-12 * scale
        else:
            assert np.array_equal(got, want)
        assert np.abs(got - predict_logits(spec, theta0, anchor, anchor, x)).max() > 1e-6


@pytest.mark.parametrize("mode", list(ModeTag))
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_candidate_logits_reject_a_non_finite_vector(mode, bad):
    spec = small_spec(mode)
    theta0, anchor = build_model(spec, seed=23)
    scorer = Scorer(spec, theta0, anchor, np.ones((2, 4)))
    flat = anchor.flatten().copy()  # the tree's own vector is read-only
    flat[0] = bad
    with pytest.raises(ContractError):
        scorer.candidates(flat[None], [[flat - anchor.flatten()]], [[1.0]])


@pytest.mark.parametrize("mode", list(ModeTag))
def test_candidate_logits_reject_overflowed_logits(mode):
    # Every trainable value at 1e308 is finite, but on all-ones inputs the
    # pre-activations of every layer overflow, so the logits (at the anchor,
    # for a linearized mode) are infinite.
    spec = small_spec(mode)
    theta0, built = build_model(spec, seed=24)
    anchor = built.with_flat(np.full(built.num_values, 1e308))
    scorer = Scorer(spec, theta0, anchor, np.ones((2, 4)))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ContractError):
        scorer.candidates(anchor.flatten()[None], [[]], [[]])


# --- a mixed batch against each candidate scored alone ------------------------


def mixed_batch(mode, rows=64):
    """A scorer's setting and a batch mixing direction groups like a TIES sweep:
    candidates with one name, with two names in either order, and with none,
    interleaved."""
    spec = ModelSpec(input_dim=16, hidden_dims=(32, 32), num_classes=3, lora_rank=2, mode=mode)
    theta0, anchor = build_model(spec, seed=31)
    rng = np.random.default_rng(32)
    x = rng.standard_normal((rows, 16))
    base = anchor.flatten()
    named = dict(zip("abc", 0.1 * rng.standard_normal((3, base.size))))
    plan = [("a",), ("b", "c"), (), ("a",), ("c", "b"), ("b", "c"), ("a",), ()]
    directions = [[named[name] for name in names] for names in plan]
    weights = [list(rng.uniform(-1.5, 1.5, size=len(names))) for names in plan]
    flats = np.stack([combine(base, d, w) for d, w in zip(directions, weights)])
    return spec, theta0, anchor, x, flats, directions, weights


@pytest.mark.parametrize("mode", list(ModeTag))
def test_batched_candidates_equal_the_one_candidate_route_bit_for_bit(mode):
    spec, theta0, anchor, x, flats, directions, weights = mixed_batch(mode)
    batched = Scorer(spec, theta0, anchor, x).candidates(flats, directions, weights)
    single = Scorer(spec, theta0, anchor, x)
    alone = np.stack([single.candidates(f[None], [d], [w])[0] for f, d, w in zip(flats, directions, weights)])
    # The oracle: f(anchor) + Σ wᵢ·J·dᵢ through combine for a tangent model, the network otherwise.
    net, base = Network(spec, theta0, anchor), anchor.flatten()
    acts = net.activations(base, x)
    oracle = np.stack([
        combine(acts[0], [net.jvp(base, v, acts)[1] for v in d], w) if mode.is_linearized
        else net.activations(f, x)[0] for f, d, w in zip(flats, directions, weights)])
    assert batched.shape == (len(flats), 64, 3)
    assert batched.tobytes() == alone.tobytes() == oracle.tobytes()
    assert len({row.tobytes() for row in batched}) == len(flats) - 1  # only the two () rows agree


@pytest.mark.parametrize("mode", list(ModeTag))
def test_batched_candidates_raise_the_one_candidate_errors(mode):
    spec = small_spec(mode)
    theta0, anchor = build_model(spec, seed=23)
    x = np.ones((2, 4))
    base = anchor.flatten()
    bad = base.copy()
    bad[0] = np.nan
    flats = np.stack([base, bad, base])
    directions = [[], [bad - base], []]
    weights = [[], [1.0], []]
    with pytest.raises(ContractError, match="candidate parameters must be finite"):
        Scorer(spec, theta0, anchor, x).candidates(bad[None], directions[1:2], weights[1:2])
    with pytest.raises(ContractError, match="candidate parameters must be finite"):
        Scorer(spec, theta0, anchor, x).candidates(flats, directions, weights)

    huge = anchor.with_flat(np.full(anchor.num_values, 1e308))
    scorer = Scorer(spec, theta0, huge, x)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ContractError, match="candidate logits must be finite"):
            scorer.candidates(huge.flatten()[None], [[]], [[]])
        with pytest.raises(ContractError, match="candidate logits must be finite"):
            scorer.candidates(np.stack([huge.flatten()] * 2), [[], []], [[], []])
        # Any non-finite flat is rejected before the first row is scored.
        with pytest.raises(ContractError, match="candidate parameters must be finite"):
            scorer.candidates(np.stack([huge.flatten(), bad]), [[], []], [[], []])


@pytest.mark.parametrize("mode", [ModeTag.FULL_LINEAR, ModeTag.LLORA])
def test_a_linearized_scorer_runs_the_anchor_and_each_named_jvp_once(mode, monkeypatch):
    spec, theta0, anchor, x, flats, directions, weights = mixed_batch(mode)
    calls = {"activations": 0, "jvp": 0}
    for name in calls:
        original = getattr(Network, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(Network, name, counted)
    scorer = Scorer(spec, theta0, anchor, x)
    scorer.candidates(flats, directions, weights)
    scorer.candidates(flats[::-1], directions[::-1], weights[::-1])
    for f, d, w in zip(flats, directions, weights):
        scorer.candidates(f[None], [d], [w])
    scorer.candidates(flats[:1], [[directions[0][0].copy()]], weights[:1])  # a bit-identical copy of a
    assert calls == {"activations": 1, "jvp": 3}  # the anchor once; vectors a, b, c once each
    for f in flats:  # the training route reuses the anchor and takes one JVP per call
        scorer.at(f)
    assert calls == {"activations": 1, "jvp": 3 + len(flats)}


@pytest.mark.parametrize("mode", [ModeTag.FULL_LINEAR, ModeTag.LLORA])
def test_a_released_vector_is_recomputed_with_the_same_bits(mode, monkeypatch):
    spec, theta0, anchor, x, flats, directions, weights = mixed_batch(mode)
    jvps = []
    jvp = Network.jvp
    monkeypatch.setattr(Network, "jvp", lambda net, *args: jvps.append(1) or jvp(net, *args))
    scorer = Scorer(spec, theta0, anchor, x)
    before = scorer.candidates(flats, directions, weights)
    a, b = directions[0][0], directions[1][0]
    scorer.release([a.copy(), np.zeros_like(a)])  # a by content; a vector never scored is ignored
    after = scorer.candidates(flats, directions, weights)
    assert len(jvps) == 3 + 1  # a, b, c, then a again; b and c stay cached
    assert after.tobytes() == before.tobytes()
    scorer.release([b])
    scorer.candidates(flats[1:2], directions[1:2], weights[1:2])
    assert len(jvps) == 5


# --- one kernel, many row sets ------------------------------------------------


@pytest.mark.parametrize("mode", list(ModeTag))
def test_a_scorer_moved_to_other_rows_equals_one_built_on_them(mode, monkeypatch):
    spec, theta0, anchor, x, flats, directions, weights = mixed_batch(mode)
    rng = np.random.default_rng(33)
    rows = rng.standard_normal((5, 16))
    head = Scorer(spec, theta0, anchor, x)
    before = head.candidates(flats, directions, weights)  # fills head's caches, which `on` must not share
    fresh = Scorer(spec, theta0, anchor, rows)
    built = []
    init = Network.__init__
    monkeypatch.setattr(Network, "__init__", lambda self, *args: built.append(1) or init(self, *args))
    moved = head.on(rows)
    ct = rng.standard_normal((5, 3))
    for flat in flats:
        (got, got_pullback), (want, want_pullback) = moved.at(flat), fresh.at(flat)
        assert got.tobytes() == want.tobytes()
        assert got_pullback(ct).tobytes() == want_pullback(ct).tobytes()
    got = moved.candidates(flats, directions, weights)
    assert got.shape == (len(flats), 5, 3)
    assert got.tobytes() == fresh.candidates(flats, directions, weights).tobytes()
    assert moved.jacobian().tobytes() == fresh.jacobian().tobytes()
    assert head.candidates(flats, directions, weights).tobytes() == before.tobytes()
    assert built == []  # neither `on` nor `jacobian` builds a kernel
    for bad in (rows[:, :-1], rows[0]):
        with pytest.raises(ContractError, match=r"input batch must have shape \(batch, 16\)"):
            head.on(bad)
        with pytest.raises(ContractError, match=r"input batch must have shape \(batch, 16\)"):
            Scorer(spec, theta0, anchor, bad)
