"""The in-package Nelder-Mead search against scipy's, iterate for iterate.

``fusion._nelder_mead`` repeats scipy's fixed-coefficient Nelder-Mead, so on
any objective it must hand ``f`` the same points, bit for bit, in the same
order, spend the same number of evaluations and return the same vertex.
"""

import numpy as np
import pytest

from fuselab.fusion import _lorahub_objective, _nelder_mead
from fuselab.models import ModeTag
from test_fusion import linear_lorahub_case

optimize = pytest.importorskip("scipy.optimize")


def scipy_search(f, x0, maxfev, xatol, fatol):
    options = {"maxfev": maxfev, "xatol": xatol, "fatol": fatol, "adaptive": False}
    result = optimize.minimize(f, x0, method="Nelder-Mead", options=options)
    return result.x, result.nfev


def run(search, make_f, x0, maxfev, xatol, fatol):
    """The points ``search`` evaluates, as bytes, plus its evaluation count and result."""
    f, seen = make_f(), []

    def recorded(x):
        seen.append(np.array(x, dtype=np.float64).tobytes())
        return f(x)

    with np.errstate(all="ignore"):  # the inf cases subtract inf from inf in the stop test
        x, nfev = search(recorded, np.array(x0, dtype=np.float64), maxfev, xatol, fatol)
    return seen, nfev, np.asarray(x, dtype=np.float64).tobytes()


def assert_same_search(make_f, x0, maxfev, xatol=1e-4, fatol=1e-4):
    ours = run(_nelder_mead, make_f, x0, maxfev, xatol, fatol)
    theirs = run(scipy_search, make_f, x0, maxfev, xatol, fatol)
    assert len(ours[0]) == len(theirs[0])
    assert ours[0] == theirs[0]
    assert ours[1] == theirs[1] == len(ours[0])
    assert ours[2] == theirs[2]
    return ours


def quadratic(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a = a @ a.T + 0.1 * np.eye(n)
    c = rng.standard_normal(n)
    return lambda: (lambda x: float((x - c) @ a @ (x - c)))


def rosenbrock():
    def f(x):
        if len(x) == 1:
            return float((1.0 - x[0]) ** 2)
        return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))
    return lambda: f


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_quadratics_match_scipy(n, seed):
    x0 = np.random.default_rng(100 + seed).standard_normal(n)
    assert_same_search(quadratic(n, seed), x0, maxfev=400, xatol=1e-10, fatol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rosenbrock_matches_scipy(n):
    assert_same_search(rosenbrock(), np.full(n, -1.2), maxfev=600)


@pytest.mark.parametrize("x0", [[0.0], [0.0, 0.0], [0.0, 0.7, 0.0], [1.5, 0.0, -0.3, 0.0]])
def test_zero_entries_of_x0_step_to_the_fixed_offset(x0):
    seen, _, _ = assert_same_search(quadratic(len(x0), 3), x0, maxfev=200)
    for k, v in enumerate(x0):  # vertex k + 1 of the initial simplex moves coordinate k
        step = np.frombuffer(seen[k + 1])[k]
        assert step == (0.00025 if v == 0 else 1.05 * v)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_objectives_that_return_inf_match_scipy(n):
    # The minimum lies beyond a wall of inf, and the initial simplex's last
    # vertex already stands behind it.
    def make_f():
        return lambda x: np.inf if x[0] > 0.4 or x[-1] > 0.26 else float(np.sum((x - 1.0) ** 2))

    seen, _, _ = assert_same_search(make_f, np.full(n, 0.25), maxfev=300)
    assert sum(make_f()(np.frombuffer(p)) == np.inf for p in seen) >= 3


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_plateaus_tie_like_scipy(n, seed):
    # A staircase objective makes equal values common, so every ``<`` and
    # ``<=`` of the search and the order of tied vertices after a sort matter.
    base = quadratic(n, seed)()

    def stairs(x):
        return float(np.floor(16.0 * base(x)))

    seen, _, _ = assert_same_search(lambda: stairs, np.ones(n), maxfev=200)
    values = [stairs(np.frombuffer(p)) for p in seen]
    assert len(set(values)) < len(values)


def forced_shrink(n):
    """A quadratic, and objectives that score it but inf on calls n + 2 and n + 3.

    Those calls are the first reflection and contraction; both fail, so the
    first iteration shrinks the simplex with calls n + 4 ... 2n + 3.
    """
    base = quadratic(n, 5)()

    def make_f():
        calls = [0]

        def f(x):
            calls[0] += 1
            return np.inf if calls[0] in (n + 2, n + 3) else base(x)
        return f
    return base, make_f


@pytest.mark.parametrize("n", [2, 3, 4])
def test_every_budget_matches_scipy_including_partway_through_a_shrink(n):
    base, make_f = forced_shrink(n)
    full, _, _ = assert_same_search(make_f, np.full(n, 0.5), maxfev=60)
    initial = sorted((np.frombuffer(p) for p in full[:n + 1]), key=base)
    halfway = initial[0] + 0.5 * (initial[1] - initial[0])  # the shrink's first point
    assert full[n + 3] == halfway.tobytes() and len(full) > 2 * n + 3
    for budget in range(1, len(full) + 1):  # n + 4 ... 2n + 2 end inside the shrink
        seen, nfev, _ = assert_same_search(make_f, np.full(n, 0.5), maxfev=budget)
        assert seen == full[:budget] and nfev == budget


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_flat_objective_stops_when_the_simplex_collapses(n):
    # Every iteration shrinks; with zero tolerances only exact equality of
    # every vertex and every value with the best stops the search.
    _, nfev, _ = assert_same_search(lambda: lambda x: 0.0, np.full(n, 0.5), maxfev=5000, xatol=0.0, fatol=0.0)
    assert nfev < 5000


@pytest.mark.parametrize("budget", [1, 2, 3])
def test_a_budget_spent_inside_the_initial_simplex_matches_scipy(budget):
    seen, nfev, _ = assert_same_search(quadratic(4, 6), [0.1, 0.0, -0.2, 0.3], maxfev=budget)
    assert nfev == len(seen) == budget


@pytest.mark.parametrize("mode", list(ModeTag))
def test_lorahub_objective_search_matches_scipy(mode):
    spec, theta0, phi0, vectors, fewshot = linear_lorahub_case(mode)
    deltas = [v.delta.flatten() for v in vectors]
    objective = _lorahub_objective(spec, theta0, phi0, deltas, fewshot, alpha=0.05)
    n, max_steps = len(deltas), 40
    _, nfev, _ = assert_same_search(lambda: objective, np.full(n, 1.0 / n),
                                    maxfev=max_steps + n + 1, xatol=1e-10, fatol=1e-12)
    assert nfev == max_steps + n + 1
