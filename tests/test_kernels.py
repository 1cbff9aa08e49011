"""The hot kernels return the very floats of their plain numpy forms.

Each ``_reference_*`` function below is a kernel written as a direct
transcription of its formula, one numpy call per operation.  The kernels in
``src/`` compute the same operations with fewer calls and temporaries, so
they must return the same bytes on every input: signed zeros, ties, points
exactly at a tolerance or at a bound included.
"""

import math
from bisect import bisect_right
from itertools import accumulate, product

import numpy as np
import pytest

from sfpsolve import inner, minefuku, prox
from sfpsolve.linops import norm, sfp_gradient
from sfpsolve.problem import (
    ProblemSpec,
    _stationarity_from_gradient,
    columns_and_gradient,
    sfp_residual_value,
    stationarity_residual,
)
from sfpsolve.sets import (
    Ball,
    Box,
    FullSpace,
    L1Ball,
    NonnegativeOrthant,
    Singleton,
)


def _same(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def _reference_soft_threshold(x, lam):
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)


def _reference_prox_l1_minus_l2(y, lam):
    y = np.asarray(y, dtype=float)
    y_inf = float(np.max(np.abs(y))) if y.size else 0.0
    if y_inf == 0.0:
        return np.zeros_like(y)
    if lam < y_inf:
        s = _reference_soft_threshold(y, lam)
        s_norm = float(np.linalg.norm(s))
        return ((lam + s_norm) / s_norm) * s
    magnitude = lam if lam == y_inf else y_inf
    i = int(np.argmax(np.abs(y)))
    out = np.zeros_like(y)
    out.flat[i] = magnitude * (1.0 if y.flat[i] > 0 else -1.0)
    return out


def _reference_l1_l2(x):
    x = np.asarray(x, dtype=float)
    return float(np.sum(np.abs(x)) - np.linalg.norm(x))


def _reference_sfp_residual_value(P, x):
    Ax = P.A @ x
    return 0.5 * float(np.sum((Ax - P.Q.project(Ax)) ** 2))


def _interval_bounds(C):
    """Componentwise bounds of a separable set as arrays, +-inf where unbounded."""
    n = C.dim
    if isinstance(C, FullSpace):
        return np.full(n, -np.inf), np.full(n, np.inf)
    if isinstance(C, NonnegativeOrthant):
        return np.zeros(n), np.full(n, np.inf)
    assert isinstance(C, Box)
    return C.lower.copy(), C.upper.copy()


def _reference_stationarity(P, x, g, coord_zero_tol=None, active_tol=1e-9):
    """The interval distance with both cones spelled out as +-inf arrays."""
    target = -g
    lower, upper = _interval_bounds(P.C)
    if coord_zero_tol is None:
        coord_zero_tol = 1e-8 * (1.0 + float(np.max(np.abs(x))))
    gamma = P.gamma
    nonzero = np.abs(x) > coord_zero_tol
    sub_lo = np.where(nonzero, gamma * np.sign(x), -gamma)
    sub_hi = np.where(nonzero, gamma * np.sign(x), gamma)
    cone_lo = np.where(x <= lower + active_tol, -np.inf, 0.0)
    cone_hi = np.where(x >= upper - active_tol, np.inf, 0.0)
    lo = sub_lo + cone_lo
    hi = sub_hi + cone_hi
    dist = np.maximum(lo - target, 0.0) + np.maximum(target - hi, 0.0)
    return float(np.linalg.norm(dist))


def _reference_smooth_gradient(P, x):
    Ax = P.A @ x
    g = P.A.T @ (Ax - P.Q.project(Ax))
    norm_x = float(np.linalg.norm(x))
    if norm_x > 0.0:
        g = g - P.gamma * (x / norm_x)
    return g


def _reference_l1_ball_project(C, x):
    mag = np.abs(x)
    if mag.sum() <= C.radius:
        return x.copy()
    u = np.sort(mag)[::-1]
    cumsum = np.cumsum(u) - C.radius
    idx = np.arange(1, x.shape[0] + 1)
    rho = np.nonzero(u > cumsum / idx)[0][-1]
    theta = cumsum[rho] / (rho + 1.0)
    return np.sign(x) * np.maximum(mag - theta, 0.0)


def _reference_ball_project(C, x):
    d = x - C.center
    dist = float(np.linalg.norm(d))
    if dist <= C.radius:
        return x.copy()
    if dist == 0.0:
        return C.center.copy()
    return C.center + (C.radius / dist) * d


def _reference_constrained_l1_prox_dr(anchor, thresh, C, budget, tau, fixed_point_tol=1e-12):
    y = 2.0 * _reference_soft_threshold(anchor, thresh) - anchor
    y_half = anchor
    used = 0
    for i in range(max(budget, 1)):
        y_half = C.project(0.5 * (y + anchor))
        y_next = y + tau * (_reference_soft_threshold(2.0 * y_half - y, thresh) - y_half)
        used = i + 1
        if float(np.linalg.norm(y_next - y)) <= fixed_point_tol:
            y = y_next
            break
        y = y_next
    return y_half, used


# -- prox ------------------------------------------------------------------

SIGNED = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0, -2.0, 1e-300, -1e-300, 3.25, -3.25])


def _read_only(x):
    x = np.array(x, dtype=float)
    x.setflags(write=False)
    return x


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 2.0, 3.25, 7.0])
def test_soft_threshold_matches_reference(lam):
    # |x| == lam and x = -0.0 give signed zeros; both forms must agree on them.
    for x in (SIGNED, _read_only(SIGNED)):
        got = prox.soft_threshold(x, lam)
        assert _same(got, _reference_soft_threshold(x, lam))
        assert got.flags.writeable and not np.shares_memory(got, x)
    # sign(x)*max(|x| - lam, 0) is +0.0 at a zero of either sign and keeps
    # the sign of every other entry, -0.0 where a negative one shrinks to 0.
    assert np.array_equal(np.signbit(got), SIGNED < 0)
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.standard_normal(40) * rng.choice([0.1, 1.0, 10.0])
        assert _same(prox.soft_threshold(x, lam), _reference_soft_threshold(x, lam))


def test_soft_threshold_keeps_scalar_input():
    for x, lam in product([0.0, -0.0, 0.5, -0.5, -3.0], [0.0, 1.0]):
        for arg in (x, np.float64(x), np.array(x), _read_only(x)):
            got = prox.soft_threshold(arg, lam)
            assert isinstance(got, np.ndarray) and got.shape == ()
            assert _same(got, _reference_soft_threshold(x, lam))


@pytest.mark.parametrize(
    "y, lam",
    [
        (SIGNED, 0.5),
        (SIGNED, 3.25),  # lam == ||y||_inf, tied at two indices
        (SIGNED, 4.0),
        (np.array([-0.0, 0.0]), 1.0),
        (np.array([2.0, -2.0, 2.0]), 1.0),
        (np.array([2.0, -2.0, 2.0]), 2.0),
        (_read_only(SIGNED), 0.5),
        (_read_only(SIGNED), 3.25),
        # 0-d input, in each regime.
        (np.array(-0.0), 1.0),
        (np.array(-3.0), 1.0),
        (_read_only(2.5), 1.0),
        (np.array(2.0), 2.0),  # lam == |y|
        (np.array(-2.0), 3.0),  # lam > |y|
    ],
)
def test_prox_l1_minus_l2_matches_reference(y, lam):
    got = prox.prox_l1_minus_l2(y, lam)
    assert _same(got, _reference_prox_l1_minus_l2(y, lam))
    assert got.shape == y.shape and not np.shares_memory(got, y)


def test_prox_l1_minus_l2_and_l1_l2_match_reference_on_random_draws():
    rng = np.random.default_rng(1)
    for _ in range(200):
        y = rng.standard_normal(30)
        y[rng.random(30) < 0.5] = 0.0
        lam = float(rng.choice([0.1, 1.0, np.max(np.abs(y)), 5.0]))
        assert _same(prox.prox_l1_minus_l2(y, lam), _reference_prox_l1_minus_l2(y, lam))
        assert _same(prox.l1_l2(y), _reference_l1_l2(y))
    # A strided view takes numpy's contiguous path, as np.linalg.norm does.
    z = rng.standard_normal(61)[::3]
    assert _same(prox.l1_l2(z), _reference_l1_l2(z))


def test_norm_is_numpys_norm():
    rng = np.random.default_rng(2)
    for n in (1, 2, 7, 256, 1000):
        v = rng.standard_normal(n) * 10.0 ** rng.integers(-5, 5)
        assert _same(norm(v), float(np.linalg.norm(v)))
        # A strided view is copied first, as np.linalg.norm does.
        w = np.repeat(v, 3)[1::3]
        assert not w.flags.c_contiguous or n == 1
        assert _same(norm(w), float(np.linalg.norm(w)))
    assert norm(np.array([-0.0, 0.0])) == 0.0



def test_norm_rescales_where_the_squared_norm_overflows():
    # v.dot(v) overflows, and warns; the norm itself is a float.
    with np.errstate(over="ignore"):
        assert norm(np.array([3e200, -4e200])) == pytest.approx(5e200, rel=1e-15)
        assert norm(np.array([1e308, 1e308])) == pytest.approx(np.sqrt(2.0) * 1e308, rel=1e-15)
        # The norm itself exceeds the largest float.
        assert norm(np.full(4, 1.7e308)) == np.inf
        assert norm(np.array([np.inf, 1.0])) == np.inf
    with np.errstate(invalid="ignore"):
        assert np.isnan(norm(np.array([np.nan, 1e200])))

# -- problem ---------------------------------------------------------------


def _problem(C, n, seed=0, gamma=0.3):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((5, n))
    return ProblemSpec(A=A, C=C, Q=Singleton(rng.standard_normal(5)), gamma=gamma)


def test_sfp_residual_value_matches_reference():
    rng = np.random.default_rng(3)
    for Q in (Singleton(rng.standard_normal(5)), Ball(np.zeros(5), 0.5), FullSpace(5)):
        P = ProblemSpec(A=rng.standard_normal((5, 8)), C=FullSpace(8), Q=Q, gamma=0.2)
        for _ in range(20):
            x = rng.standard_normal(8)
            assert _same(sfp_residual_value(P, x), _reference_sfp_residual_value(P, x))


N = 12
TOL = 1e-3
ACTIVE = 1e-9  # the active-bound tolerance of _stationarity_from_gradient
LOWER = np.array([-1.0, -1.0, 0.0, 0.5, -2.0, -1.0, 0.0, -0.5, -1.0, -3.0, 0.25, -1.0])
UPPER = np.array([1.0, 2.0, 0.0, 0.5, 2.0, 1.0, 1.0, 0.5, 1.0, 3.0, 0.25, -0.5])
SEPARABLE = [FullSpace(N), NonnegativeOrthant(N), Box(LOWER, UPPER)]


def _special_points(C, gamma, rng):
    """x with coordinates at the zero tolerance and at the bounds; g at +-gamma."""
    lower, upper = _interval_bounds(C)
    lo = np.where(np.isfinite(lower), lower, -2.0)
    hi = np.where(np.isfinite(upper), upper, 2.0)
    picks = [
        np.zeros(N),
        np.full(N, -0.0),
        np.full(N, TOL),
        np.full(N, -TOL),
        np.nextafter(np.full(N, TOL), 1.0),
        lo,
        hi,
        lo + ACTIVE,
        hi - ACTIVE,
        np.nextafter(lo + ACTIVE, 3.0),
        rng.uniform(lo, hi),
    ]
    gs = [
        np.full(N, gamma),
        np.full(N, -gamma),
        np.zeros(N),
        np.full(N, -0.0),
        rng.standard_normal(N),
        rng.standard_normal(N) * gamma,
    ]
    for _ in range(60):
        x = np.choose(rng.integers(0, len(picks), N), picks)
        g = np.choose(rng.integers(0, len(gs), N), gs)
        yield x, g


@pytest.mark.parametrize("C", SEPARABLE, ids=repr)
def test_stationarity_matches_reference_at_tolerances_and_bounds(C):
    P = _problem(C, N, gamma=0.3)
    rng = np.random.default_rng(4)
    for x, g in _special_points(C, P.gamma, rng):
        assert _same(_stationarity_from_gradient(P, x, g), _reference_stationarity(P, x, g))
        # The zero tolerance scales with max|x_i|: coordinates at it, at its
        # negative and just above it.
        tol = 1e-8 * (1.0 + float(np.max(np.abs(x))))
        x = x.copy()
        x[:3] = tol, -tol, np.nextafter(tol, 1.0)
        assert _same(_stationarity_from_gradient(P, x, g), _reference_stationarity(P, x, g))


@pytest.mark.parametrize(
    "C",
    [FullSpace(40), NonnegativeOrthant(40), Box(np.linspace(-1.0, 0.0, 40), np.linspace(0.0, 1.0, 40))],
    ids=repr,
)
def test_stationarity_matches_reference_on_random_draws(C):
    n = C.dim
    P = _problem(C, n, seed=5, gamma=0.7)
    rng = np.random.default_rng(6)
    for _ in range(300):
        x = C.project(rng.standard_normal(n) * rng.choice([1e-9, 0.1, 1.0]))
        x[rng.random(n) < 0.6] = 0.0
        x = C.project(x)
        g = rng.standard_normal(n) * rng.choice([0.1, 1.0, 3.0])
        assert _same(_stationarity_from_gradient(P, x, g), _reference_stationarity(P, x, g))
        assert _same(
            stationarity_residual(P, x),
            _reference_stationarity(P, x, _reference_smooth_gradient(P, x)),
        )


# -- sets ------------------------------------------------------------------


@pytest.mark.parametrize(
    "x, radius",
    [
        (np.array([0.25, -0.25, 0.0]), 1.0),  # inside
        (np.array([0.5, -0.25, 0.25]), 1.0),  # on the boundary
        (np.array([1.0, 1.0, -1.0, 1.0]), 2.0),  # tied magnitudes
        (np.array([1.0, -1.0, 1.0, -1.0]), 1.0),  # ties, all kept
        (np.array([3.0, -0.0, 0.0, -3.0, 1.0]), 2.5),
        (np.array([-5.0, 0.0, 0.0]), 1.0),
    ],
)
def test_l1_ball_projection_matches_reference(x, radius):
    C = L1Ball(radius, x.shape[0])
    assert _same(C.project(x), _reference_l1_ball_project(C, x))


def test_l1_ball_projection_matches_reference_on_random_draws():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(1, 60))
        C = L1Ball(float(rng.choice([0.1, 1.0, 10.0])), n)
        x = rng.standard_normal(n) * rng.choice([0.01, 1.0, 10.0])
        x[rng.random(n) < 0.3] = rng.choice([0.0, 1.0, -1.0])
        assert _same(C.project(x), _reference_l1_ball_project(C, x))


def test_ball_projection_matches_reference():
    rng = np.random.default_rng(8)
    for C in (Ball(np.zeros(6), 1.0), Ball(rng.standard_normal(6), 0.5), Ball(np.ones(6), 0.0)):
        for x in (C.center.copy(), C.center + 0.1, rng.standard_normal(6) * 3.0):
            assert _same(C.project(x), _reference_ball_project(C, x))
        for _ in range(50):
            x = rng.standard_normal(6) * rng.choice([0.1, 1.0, 10.0])
            assert _same(C.project(x), _reference_ball_project(C, x))


# -- inner -----------------------------------------------------------------

DR_SETS = [
    FullSpace(20),
    NonnegativeOrthant(20),
    Box(-0.3 * np.ones(20), 0.4 * np.ones(20)),
    L1Ball(1.5, 20),
    Ball(np.zeros(20), 1.0),
    Ball(np.full(20, 0.2), 0.7),
]


@pytest.mark.parametrize("C", DR_SETS, ids=repr)
@pytest.mark.parametrize("tau, budget", [(1.0, 1), (1.0, 7), (1.3, 7), (0.6, 12)])
def test_dr_loop_matches_reference(C, tau, budget):
    rng = np.random.default_rng(9)
    for _ in range(10):
        anchor = rng.standard_normal(20)
        thresh = float(rng.choice([0.05, 0.3, 1.0]))
        got = inner._constrained_l1_prox_dr(anchor, thresh, C, budget, tau)
        want = _reference_constrained_l1_prox_dr(anchor, thresh, C, budget, tau)
        assert got[1] == want[1]
        assert _same(got[0], want[0])


# -- trace columns ----------------------------------------------------------


def _reference_columns(P, x, in_C):
    """The l1-l2 trace columns, the gradient and ``Ax``, each from its own formula."""
    g = _reference_smooth_gradient(P, x)
    if isinstance(P.C, (FullSpace, NonnegativeOrthant, Box)):
        grad_residual = _reference_stationarity(P, x, g)
    else:
        grad_residual = float(np.linalg.norm(x - P.C.project(_reference_soft_threshold(x - g, P.gamma))))
    sfp = _reference_sfp_residual_value(P, x)
    columns = {
        "objective": sfp + P.gamma * _reference_l1_l2(x) if in_C else float("inf"),
        "grad_residual": grad_residual,
        "sfp_residual": sfp,
    }
    return columns, g, P.A @ x


@pytest.mark.parametrize(
    "C", [*SEPARABLE, L1Ball(2.0, N), Ball(np.full(N, 0.1), 1.5)], ids=repr
)
def test_columns_and_gradient_match_reference(C):
    # One |x| and one ||x||_2 serve the objective, the gradient and the
    # stationarity column.
    P = _problem(C, N, seed=7, gamma=0.3)
    rng = np.random.default_rng(8)
    points = [x for x, _ in _special_points(SEPARABLE[2], P.gamma, rng)]
    points += [rng.standard_normal(N) * scale for scale in (1e-9, 1.0, 1e3)]
    for x in points:
        for in_C in (True, False):
            columns, g, Ax = columns_and_gradient(P, x, in_C)
            want_columns, want_g, want_Ax = _reference_columns(P, x, in_C)
            assert columns.keys() == want_columns.keys()
            assert all(_same(columns[k], want_columns[k]) for k in columns)
            assert _same(g, want_g) and _same(Ax, want_Ax)


@pytest.mark.parametrize(
    "C", [*SEPARABLE, L1Ball(2.0, N), Ball(np.full(N, 0.1), 1.5)], ids=repr
)
def test_kernels_given_the_image_match_their_plain_calls(C):
    # fb, cq and mcq compute A x once per record and hand it to these kernels.
    rng = np.random.default_rng(9)
    targets = (Singleton(rng.standard_normal(5)), Ball(np.full(5, 0.2), 0.5), FullSpace(5))
    for Q in targets:
        P = ProblemSpec(A=rng.standard_normal((5, N)), C=C, Q=Q, gamma=0.3)
        for x, _ in _special_points(SEPARABLE[2], P.gamma, rng):
            Ax = P.A @ x
            assert _same(sfp_residual_value(P, x, _Ax=Ax), sfp_residual_value(P, x))
            assert _same(sfp_gradient(P.A, Q, x, _Ax=Ax), sfp_gradient(P.A, Q, x))
            assert _same(stationarity_residual(P, x, _Ax=Ax), stationarity_residual(P, x))
            # The image is reused after each call, so no call may change it.
            assert _same(Ax, P.A @ x)


# -- mf line search ------------------------------------------------------


def _reference_segment_phi(P, x_k, d, lam):
    """``gamma_objective(P, x_k + lam*d)`` from the breakpoint form of ``||x||_1``.

    The prefix sums of ``|d_i|`` and ``|d_i|*beta_i`` are sequential sums in
    breakpoint order, written as a plain Python accumulation.
    """
    moving = d != 0.0
    x_m, d_m = x_k[moving], d[moving]
    beta = -x_m / d_m
    order = np.argsort(beta)
    W = list(accumulate(np.abs(d_m)[order].tolist(), initial=0.0))
    V = list(accumulate((-np.sign(d_m) * x_m)[order].tolist(), initial=0.0))
    j = bisect_right(beta[order].tolist(), lam)
    l1 = lam * (2.0 * W[j] - W[-1]) - (2.0 * V[j] - V[-1]) + float(np.abs(x_k[~moving]).sum())
    if not isinstance(P.C, FullSpace) and lam > 1.0 and not P.C.contains(x_k + lam * d):
        return math.inf
    e, c, lam0 = minefuku._squared_norm_along(x_k, d)
    l2 = math.sqrt(e + c * (lam - lam0) ** 2)
    Ax_k, Ad = P.A @ x_k, P.A @ d
    if isinstance(P.Q, Ball):
        p, t, lam_q = minefuku._squared_norm_along(Ax_k - P.Q.center, Ad)
        q = p + t * (lam - lam_q) ** 2
        residual = 0.5 * q if P.Q.radius == 0.0 else 0.5 * max(math.sqrt(q) - P.Q.radius, 0.0) ** 2
    else:
        Ax = Ax_k + lam * Ad
        r = Ax - P.Q.project(Ax)
        residual = 0.5 * float(r @ r)
    return residual + P.gamma * (l1 - l2)


@pytest.mark.parametrize("C", [FullSpace(30), L1Ball(5.0, 30)], ids=repr)
@pytest.mark.parametrize("target", ["singleton", "ball", "ball-radius-0", "box"])
def test_segment_objective_matches_reference(C, target):
    # Covers the prefix sums and, for C = R^n and a ball Q, the inlined residual.
    rng = np.random.default_rng(24)
    A = rng.standard_normal((12, 30))
    b = rng.standard_normal(12)
    Q = {
        "singleton": Singleton(b),
        "ball": Ball(b, 1.1 * np.linalg.norm(b)),
        "ball-radius-0": Ball(b, 0.0),
        "box": Box(b - 0.5, b + 0.5),
    }[target]
    P = ProblemSpec(A=A, C=C, Q=Q, gamma=0.3)
    half = C if isinstance(C, FullSpace) else L1Ball(C.radius / 2.0, 30)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        x_k = half.project(3.0 * rng.standard_normal(30))
        x_t = half.project(3.0 * rng.standard_normal(30))
        x_t[:5] = x_k[:5]
        x_k[5:8] = x_t[5:8] = 0.0
        segments = [
            (x_k, x_t - x_k),
            (np.zeros(30), x_t),
            (x_k, -1.7 * x_k),
            (x_k, -x_k * np.resize([1.5, 1.25, 0.3], 30)),
            (x_k, np.zeros(30)),
        ]
        for x, d in segments:
            phi = minefuku._segment_objective(P, x, d, A @ x, A @ d)
            moving = d != 0.0
            lams = np.concatenate([np.linspace(0.0, 2.0, 41), -x[moving] / d[moving]])
            for lam in lams[(lams >= 0.0) & (lams <= 2.0)].tolist():
                assert _same(phi(lam), _reference_segment_phi(P, x, d, lam))
