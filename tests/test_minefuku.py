import math
import sys

import numpy as np
import pytest

from sfpsolve import minefuku, sets
from sfpsolve.minefuku import (
    MfOptions,
    direction_minimizer,
    mf_direction,
    mf_line_search,
    solve_mf,
)
from sfpsolve.harness import SparseSpec, gen_sparse_recovery
from sfpsolve.linops import norm
from sfpsolve.oracles import grid_minimize
from sfpsolve.problem import (
    ConfigurationError,
    ProblemSpec,
    Status,
    columns_and_gradient,
    gamma_objective,
    stationarity_residual,
)
from sfpsolve.prox import soft_threshold
from sfpsolve.sets import Ball, Box, FullSpace, L1Ball, NonnegativeOrthant, Singleton


def unit_problem(b, gamma=0.5, C=None):
    n = len(b)
    return ProblemSpec(A=np.eye(n), C=C or FullSpace(n), Q=Singleton(np.asarray(b, float)), gamma=gamma)


def test_direction_zero_coefficient():
    assert np.array_equal(direction_minimizer([0.0, 0.0], 1.0, 1.0, FullSpace(2)), [0.0, 0.0])


def test_direction_closed_form_fullspace():
    assert np.array_equal(direction_minimizer([-3.0, 0.0], 1.0, 1.0, FullSpace(2)), [2.0, 0.0])


def test_direction_closed_form_box():
    assert np.array_equal(
        direction_minimizer([-3.0, 0.0], 1.0, 1.0, Box([0.0, 0.0], [1.0, 1.0])), [1.0, 0.0]
    )


@pytest.mark.parametrize(
    "C,lo,hi",
    [
        (FullSpace(2), [-3.0, -3.0], [3.0, 3.0]),
        (Box([0.0, 0.0], [1.0, 1.0]), [0.0, 0.0], [1.0, 1.0]),
        # Of the grid's 201 x 201 points only the singleton's is feasible.
        (Singleton([0.5, -0.25]), [0.4, -0.35], [0.6, -0.15]),
    ],
)
def test_direction_matches_grid(C, lo, hi):
    w = np.array([-3.0, 0.4])
    gamma, mu = 1.0, 1.0

    def objective_batch(V):
        return w @ V + gamma * np.sum(np.abs(V), axis=0) + 0.5 * mu * np.sum(V * V, axis=0)

    _, grid_val = grid_minimize(objective_batch, C, lo, hi, 1e-3)
    x = direction_minimizer(w, gamma, mu, C)
    val = float(w @ x) + gamma * np.sum(np.abs(x)) + 0.5 * mu * float(x @ x)
    assert abs(val - grid_val) <= 1e-3


def _subproblem_value(w, gamma, mu, x):
    return float(w @ x) + gamma * float(np.sum(np.abs(x))) + 0.5 * mu * float(x @ x)


def _reference_dr(w, gamma, mu, C, tol=1e-14, max_iter=400_000):
    """Douglas-Rachford on the direction subproblem: ``(minimizer, iterations)``.

    It splits the constraint (a projection) from the rest, whose prox is the
    closed-form shrink ``soft_threshold(z - w, gamma)/(1 + mu)`` at scale 1,
    and stops when the driver sequence moves by at most ``tol*(1 + ||y||)``.
    """
    y = np.zeros_like(w)
    for k in range(1, max_iter + 1):
        x = C.project(y)
        u = soft_threshold(2.0 * x - y - w, gamma) / (1.0 + mu)
        y_next = y + u - x
        done = norm(y_next - y) <= tol * (1.0 + norm(y))
        y = y_next
        if done:
            break
    return C.project(y), k


def _grid_check(w, gamma, mu, C, lo, hi):
    """The direction's objective against the 2-D grid minimum at pitch 1e-3."""

    def objective_batch(V):
        return w @ V + gamma * np.sum(np.abs(V), axis=0) + 0.5 * mu * np.sum(V * V, axis=0)

    _, grid_val = grid_minimize(objective_batch, C, lo, hi, 1e-3)
    x = direction_minimizer(w, gamma, mu, C)
    assert C.contains(x)
    value = _subproblem_value(w, gamma, mu, x)
    # The grid approximates the minimum from above, within its resolution.
    assert grid_val - 1e-2 <= value <= grid_val + 1e-12


def test_direction_splitting_agrees_with_closed_form():
    # The DR reference and the closed forms solve the same strongly convex
    # subproblem.  At these w a radius of 20 leaves the constraint inactive
    # and a radius of 0.3 makes it active.
    sets = [
        NonnegativeOrthant(5),
        L1Ball(20.0, 5),
        L1Ball(0.3, 5),
        Ball(np.zeros(5), 20.0),
        Ball(np.zeros(5), 0.3),
    ]
    gamma, mu = 0.7, 0.9
    for C in sets:
        rng = np.random.default_rng(4)
        for _ in range(10):
            w = 2.0 * rng.standard_normal(5)
            exact = direction_minimizer(w, gamma, mu, C)
            iterated, _ = _reference_dr(w, gamma, mu, C)
            assert np.linalg.norm(exact - iterated) <= 1e-7, C
            closed, split = (_subproblem_value(w, gamma, mu, x) for x in (exact, iterated))
            assert closed <= split + 1e-12 * max(1.0, abs(split)), C


def test_direction_on_l1_ball_is_exact():
    # gamma = 0.5, mu = 1.  w = (-4, 1): soft_threshold gives (3.5, -0.5) and
    # the unit l1 ball shrinks it by 2.5 more to (1, 0).  w = (-3, 2.75):
    # (2.5, -2.25) shrinks by 0.875 onto the radius-3 ball, to
    # (1.625, -1.375); the splitting iteration is off here by ~1e-11.
    x = direction_minimizer([-4.0, 1.0], 0.5, 1.0, L1Ball(1.0, 2))
    assert np.array_equal(x, [1.0, 0.0])
    x = direction_minimizer([-3.0, 2.75], 0.5, 1.0, L1Ball(3.0, 2))
    assert np.array_equal(x, [1.625, -1.375])


@pytest.mark.parametrize("C", [L1Ball(0.5, 4), Ball(np.zeros(4), 0.5)], ids=repr)
def test_direction_closed_form_needs_no_splitting(C, monkeypatch):
    # No loop: the l1 ball projects once, the ball's scan not at all.
    calls = []
    project = type(C).project

    def counting(self, x):
        calls.append(1)
        return project(self, x)

    monkeypatch.setattr(type(C), "project", counting)
    for mu in (1.5, 0.0):
        calls.clear()
        x = direction_minimizer([-3.0, 2.0, 0.1, -0.5], 0.4, mu, C)
        assert len(calls) == (int(mu > 0.0) if isinstance(C, L1Ball) else 0)
        assert C.contains(x, 1e-12)


def test_direction_off_centre_ball_matches_grid():
    # A ball that does not contain the origin takes the multiplier scan.
    C = Ball(np.array([1.5, -1.0]), 0.8)
    w = np.array([-3.0, 0.4])
    gamma, mu = 1.0, 1.0

    def objective_batch(V):
        return w @ V + gamma * np.sum(np.abs(V), axis=0) + 0.5 * mu * np.sum(V * V, axis=0)

    _, grid_val = grid_minimize(objective_batch, C, [0.7, -1.8], [2.3, -0.2], 1e-3)
    x = direction_minimizer(w, gamma, mu, C)
    assert C.contains(x, 1e-8)
    assert abs(_subproblem_value(w, gamma, mu, x) - grid_val) <= 1e-3


def test_direction_on_l1_ball_is_feasible_and_optimal():
    rng = np.random.default_rng(6)
    C = L1Ball(1.0, 2)
    w = np.array([-4.0, 1.0])
    x = direction_minimizer(w, 0.5, 1.0, C)
    assert C.contains(x, 1e-8)

    def objective_batch(V):
        return w @ V + 0.5 * np.sum(np.abs(V), axis=0) + 0.5 * np.sum(V * V, axis=0)

    _, grid_val = grid_minimize(objective_batch, C, [-1.0, -1.0], [1.0, 1.0], 1e-3)
    val = float(w @ x) + 0.5 * np.sum(np.abs(x)) + 0.5 * float(x @ x)
    assert abs(val - grid_val) <= 1e-3


@pytest.mark.parametrize("mu", [0.0, 0.3, 1.0, 5.0])
@pytest.mark.parametrize("kind", ["off-centre", "origin", "zero-entries", "l1ball"])
def test_direction_matches_the_dr_reference(kind, mu):
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        w = 2.0 * rng.standard_normal(n)
        gamma = rng.uniform(0.1, 1.5)
        C = {
            "off-centre": lambda: Ball(rng.standard_normal(n), rng.uniform(0.2, 4.0)),
            "origin": lambda: Ball(np.zeros(n), rng.uniform(0.2, 4.0)),
            "zero-entries": lambda: Ball(
                rng.standard_normal(n) * (rng.random(n) < 0.5), rng.uniform(0.2, 4.0)
            ),
            "l1ball": lambda: L1Ball(rng.uniform(0.2, 2.0), n),
        }[kind]()
        x = direction_minimizer(w, gamma, mu, C)
        reference, iterations = _reference_dr(w, gamma, mu, C)
        assert iterations < 400_000
        assert C.contains(x)
        assert np.linalg.norm(x - reference) <= 1e-10
        value, best = (_subproblem_value(w, gamma, mu, v) for v in (x, reference))
        assert abs(value - best) <= 1e-10


@pytest.mark.parametrize(
    "C,mu,lo,hi",
    [
        (Ball(np.array([1.5, -1.0]), 0.8), 0.0, [0.7, -1.8], [2.3, -0.2]),
        (Ball(np.zeros(2), 1.0), 0.0, [-1.0, -1.0], [1.0, 1.0]),
        (Ball(np.array([0.0, 0.8]), 1.0), 0.5, [-1.0, -0.2], [1.0, 1.8]),
        (Ball(np.array([0.0, 0.8]), 1.0), 0.0, [-1.0, -0.2], [1.0, 1.8]),
        # The origin lies on the sphere.
        (Ball(np.array([0.6, -0.8]), 1.0), 0.0, [-0.4, -1.8], [1.6, 0.2]),
        (L1Ball(1.5, 2), 0.0, [-1.5, -1.5], [1.5, 1.5]),
    ],
    ids=["off-centre-mu-0", "origin-mu-0", "zero-entry-centre", "zero-entry-centre-mu-0",
         "origin-on-sphere-mu-0", "l1ball-mu-0"],
)
def test_exact_direction_matches_grid(C, mu, lo, hi):
    _grid_check(np.array([-3.0, 0.4]), 1.0, mu, C, lo, hi)


def test_unshifted_l1_direction_is_the_vertex_at_the_lowest_tied_index():
    C = L1Ball(2.0, 4)
    x = direction_minimizer([1.0, -3.0, 3.0, -3.0], 0.5, 0.0, C)
    assert np.array_equal(x, [0.0, 2.0, 0.0, 0.0])
    # ||w||_inf = gamma: the objective is nonnegative on C, and 0 at 0.
    x = direction_minimizer([0.5, -0.5, 0.2, 0.0], 0.5, 0.0, C)
    assert np.array_equal(x, np.zeros(4))


@pytest.mark.parametrize("c", [[0.3, -0.2, 0.0], [-2.0, 0.5, 0.0], [-2.0, 1.5, 0.0]])
def test_unshifted_ball_direction_where_the_inf_norm_equals_gamma(c):
    # ||w||_inf = gamma makes the objective nonnegative, and 0 wherever
    # x_1 = 0 and x_0, x_2 <= 0.  The first ball holds the origin; the
    # second holds (-2, 0, 0), the limit lam -> 0 of x(lam); the third holds
    # no such point, and its minimum lies on the sphere.
    w, gamma = np.array([0.5, -0.2, 0.5]), 0.5
    C = Ball(np.array(c), 1.0)
    x = direction_minimizer(w, gamma, 0.0, C)
    reference, _ = _reference_dr(w, gamma, 0.0, C)
    assert C.contains(x)
    value, best = (_subproblem_value(w, gamma, 0.0, v) for v in (x, reference))
    assert abs(value - best) <= 1e-10
    if c[1] <= 1.0:
        assert value == 0.0
    if np.linalg.norm(c) <= 1.0:
        assert np.array_equal(x, np.zeros(3))


def test_ball_direction_with_the_origin_on_the_sphere():
    C = Ball(np.array([0.6, 0.0, -0.8]), 1.0)
    # ||w||_inf <= gamma: the origin, on the sphere, is a minimizer.
    assert np.array_equal(direction_minimizer([0.3, -0.4, 0.1], 0.5, 0.0, C), np.zeros(3))
    w = np.array([-1.3, 0.4, 2.0])
    for mu in (0.0, 1.0):
        x = direction_minimizer(w, 0.5, mu, C)
        reference, _ = _reference_dr(w, 0.5, mu, C)
        assert C.contains(x)
        assert np.linalg.norm(x - reference) <= 1e-10


def test_unshifted_l1_direction_is_the_vertex_where_the_loop_hit_its_cap():
    # Near-tied top entries of |w| slow the DR loop down: at its former
    # tolerance (1e-10) it stops at its cap of 5,000 iterations here, 2.5e-3
    # above the minimum in objective.
    w = 0.1 * np.random.default_rng(5).standard_normal(50)
    gamma, C = 0.05, L1Ball(10.0, 50)
    capped, iterations = _reference_dr(w, gamma, 0.0, C, tol=1e-10, max_iter=5000)
    assert iterations == 5000
    vertex = np.zeros(50)
    i = int(np.argmax(np.abs(w)))
    vertex[i] = -10.0 * np.sign(w[i])
    x = direction_minimizer(w, gamma, 0.0, C)
    assert np.array_equal(x, vertex)
    assert _subproblem_value(w, gamma, 0.0, capped) > _subproblem_value(w, gamma, 0.0, x) + 1e-3


def test_direction_unshifted_requires_bounded_set():
    P = unit_problem([1.0, 1.0])
    with pytest.raises(ConfigurationError, match="bounded"):
        mf_direction(P, np.array([1.0, 0.0]), MfOptions(mu_shift=0.0))


@pytest.mark.parametrize("b", [[0.05, 0.0, -0.02], [2.0, 0.0, 1.0]], ids=["stationary-start", "moving-start"])
def test_unshifted_mf_on_an_unbounded_set_is_rejected_before_any_record(b):
    # From the stationary start the run returned converged at iteration 0;
    # from the other it raised in its first step, after the k = 0 record.
    P = unit_problem(b, gamma=0.1)
    with pytest.raises(ConfigurationError, match="bounded"):
        solve_mf(P, np.zeros(3), MfOptions(mu_shift=0.0))


def test_direction_unshifted_box_candidates():
    # mu = 0 on a box: the per-coordinate piecewise-linear minimum sits at a
    # bound or at zero.
    C = Box([-1.0, -1.0], [2.0, 2.0])
    x = direction_minimizer(np.array([-3.0, 0.2]), 1.0, 0.0, C)
    assert np.array_equal(x, [2.0, 0.0])


def test_direction_singleton_trivial():
    C = Singleton(np.array([0.3, -0.4]))
    assert np.array_equal(direction_minimizer([5.0, 5.0], 1.0, 1.0, C), [0.3, -0.4])


def test_direction_radius_zero_ball_is_its_centre():
    c = np.array([0.3, -0.4])
    for mu in (1.0, 0.0):
        x = direction_minimizer([5.0, 5.0], 1.0, mu, Ball(c, 0.0))
        assert x.tobytes() == c.tobytes()


def test_line_search_stationary_segment():
    P = unit_problem([1.0, 2.0])
    assert mf_line_search(P, [0.3, 0.4], [0.3, 0.4]) == 0.0


def test_line_search_interior_minimum_matches_dense_grid():
    # Points in the strict interior of the positive orthant keep the
    # objective smooth along the segment; small gamma keeps it strictly
    # convex, so a dense scan pins the minimizer.
    P = unit_problem([2.0, 1.0], gamma=0.1)
    x_k = np.array([3.0, 2.0])
    x_t = np.array([1.0, 0.8])
    lam = mf_line_search(P, x_k, x_t, MfOptions())
    grid = np.arange(0.0, 2.0 + 1e-9, 1e-5)
    vals = [gamma_objective(P, (1 - t) * x_k + t * x_t) for t in grid]
    best = grid[int(np.argmin(vals))]
    assert abs(lam - best) <= 1e-4


def test_line_search_monotone_returns_bracket_end():
    P = unit_problem([10.0, 10.0], gamma=0.1)
    lam = mf_line_search(P, np.zeros(2), np.array([1.0, 1.0]), MfOptions(lambda_max=2.0))
    assert lam == 2.0


def test_line_search_never_worse_than_endpoints():
    rng = np.random.default_rng(3)
    P = unit_problem([1.0, -0.5, 0.3], gamma=0.7)
    for _ in range(20):
        x_k = rng.standard_normal(3)
        x_t = rng.standard_normal(3)
        lam = mf_line_search(P, x_k, x_t, MfOptions())
        phi = lambda t: gamma_objective(P, (1 - t) * x_k + t * x_t)
        assert phi(lam) <= min(phi(0.0), phi(1.0)) + 1e-12


def test_solver_stops_at_stationary_start():
    b = np.array([2.0, -0.3, 1.4, 0.0])
    gamma = 0.7
    P = unit_problem(b, gamma=gamma)
    x = soft_threshold(b, gamma)
    for _ in range(300):
        x = soft_threshold(b + gamma * x / np.linalg.norm(x), gamma)
    r = solve_mf(P, x, MfOptions())
    assert r.status == Status.CONVERGED
    assert r.iterations == 0


def test_monotone_descent_box_instance():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((4, 6))
    P = ProblemSpec(
        A=A,
        C=Box(-np.ones(6), np.ones(6)),
        Q=Singleton(rng.standard_normal(4)),
        gamma=0.4,
    )
    x0 = P.C.project(rng.standard_normal(6))
    r = solve_mf(P, x0, MfOptions(max_iter=300))
    obj = r.objectives()
    assert np.all(np.diff(obj) <= 1e-12)
    for rec in r.trace:
        assert np.isfinite(rec.objective)


def test_iterates_stay_feasible():
    rng = np.random.default_rng(12)
    A = rng.standard_normal((3, 5))
    P = ProblemSpec(A=A, C=NonnegativeOrthant(5), Q=Singleton(rng.standard_normal(3)), gamma=0.3)
    x0 = np.abs(rng.standard_normal(5))
    r = solve_mf(P, x0, MfOptions(max_iter=100))
    assert P.C.contains(r.x, 1e-9)


def test_converged_run_has_certificate():
    spec = SparseSpec(seed=11, m=60, n=128, sparsity=6, noise_variance=1e-4, gamma=0.6)
    inst = gen_sparse_recovery(spec, 0)
    opts = MfOptions()
    r = solve_mf(inst.problem, inst.x0, opts)
    assert r.status == Status.CONVERGED
    tol = opts.resolve_stationarity_tol(inst.problem)
    assert stationarity_residual(inst.problem, r.x) <= 10 * tol


def test_explicit_stationarity_tol_is_used_as_given():
    P = ProblemSpec(A=np.eye(2), C=FullSpace(2), Q=Singleton(np.array([1.0, 0.0])), gamma=0.5)
    assert MfOptions(stationarity_tol=0.25).resolve_stationarity_tol(P) == 0.25


def test_mf_direction_without_options_takes_the_defaults():
    P = ProblemSpec(A=np.eye(2), C=FullSpace(2), Q=Singleton(np.array([1.0, -2.0])), gamma=0.5)
    x = np.array([0.5, 0.0])
    assert np.array_equal(mf_direction(P, x), mf_direction(P, x, MfOptions()))


def test_two_dimensional_instance_near_grid_optimum():
    rng = np.random.default_rng(14)
    A = rng.standard_normal((3, 2))
    b = A @ np.array([0.8, 0.0])
    P = ProblemSpec(A=A, C=Box([-2.0, -2.0], [2.0, 2.0]), Q=Singleton(b), gamma=0.3)

    def objective_batch(V):
        AV = A @ V
        fit = 0.5 * np.sum((AV - b[:, None]) ** 2, axis=0)
        reg = np.sum(np.abs(V), axis=0) - np.sqrt(np.sum(V * V, axis=0))
        return fit + 0.3 * reg

    _, grid_val = grid_minimize(objective_batch, P.C, [-2.0, -2.0], [2.0, 2.0], 1e-3)
    r = solve_mf(P, np.array([0.1, 0.1]), MfOptions(max_iter=500))
    final = gamma_objective(P, r.x)
    # nonconvex objective: accept the global grid value or a certified
    # stationary point
    assert final <= grid_val + 1e-3 or stationarity_residual(P, r.x) <= 1e-3


def test_zero_iterate_continues():
    # Starting exactly at the origin uses the zero subgradient and moves on.
    rng = np.random.default_rng(15)
    A = rng.standard_normal((4, 6))
    P = ProblemSpec(A=A, C=FullSpace(6), Q=Singleton(rng.standard_normal(4) * 3), gamma=0.4)
    r = solve_mf(P, np.zeros(6), MfOptions(max_iter=50))
    assert np.linalg.norm(r.x) > 0


@pytest.mark.parametrize("seed", range(4))
def test_closed_form_run_matches_splitting_run(seed, monkeypatch):
    # A whole mf run on an l1 ball with the closed-form direction and the
    # same run with every direction from the DR reference stop alike.
    inst = gen_sparse_recovery(
        SparseSpec(seed=seed, m=20, n=50, sparsity=4, noise_variance=1e-4, gamma=0.6), 0
    )
    b = inst.problem.Q.point
    P = ProblemSpec(
        A=inst.problem.A, C=L1Ball(inst.t_level, 50), Q=Ball(b, 0.1), gamma=inst.problem.gamma
    )
    closed = solve_mf(P, inst.x0)
    calls = []

    def splitting(w, gamma, mu, C):
        calls.append(1)
        return _reference_dr(w, gamma, mu, C)[0]

    monkeypatch.setattr(minefuku, "direction_minimizer", splitting)
    split = solve_mf(P, inst.x0)
    assert len(calls) == split.iterations
    assert closed.status == split.status
    assert closed.iterations == split.iterations
    assert np.linalg.norm(closed.x - split.x) <= 1e-7


def test_options_validation():
    with pytest.raises(ValueError):
        MfOptions(mu_shift=-1.0)
    with pytest.raises(ValueError):
        MfOptions(lambda_max=0.0)
    with pytest.raises(ValueError):
        MfOptions(golden_evals=2)
    with pytest.raises(ValueError):
        MfOptions(stationarity_tol=0.0)


@pytest.mark.parametrize(
    "field, message",
    [("mu_shift", "mu_shift"), ("lambda_max", "lambda_max"),
     ("step_tol", "step_tol"), ("stationarity_tol", "stationarity_tol")],
)
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_options_reject_nan_and_inf(field, message, value):
    with pytest.raises(ValueError, match=message):
        MfOptions(**{field: value})


def test_mf_stationary_start_converges_after_zero_iterations():
    # At x = 0 the l1 subdifferential [-gamma, gamma] contains A'b once
    # gamma exceeds ||A'b||_inf, so the origin is already stationary.
    rng = np.random.default_rng(9)
    A = rng.standard_normal((5, 8))
    b = rng.standard_normal(5)
    gamma = 2.0 * float(np.max(np.abs(A.T @ b)))
    P = ProblemSpec(A=A, C=FullSpace(8), Q=Singleton(b), gamma=gamma)
    r = solve_mf(P, np.zeros(8))
    assert r.status == Status.CONVERGED
    assert r.iterations == 0
    assert len(r.trace) == 1 and r.trace[0].grad_residual == 0.0
    assert np.array_equal(r.x, np.zeros(8))


def test_mf_last_iterate_passing_the_stationarity_stop_is_converged():
    # The default run stops at the top of iteration 73; with max_iter=72 the
    # same iterate 72 ends the run at the limit and still counts as converged.
    inst = gen_sparse_recovery(
        SparseSpec(seed=2, m=10, n=25, sparsity=3, noise_variance=1e-4, gamma=0.6), 0
    )
    opts = MfOptions(max_iter=72)
    r = solve_mf(inst.problem, inst.x0, opts)
    assert r.status == Status.CONVERGED
    assert r.iterations == 72
    assert r.trace[-1].grad_residual <= opts.resolve_stationarity_tol(inst.problem)
    assert solve_mf(inst.problem, inst.x0, MfOptions(max_iter=71)).status == Status.MAX_ITERATIONS


def _sparse_problems(seed):
    """The 20x50 instance with C = R^n, and with C = l1 ball, Q = ball around b."""
    inst = gen_sparse_recovery(
        SparseSpec(seed=seed, m=20, n=50, sparsity=4, noise_variance=1e-4, gamma=0.6), 0
    )
    P = inst.problem
    ball = ProblemSpec(A=P.A, C=L1Ball(inst.t_level, 50), Q=Ball(P.Q.point, 0.1), gamma=P.gamma)
    return inst, {"fullspace": P, "l1ball": ball}


class Counting(np.ndarray):
    """A view of ``A`` that counts its products (``A.T`` is a counting view too).

    ``products`` counts ``dot``, the form of every product on a solver path;
    ``matmuls`` counts ``@``, which none of them takes.
    """

    products = matmuls = 0

    def dot(self, other):
        Counting.products += 1
        return np.asarray(self).dot(other)

    def __matmul__(self, other):
        Counting.matmuls += 1
        return np.asarray(self) @ other

    def __rmatmul__(self, other):
        Counting.matmuls += 1
        return other @ np.asarray(self)


@pytest.mark.parametrize("case", ["fullspace", "l1ball"])
def test_products_with_A_per_iteration(case):
    # Per iteration: Ax and A'r for the record (its columns, the next
    # gradient and the next search's A x_k), and A d for the line search.
    # The start record adds two.  Evaluating the objective for each
    # line-search candidate took 49 products per iteration, and applying A
    # to x_k again in the search 4.
    inst, problems = _sparse_problems(0)
    P = problems[case]
    object.__setattr__(P, "A", P.A.view(Counting))
    Counting.products = Counting.matmuls = 0
    r = solve_mf(P, inst.x0)
    assert r.status == Status.CONVERGED and r.iterations > 10
    assert Counting.products == 3 * r.iterations + 2
    assert Counting.matmuls == 0


def test_line_search_tests_membership_beyond_the_full_step():
    # x_tilde sits on the boundary of the unit l1 ball and the target lies
    # beyond it, so the objective keeps falling past lam = 1, where the
    # segment leaves C.
    C = L1Ball(1.0, 2)
    P = unit_problem([-2.0, 3.0], gamma=0.1, C=C)
    x_k, x_t = np.array([0.9, 0.0]), np.array([0.0, 1.0])
    assert not C.contains(-1.0 * x_k + 2.0 * x_t, 1e-9)
    lam = mf_line_search(P, x_k, x_t, MfOptions(lambda_max=2.0))
    assert C.contains((1 - lam) * x_k + lam * x_t, 1e-9)
    assert lam == 1.0

    rng = np.random.default_rng(8)
    P = ProblemSpec(A=rng.standard_normal((3, 4)), C=L1Ball(1.0, 4),
                    Q=Singleton(3.0 * rng.standard_normal(3)), gamma=0.3)
    for _ in range(20):
        x_k = P.C.project(2.0 * rng.standard_normal(4))
        x_t = P.C.project(2.0 * rng.standard_normal(4))
        lam = mf_line_search(P, x_k, x_t, MfOptions())
        assert P.C.contains((1 - lam) * x_k + lam * x_t, 1e-9)
        phi = lambda t: gamma_objective(P, (1 - t) * x_k + t * x_t)
        assert phi(lam) <= min(phi(0.0), phi(1.0)) + 1e-12


def _objective_per_candidate_search(P, x_k, x_tilde, opts=None, *, _Ax_k=None):
    """The line search that evaluates ``gamma_objective`` at every candidate.

    It takes and ignores ``_Ax_k``, which :func:`solve_mf` hands to the search.
    """
    if opts is None:
        opts = MfOptions()
    x_k = np.asarray(x_k, dtype=float)
    x_tilde = np.asarray(x_tilde, dtype=float)
    if float(np.linalg.norm(x_tilde - x_k)) == 0.0:
        return 0.0

    def phi(lam):
        return gamma_objective(P, (1.0 - lam) * x_k + lam * x_tilde)

    gs_x, gs_f = minefuku._golden_section(phi, 0.0, opts.lambda_max, opts.golden_evals)
    candidates = [(0.0, phi(0.0)), (1.0, phi(1.0)), (opts.lambda_max, phi(opts.lambda_max)), (gs_x, gs_f)]
    return float(min(candidates, key=lambda item: item[1])[0])


@pytest.mark.parametrize("case", ["fullspace", "l1ball"])
@pytest.mark.parametrize("seed", range(4))
def test_cached_image_search_run_matches_objective_search_run(seed, case, monkeypatch):
    # phi on cached images differs from gamma_objective by round-off only,
    # so whole runs stop alike.
    inst, problems = _sparse_problems(seed)
    P = problems[case]
    cached = solve_mf(P, inst.x0)
    monkeypatch.setattr(minefuku, "mf_line_search", _objective_per_candidate_search)
    plain = solve_mf(P, inst.x0)
    assert cached.status == plain.status
    assert abs(cached.iterations - plain.iterations) <= 2
    f_cached, f_plain = gamma_objective(P, cached.x), gamma_objective(P, plain.x)
    assert abs(f_cached - f_plain) <= 1e-9 * abs(f_plain)


def _segments(C, seed):
    """Segments ``(x_k, d)`` with ``x_k`` and ``x_k + d`` in ``C``.

    They include zero entries of ``d``, a start at the origin, a segment
    through the origin and repeated breakpoints ``-x_k[i]/d[i]``.
    """
    rng = np.random.default_rng(seed)
    n = C.dim
    # Points in the half-size set keep x_tilde in C after copying entries
    # of x_k into it.
    half = C if isinstance(C, FullSpace) else L1Ball(C.radius / 2.0, n)
    x_k = half.project(3.0 * rng.standard_normal(n))
    x_t = half.project(3.0 * rng.standard_normal(n))
    x_t[:5] = x_k[:5]
    x_k[5:8] = x_t[5:8] = 0.0
    return [
        (x_k, x_t - x_k),
        (np.zeros(n), x_t),
        # Every coordinate crosses zero at lam = 1/1.7.
        (x_k, -1.7 * x_k),
        # Each breakpoint 1/1.5, 1/1.25 and 1/0.3 repeats about n/3 times.
        (x_k, -x_k * np.resize([1.5, 1.25, 0.3], n)),
    ]


@pytest.mark.parametrize("C", [FullSpace(30), L1Ball(5.0, 30)], ids=repr)
@pytest.mark.parametrize("target", ["singleton", "ball", "ball-radius-0", "box"])
def test_segment_objective_matches_gamma_objective(C, target):
    rng = np.random.default_rng(21)
    A = rng.standard_normal((12, 30))
    b = rng.standard_normal(12)
    Q = {
        "singleton": Singleton(b),
        # The segment through the origin crosses this ball's boundary.
        "ball": Ball(b, 1.1 * np.linalg.norm(b)),
        "ball-radius-0": Ball(b, 0.0),
        "box": Box(b - 0.5, b + 0.5),
    }[target]
    P = ProblemSpec(A=A, C=C, Q=Q, gamma=0.5)
    crossed = False
    for seed in range(5):
        for x_k, d in _segments(C, seed):
            phi = minefuku._segment_objective(P, x_k, d, A @ x_k, A @ d)
            moving = d != 0.0
            lams = np.concatenate([np.linspace(0.0, 2.0, 201), -x_k[moving] / d[moving]])
            for lam in lams[(lams >= 0.0) & (lams <= 2.0)]:
                expected = gamma_objective(P, x_k + lam * d)
                if math.isinf(expected):
                    assert phi(lam) == expected
                    continue
                assert abs(phi(lam) - expected) <= 1e-12 * max(1.0, abs(expected))
                if target == "ball":
                    crossed |= np.linalg.norm(A @ (x_k + lam * d) - b) <= Q.radius
    assert crossed or target != "ball"


@pytest.mark.parametrize("C", [FullSpace(30), L1Ball(5.0, 30)], ids=repr)
def test_line_search_projects_nothing_onto_ball_or_singleton_targets(C, monkeypatch):
    rng = np.random.default_rng(22)
    A = rng.standard_normal((12, 30))
    b = rng.standard_normal(12)
    targets = (Singleton(b), Ball(b, 1.1 * np.linalg.norm(b)))
    problems = [ProblemSpec(A=A, C=C, Q=Q, gamma=0.5) for Q in targets]

    def no_projection(self, x):
        raise AssertionError(f"projection onto {self!r}")

    monkeypatch.setattr(Ball, "project", no_projection)
    monkeypatch.setattr(Singleton, "project", no_projection)
    for P in problems:
        for x_k, d in _segments(C, 0):
            assert 0.0 <= mf_line_search(P, x_k, x_k + d) <= 2.0


@pytest.mark.parametrize("where", ["inside", "band", "outside"])
def test_l1_ball_membership_beyond_the_full_step_reads_the_l1_norm(where, monkeypatch):
    # Beyond lam = 1 the segment stays well inside the ball, runs along its
    # boundary face, or leaves it; only the boundary needs C.contains.
    n = 30
    rng = np.random.default_rng(23)
    A = rng.standard_normal((12, n))
    P = ProblemSpec(A=A, C=L1Ball(5.0, n), Q=Singleton(rng.standard_normal(12)), gamma=0.5)
    x_k, x_t = np.zeros(n), np.zeros(n)
    x_k[:2], x_t[:2] = {
        "inside": ([1.0, 0.5], [0.5, 1.0]),  # ||x||_1 = 1.5 up to lam = 2
        "band": ([3.0, 2.0], [2.0, 3.0]),  # ||x||_1 = 5 up to lam = 3
        "outside": ([1.5, 1.0], [3.0, 2.0]),  # ||x||_1 = 2.5 + 2.5*lam
    }[where]
    d = x_t - x_k
    lams = np.linspace(1.0, 2.0, 101)[1:]
    expected = [gamma_objective(P, x_k + lam * d) for lam in lams]
    phi = minefuku._segment_objective(P, x_k, d, A @ x_k, A @ d)

    calls = []
    contains = L1Ball.contains

    def counting(self, x, tol=1e-9):
        calls.append(1)
        return contains(self, x, tol)

    monkeypatch.setattr(L1Ball, "contains", counting)
    values = [phi(lam) for lam in lams]
    assert all(math.isinf(f) for f in expected) == (where == "outside")
    for value, f in zip(values, expected):
        assert value == f if math.isinf(f) else abs(value - f) <= 1e-12 * max(1.0, abs(f))
    assert len(calls) == (len(lams) if where == "band" else 0)


def test_mf_records_test_membership_only_beyond_the_full_step(monkeypatch):
    # A record whose step has lam <= 1 lies on the segment between two points
    # of C, so only the start record and steps beyond lam = 1 test membership.
    inst, problems = _sparse_problems(0)
    P = problems["l1ball"]
    lams, from_records = [], []
    search = minefuku.mf_line_search
    contains = sets.ConvexSet.contains

    def recording_search(*args, **kwargs):
        lams.append(search(*args, **kwargs))
        return lams[-1]

    def counting_contains(self, x, tol=sets.DEFAULT_MEMBER_TOL):
        if sys._getframe(1).f_code.co_name == "monitor":
            from_records.append(1)
        return contains(self, x, tol)

    monkeypatch.setattr(minefuku, "mf_line_search", recording_search)
    monkeypatch.setattr(sets.ConvexSet, "contains", counting_contains)
    r = solve_mf(P, inst.x0)
    beyond = sum(lam > 1.0 for lam in lams)
    assert r.status == Status.CONVERGED and 0 < beyond < len(lams) == r.iterations
    assert len(from_records) == 1 + beyond
    # Every recorded objective is finite: each iterate is in C.
    assert np.all(np.isfinite(r.objectives()))


def _orthant_segments(seed):
    """The segments of :func:`_segments` on R^30 with both ends folded into the orthant."""
    return [(np.abs(x_k), np.abs(x_k + d) - np.abs(x_k)) for x_k, d in _segments(FullSpace(30), seed)]


@pytest.mark.parametrize("C", [FullSpace(30), L1Ball(5.0, 30), NonnegativeOrthant(30)], ids=repr)
@pytest.mark.parametrize("target", ["singleton", "ball", "orthant"])
def test_line_search_with_the_records_image_returns_the_same_step(C, target):
    # solve_mf hands the record's A x_k to the search, which then applies A
    # only to d; the step keeps every bit.
    rng = np.random.default_rng(25)
    A = rng.standard_normal((12, 30))
    b = rng.standard_normal(12)
    Q = {
        "singleton": Singleton(b),
        "ball": Ball(b, 1.1 * np.linalg.norm(b)),
        "orthant": NonnegativeOrthant(12),
    }[target]
    P = ProblemSpec(A=A, C=C, Q=Q, gamma=0.3)
    steps = []
    for seed in range(3):
        segments = _orthant_segments(seed) if isinstance(C, NonnegativeOrthant) else _segments(C, seed)
        for x_k, d in [*segments, (segments[0][0], np.zeros(30))]:
            x_tilde = x_k + d
            image = columns_and_gradient(P, x_k, True)[2]
            lam = mf_line_search(P, x_k, x_tilde, _Ax_k=image)
            assert lam.hex() == mf_line_search(P, x_k, x_tilde).hex()
            steps.append(lam)
    # The searches end at several distinct steps, the zero step included.
    assert 0.0 in steps and len(set(steps)) > 3
