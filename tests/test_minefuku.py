import numpy as np
import pytest

from sfpsolve import minefuku
from sfpsolve.minefuku import (
    MfOptions,
    _direction_dr,
    direction_minimizer,
    mf_direction,
    mf_line_search,
    solve_mf,
)
from sfpsolve.harness import SparseSpec, gen_sparse_recovery
from sfpsolve.oracles import grid_minimize
from sfpsolve.problem import (
    ConfigurationError,
    ProblemSpec,
    Status,
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


def test_direction_splitting_agrees_with_closed_form():
    # The splitting fallback and the closed form P_C(soft_threshold(.)) solve
    # the same strongly convex subproblem.  At these w a radius of 20 leaves
    # the constraint inactive and a radius of 0.3 makes it active.
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
            iterated = _direction_dr(w, gamma, mu, C)
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
    def no_splitting(*args, **kwargs):
        raise AssertionError("splitting iteration called")

    monkeypatch.setattr(minefuku, "_direction_dr", no_splitting)
    x = direction_minimizer([-3.0, 2.0, 0.1, -0.5], 0.4, 1.5, C)
    assert C.contains(x, 1e-12)


def test_direction_off_centre_ball_matches_grid():
    # A ball that does not contain the origin has no closed form and keeps
    # the splitting iteration.
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


def test_direction_unshifted_requires_bounded_set():
    P = unit_problem([1.0, 1.0])
    with pytest.raises(ConfigurationError, match="bounded"):
        mf_direction(P, np.array([1.0, 0.0]), MfOptions(mu_shift=0.0))


def test_direction_unshifted_box_candidates():
    # mu = 0 on a box: the per-coordinate piecewise-linear minimum sits at a
    # bound or at zero.
    C = Box([-1.0, -1.0], [2.0, 2.0])
    x = direction_minimizer(np.array([-3.0, 0.2]), 1.0, 0.0, C)
    assert np.array_equal(x, [2.0, 0.0])


def test_direction_singleton_trivial():
    C = Singleton(np.array([0.3, -0.4]))
    assert np.array_equal(direction_minimizer([5.0, 5.0], 1.0, 1.0, C), [0.3, -0.4])


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
    # same run with every direction from the splitting iteration stop alike.
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
        return _direction_dr(w, gamma, mu, C)

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
    """A view of ``A`` that counts its products (``A.T`` is a counting view too)."""

    products = 0

    def __matmul__(self, other):
        Counting.products += 1
        return np.asarray(self) @ other


@pytest.mark.parametrize("case", ["fullspace", "l1ball"])
def test_products_with_A_per_iteration(case):
    # Per iteration: Ax and A'r for the record (its columns and the next
    # gradient), A x_k and A x_tilde for the line search.  The start record
    # adds two.  Evaluating the objective for each line-search candidate
    # took 49 products per iteration.
    inst, problems = _sparse_problems(0)
    P = problems[case]
    object.__setattr__(P, "A", P.A.view(Counting))
    Counting.products = 0
    r = solve_mf(P, inst.x0)
    assert r.status == Status.CONVERGED and r.iterations > 10
    assert Counting.products <= 4 * r.iterations + 2


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


def _objective_per_candidate_search(P, x_k, x_tilde, opts=None):
    """The line search that evaluates ``gamma_objective`` at every candidate."""
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
