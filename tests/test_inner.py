import math

import numpy as np
import pytest

from sfpsolve import inner
from sfpsolve.face import Face, _solve_point_lasso
from sfpsolve.harness import RandomSpec, SparseSpec, gen_random_problem, gen_sparse_recovery
from sfpsolve.inner import (
    INNER_SOLVERS,
    InnerOptions,
    SubproblemSpec,
    _constrained_l1_prox_dr,
    solve_dr_in_fb,
    solve_fb_in_dr,
)
from sfpsolve.linops import inflated_op_norm
from sfpsolve.minefuku import direction_minimizer
from sfpsolve.oracles import grid_minimize
from sfpsolve.problem import ProblemSpec, Status
from sfpsolve.prox import soft_threshold
from sfpsolve.sets import (
    Ball,
    Box,
    FullSpace,
    L1Ball,
    NonnegativeOrthant,
    Singleton,
)

TIGHT = InnerOptions(tol=1e-8, outer_max=10000)


def unit_subproblem(b, gamma=0.7, v=None):
    n = len(b)
    P = ProblemSpec(A=np.eye(n), C=FullSpace(n), Q=Singleton(np.asarray(b, float)), gamma=gamma)
    return SubproblemSpec(base=P, v=np.zeros(n) if v is None else np.asarray(v, float))


@pytest.mark.parametrize("name", sorted(INNER_SOLVERS))
def test_pure_l1_minimum_is_origin(name):
    # With the fidelity term identically zero on the iterate range the
    # subproblem reduces to the weighted l1 norm, minimized at the origin.
    P = ProblemSpec(A=np.eye(3), C=FullSpace(3), Q=Ball(np.zeros(3), 100.0), gamma=0.5)
    sub = SubproblemSpec(base=P, v=np.zeros(3))
    r = INNER_SOLVERS[name](sub, np.array([1.0, -2.0, 0.5]), TIGHT)
    assert np.linalg.norm(r.x) <= 1e-4


@pytest.mark.parametrize("name", sorted(INNER_SOLVERS))
def test_unit_design_lasso(name):
    b = np.array([2.0, -1.5, 0.3, 0.0, 1.1])
    sub = unit_subproblem(b, gamma=0.7)
    r = INNER_SOLVERS[name](sub, np.zeros(5), TIGHT)
    assert np.linalg.norm(r.x - soft_threshold(b, 0.7)) <= 1e-4


@pytest.mark.parametrize("name", sorted(INNER_SOLVERS))
def test_two_variable_orthant_matches_grid(name):
    rng = np.random.default_rng(5)
    A = rng.standard_normal((3, 2))
    b = A @ np.array([0.5, 0.2])
    P = ProblemSpec(A=A, C=NonnegativeOrthant(2), Q=Singleton(b), gamma=0.4)
    sub = SubproblemSpec(base=P, v=np.array([0.1, -0.3]))

    def objective_batch(V):
        AV = A @ V
        fit = 0.5 * np.sum((AV - b[:, None]) ** 2, axis=0)
        return fit + sub.v @ V + 0.4 * np.sum(np.abs(V), axis=0)

    _, grid_val = grid_minimize(objective_batch, P.C, [0.0, 0.0], [2.0, 2.0], 1e-3)
    r = INNER_SOLVERS[name](sub, np.zeros(2), TIGHT)
    assert abs(sub.objective(r.x) - grid_val) <= 1e-3


def test_solvers_agree_on_random_instances():
    rng = np.random.default_rng(42)
    opts = InnerOptions(tol=1e-6, outer_max=30000)
    for _ in range(3):
        A = rng.standard_normal((12, 20))
        xs = np.zeros(20)
        xs[rng.choice(20, 4, replace=False)] = rng.choice([-1.0, 1.0], 4)
        P = ProblemSpec(A=A, C=FullSpace(20), Q=Singleton(A @ xs), gamma=0.5)
        sub = SubproblemSpec(base=P, v=0.3 * rng.standard_normal(20))
        oa = sub.objective(solve_fb_in_dr(sub, np.zeros(20), opts).x)
        ob = sub.objective(solve_dr_in_fb(sub, np.zeros(20), opts).x)
        assert abs(oa - ob) <= 1e-5


def test_solvers_agree_on_the_first_dca_subproblem_of_a_random_orthant_instance():
    # The subproblem plain forward-backward left capped at 2,000 iterations.
    inst = gen_random_problem(RandomSpec(seed=0, m=40, n=100, trials=8), 0, gamma=0.6)
    sub = SubproblemSpec(base=inst.problem, v=np.zeros(inst.problem.n))
    opts = InnerOptions(tol=1e-8, outer_max=30000)
    ra = solve_fb_in_dr(sub, inst.x0, opts)
    rb = solve_dr_in_fb(sub, inst.x0, opts)
    assert ra.status is rb.status is Status.CONVERGED
    assert abs(sub.objective(ra.x) - sub.objective(rb.x)) <= 1e-5


@pytest.mark.parametrize("name", sorted(INNER_SOLVERS))
def test_returned_point_feasible(name):
    rng = np.random.default_rng(8)
    A = rng.standard_normal((6, 10))
    P = ProblemSpec(A=A, C=NonnegativeOrthant(10), Q=Singleton(rng.standard_normal(6)), gamma=0.5)
    sub = SubproblemSpec(base=P, v=rng.standard_normal(10) * 0.1)
    r = INNER_SOLVERS[name](sub, rng.standard_normal(10), InnerOptions())
    assert P.C.contains(r.x, 1e-6)


@pytest.mark.parametrize("name", sorted(INNER_SOLVERS))
def test_objective_not_worse_than_start(name):
    rng = np.random.default_rng(13)
    A = rng.standard_normal((5, 8))
    P = ProblemSpec(A=A, C=NonnegativeOrthant(8), Q=Singleton(rng.standard_normal(5)), gamma=0.3)
    sub = SubproblemSpec(base=P, v=rng.standard_normal(8) * 0.2)
    x0 = np.abs(rng.standard_normal(8))
    r = INNER_SOLVERS[name](sub, x0, InnerOptions())
    assert sub.objective(r.x) <= sub.objective(x0) + 1e-9


@pytest.mark.parametrize("name", sorted(INNER_SOLVERS))
def test_infeasible_start_projected(name):
    P = ProblemSpec(A=np.eye(2), C=NonnegativeOrthant(2), Q=Singleton(np.array([1.0, 1.0])), gamma=0.5)
    sub = SubproblemSpec(base=P, v=np.zeros(2))
    r = INNER_SOLVERS[name](sub, np.array([-1.0, -1.0]), InnerOptions())
    assert "projected" in r.message
    assert P.C.contains(r.x, 1e-9)


@pytest.mark.parametrize("name", sorted(INNER_SOLVERS))
def test_solvers_without_options_take_the_defaults(name):
    sub = unit_subproblem(np.array([2.0, -1.5, 0.3]))
    given = INNER_SOLVERS[name](sub, np.zeros(3), InnerOptions())
    default = INNER_SOLVERS[name](sub, np.zeros(3))
    assert np.array_equal(default.x, given.x) and default.iterations == given.iterations


def test_inner_options_validation():
    with pytest.raises(ValueError):
        InnerOptions(tau=2.0)
    with pytest.raises(ValueError):
        InnerOptions(lambda_relax=0.0)
    with pytest.raises(ValueError):
        InnerOptions(kappa=-1.0)
    with pytest.raises(ValueError):
        InnerOptions(budget_base=10, budget_cap=5)
    with pytest.raises(ValueError):
        InnerOptions(tol=0.0)


@pytest.mark.parametrize(
    "field, value",
    [(f, v) for f in ("kappa", "tol") for v in (math.nan, math.inf)]
    + [(f, math.nan) for f in ("tau", "lambda_relax", "step_fraction")],
)
def test_inner_options_reject_nan_and_inf(field, value):
    with pytest.raises(ValueError, match=field):
        InnerOptions(**{field: value})


def test_budget_ramp():
    opts = InnerOptions(budget_base=5, budget_cap=50)
    assert opts.budget(0) == 5
    assert opts.budget(10) == 15
    assert opts.budget(100) == 50


def test_subproblem_dimension_check():
    P = ProblemSpec(A=np.eye(2), C=FullSpace(2), Q=Singleton(np.zeros(2)), gamma=0.5)
    with pytest.raises(ValueError):
        SubproblemSpec(base=P, v=np.zeros(3))


def test_subproblem_objective_is_inf_outside_c():
    P = ProblemSpec(A=np.eye(2), C=NonnegativeOrthant(2), Q=Singleton(np.zeros(2)), gamma=0.5)
    sub = SubproblemSpec(base=P, v=np.zeros(2))
    assert sub.objective(np.array([1.0, -1.0])) == math.inf
    assert sub.objective(np.array([1.0, 1.0])) == pytest.approx(2.0)


@pytest.mark.parametrize("name", sorted(INNER_SOLVERS))
def test_status_reports_budget_exhaustion(name):
    sub = unit_subproblem([5.0, -4.0, 3.0], gamma=0.2)
    r = INNER_SOLVERS[name](sub, np.zeros(3), InnerOptions(tol=1e-14, outer_max=2))
    assert r.status == Status.MAX_ITERATIONS


def test_fb_in_dr_without_trace_records_only_the_last_iterate():
    # An inner solve keeps one record: that of the point it returns, at the
    # number of steps it took.
    spec = unit_subproblem([1.0, -0.4, 0.05, 2.0], gamma=0.3, v=[0.1, 0.0, -0.2, 0.0])
    x0 = np.array([0.5, 0.5, -0.5, 0.0])
    r = solve_fb_in_dr(spec, x0, InnerOptions())
    assert r.status is Status.CONVERGED and len(r.trace) == 1 and r.iterations > 1
    assert r.trace[0].k == r.iterations
    assert r.trace[0].objective == spec.objective(r.x)
    short = solve_fb_in_dr(spec, x0, InnerOptions(outer_max=r.iterations - 1))
    assert short.status is Status.MAX_ITERATIONS and len(short.trace) == 1
    assert short.trace[0].k == r.iterations - 1


def test_dr_in_fb_whose_only_record_is_not_finite_ends_diverged():
    # Every iterate is finite, but ||Ax||^2 overflows: the one record is
    # kept, and it ends the run as diverged.
    P = ProblemSpec(A=[[1e100]], C=FullSpace(1), Q=Singleton([0.0]), gamma=1.0)
    r = solve_dr_in_fb(SubproblemSpec(base=P, v=[0.0]), [1e100], InnerOptions(outer_max=10))
    assert r.status is Status.DIVERGED and r.message == "non-finite objective at iteration 10"
    assert len(r.trace) == 1 and r.trace[0].objective == math.inf
    assert np.isfinite(r.x).all()


def sparse_subproblem(C, seed=3, gamma=0.2):
    """A 12x20 subproblem over ``C`` whose target is the image of a 4-sparse sign vector."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((12, 20))
    xs = np.zeros(20)
    xs[rng.choice(20, 4, replace=False)] = rng.choice([-1.0, 1.0], 4)
    P = ProblemSpec(A=A, C=C, Q=Singleton(A @ xs), gamma=gamma)
    return SubproblemSpec(base=P, v=0.1 * rng.standard_normal(20))


def _record_prox_calls(monkeypatch):
    """Patch the DR prox to log ``(projections onto C, shrink active)`` per call."""
    log, projections = [], [0]
    real_prox = inner._constrained_l1_prox_dr
    real_project = L1Ball.project

    def counting_project(self, x):
        projections[0] += 1
        return real_project(self, x)

    def logging_prox(anchor, thresh, C):
        before = projections[0]
        out = real_prox(anchor, thresh, C)
        active = isinstance(C, L1Ball) and np.abs(soft_threshold(anchor, thresh)).sum() > C.radius
        log.append((projections[0] - before, active))
        return out

    monkeypatch.setattr(L1Ball, "project", counting_project)
    monkeypatch.setattr(inner, "_constrained_l1_prox_dr", logging_prox)
    return log


def test_dr_in_fb_projects_once_per_prox_on_an_active_l1_ball(monkeypatch):
    # P_C(soft_threshold(a)) is the exact prox on an l1 ball, and it is the
    # first DR half point: each outer step projects onto C once.
    log = _record_prox_calls(monkeypatch)
    opts = InnerOptions(tol=1e-8, outer_max=300)
    r = solve_dr_in_fb(sparse_subproblem(L1Ball(1.5, 20)), np.zeros(20), opts)
    assert len(log) == r.iterations > 10
    assert any(active for _, active in log)  # the constraint cuts the shrink
    assert [projections for projections, _ in log] == [1] * len(log)


def test_one_dr_in_fb_step_on_an_off_centre_ball_is_the_exact_prox_gradient_step():
    # The shrink of the gradient step lands outside this ball, where
    # P_C(soft_threshold(w)) is not the prox: the step must be
    # direction_minimizer's closed form.
    C = Ball(np.full(20, 0.05), 0.2)
    sub = sparse_subproblem(C)
    opts = InnerOptions(outer_max=1)
    gstep = opts.step_fraction / inflated_op_norm(sub.base.A) ** 2
    thresh = gstep * sub.base.gamma
    w = C.center - gstep * sub.smooth_gradient(C.center)
    assert not C.contains(soft_threshold(w, thresh))
    want = direction_minimizer(-w, thresh, 1.0, C)
    assert np.linalg.norm(C.project(soft_threshold(w, thresh)) - want) > 1e-8
    r = solve_dr_in_fb(sub, C.center, opts)
    assert r.iterations == 1
    assert np.linalg.norm(r.x - want) <= 1e-14


def _shrink_sets(n, a, thresh):
    """Every set kind on which one DR iteration gives the exact prox at ``a``.

    dr-in-fb takes this prox on the sets that are not balls; on the balls
    here (centred at the origin, or of radius 0) it is exact too, though
    dr-in-fb takes direction_minimizer's closed form on every ball.
    """
    l1_shrunk = float(np.abs(soft_threshold(a, thresh)).sum())
    centre = np.linspace(-1.0, 1.0, n)
    return {
        "fullspace": FullSpace(n),
        "orthant": NonnegativeOrthant(n),
        "box": Box(np.full(n, -0.4), np.linspace(0.1, 2.0, n)),
        "l1ball-active": L1Ball(0.5 * l1_shrunk, n),
        "l1ball-inactive": L1Ball(2.0 * l1_shrunk, n),
        "origin-ball": Ball(np.zeros(n), 0.5),
        "radius-0-ball": Ball(centre, 0.0),
        "singleton": Singleton(centre),
    }


@pytest.mark.parametrize("scale", [1.0, 1.3])
@pytest.mark.parametrize("kind", sorted(_shrink_sets(3, np.ones(3), 0.0)))
def test_one_dr_iteration_is_the_exact_constrained_l1_prox(kind, scale):
    # ``scale`` multiplies the l1 threshold.
    rng = np.random.default_rng(11)
    a = 1.5 * rng.standard_normal(9)
    thresh = 0.3 * scale
    C = _shrink_sets(9, a, thresh)[kind]
    y_half = _constrained_l1_prox_dr(a, thresh, C)
    assert np.linalg.norm(y_half - direction_minimizer(-a, thresh, 1.0, C)) <= 1e-12


def _assert_solvers_agree(C):
    opts = InnerOptions(tol=1e-6, outer_max=30000)
    sub = sparse_subproblem(C)
    oa = sub.objective(solve_fb_in_dr(sub, np.zeros(20), opts).x)
    ob = sub.objective(solve_dr_in_fb(sub, np.zeros(20), opts).x)
    assert abs(oa - ob) <= 1e-5


@pytest.mark.parametrize(
    "C", [L1Ball(1.5, 20), NonnegativeOrthant(20), Ball(np.zeros(20), 0.8)],
    ids=["l1ball", "orthant", "origin-ball"],
)
def test_solvers_agree_where_one_dr_iteration_is_the_prox(C):
    # Acceptance criterion 5 on the sets where one DR iteration is the
    # exact prox (dr-in-fb takes direction_minimizer on the ball).
    _assert_solvers_agree(C)


def test_solvers_agree_on_an_off_centre_ball():
    # Acceptance criterion 5 where one DR iteration is not the prox:
    # dr-in-fb's step is direction_minimizer's closed form.
    _assert_solvers_agree(Ball(np.full(20, 0.05), 1.0))


def _kkt_violation(sub, x):
    """The largest violation of the subproblem's optimality conditions on C = R^n at ``x``."""
    g = sub.smooth_gradient(x)
    gamma = sub.base.gamma
    support = x != 0.0
    on = np.abs(g[support] + gamma * np.sign(x[support]))
    off = np.abs(g[~support]) - gamma
    return max(np.max(on, initial=0.0), np.max(off, initial=0.0))


def test_exact_solve_passes_the_kkt_test_on_the_first_desk_subproblem():
    # The first dca subproblem of sparse-fullspace trial 0, from the origin:
    # a plain Lasso on 100 x 256 columns.
    inst = gen_sparse_recovery(
        SparseSpec(seed=0, m=100, n=256, sparsity=10, noise_variance=1e-4, gamma=0.6), 0
    )
    P = inst.problem
    sub = SubproblemSpec(base=P, v=np.zeros(P.n))
    r = _solve_point_lasso(sub, inst.x0, InnerOptions(tol=1e-6))
    assert r.status is Status.CONVERGED
    assert _kkt_violation(sub, r.x) <= 1e-10 * P.gamma
    assert r.trace[-1].grad_residual == pytest.approx(_kkt_violation(sub, r.x), abs=1e-15)
    tight = sub.objective(solve_dr_in_fb(sub, inst.x0, InnerOptions(tol=1e-12, outer_max=100000)).x)
    assert sub.objective(r.x) <= tight + 1e-12 * abs(tight)


def _noise_ball_subproblem():
    """The first dca subproblem of the sparse-l1ball benchmark's seed-0 trial 0, from the origin.

    C is the l1 ball of radius ``t_level`` and Q the noise ball of radius
    ``sqrt(m * 1e-4)`` around b.
    """
    inst = gen_sparse_recovery(
        SparseSpec(seed=0, m=100, n=256, sparsity=10, noise_variance=1e-4, gamma=0.6), 0
    )
    P = inst.problem
    P = ProblemSpec(A=P.A, C=L1Ball(inst.t_level, P.n), Q=Ball(P.Q.center, 0.1), gamma=P.gamma)
    return SubproblemSpec(base=P, v=np.zeros(P.n)), inst.x0


def test_exact_solve_passes_the_kkt_test_on_the_first_noise_ball_subproblem():
    sub, x0 = _noise_ball_subproblem()
    P = sub.base
    r = _solve_point_lasso(sub, x0, InnerOptions(tol=1e-6))
    assert r.status is Status.CONVERGED and r.message == ""
    # The fidelity is active and the l1 ball does not bind here, so the
    # optimality conditions are those on C = R^n.
    assert np.linalg.norm(P.A @ r.x - P.Q.center) > P.Q.radius
    assert np.abs(r.x).sum() < P.C.radius
    assert _kkt_violation(sub, r.x) <= 1e-10 * P.gamma
    tight = sub.objective(solve_dr_in_fb(sub, x0, InnerOptions(tol=1e-12, outer_max=100000)).x)
    assert sub.objective(r.x) <= tight + 1e-12 * abs(tight)


@pytest.mark.parametrize("n, seed, step", [(2, 1, 2e-3), (3, 0, 2.5e-2)], ids=["2-D", "3-D"])
def test_exact_solve_matches_the_grid(n, seed, step):
    # A DCA-shaped linear term, v = -gamma*x_k/||x_k||, on an (n+1) x n design.
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n + 1, n))
    b = rng.standard_normal(n + 1)
    x_k = rng.standard_normal(n)
    gamma = 0.4
    P = ProblemSpec(A=A, C=FullSpace(n), Q=Singleton(b), gamma=gamma)
    sub = SubproblemSpec(base=P, v=-gamma * x_k / np.linalg.norm(x_k))

    def objective_batch(V):
        fit = 0.5 * np.sum((A @ V - b[:, None]) ** 2, axis=0)
        return fit + sub.v @ V + gamma * np.sum(np.abs(V), axis=0)

    grid_x, grid_val = grid_minimize(objective_batch, P.C, [-1.0] * n, [1.0] * n, step)
    for x0 in (np.zeros(n), x_k):
        r = _solve_point_lasso(sub, x0, InnerOptions(tol=1e-10))
        assert r.status is Status.CONVERGED
        assert sub.objective(r.x) <= grid_val + 1e-12
        assert np.max(np.abs(r.x - grid_x)) <= step


@pytest.mark.parametrize("C_name", ["full-space", "l1-ball"])
@pytest.mark.parametrize("n, seed, step", [(2, 1, 2e-3), (3, 0, 2.5e-2)], ids=["2-D", "3-D"])
def test_exact_solve_with_a_ball_target_matches_the_grid(n, seed, step, C_name):
    # The grid test's instances with Q the ball of radius 0.3 around b; the
    # l1 ball of radius 0.3 binds at both minimizers.
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n + 1, n))
    b = rng.standard_normal(n + 1)
    x_k = rng.standard_normal(n)
    gamma, radius = 0.4, 0.3
    C = FullSpace(n) if C_name == "full-space" else L1Ball(0.3, n)
    P = ProblemSpec(A=A, C=C, Q=Ball(b, radius), gamma=gamma)
    sub = SubproblemSpec(base=P, v=-gamma * x_k / np.linalg.norm(x_k))

    def objective_batch(V):
        distance = np.maximum(np.linalg.norm(A @ V - b[:, None], axis=0) - radius, 0.0)
        return 0.5 * distance**2 + sub.v @ V + gamma * np.sum(np.abs(V), axis=0)

    grid_x, grid_val = grid_minimize(objective_batch, C, [-1.0] * n, [1.0] * n, step)
    for x0 in (np.zeros(n), C.project(x_k)):
        r = _solve_point_lasso(sub, x0, InnerOptions(tol=1e-10))
        assert r.status is Status.CONVERGED
        assert np.linalg.norm(A @ r.x - b) > radius
        if C_name == "l1-ball":
            assert np.abs(r.x).sum() == pytest.approx(0.3, rel=1e-12)
        assert sub.objective(r.x) <= grid_val + 1e-12
        assert np.max(np.abs(r.x - grid_x)) <= step


def test_exact_solve_ends_short_where_ax_lands_in_q():
    # x_k = (1, 0) gives v = (-0.5, 0): on the face S = {0} the linear term
    # v_0 + gamma vanishes, and the face's minimizer, x = (1, 0), has Ax at
    # the centre of Q.
    P = ProblemSpec(A=np.eye(2), C=FullSpace(2), Q=Ball([1.0, 0.0], 0.5), gamma=0.5)
    sub = SubproblemSpec(base=P, v=[-0.5, 0.0])
    r = _solve_point_lasso(sub, [1.0, 0.0])
    assert r.status is Status.MAX_ITERATIONS
    assert r.message == "Ax lands in Q"
    assert r.iterations == 0


def test_exact_solve_along_an_unbounded_null_direction_ends_diverged():
    # A_S = [1, 1] is singular on S = {0, 1}; along its null direction
    # (1, -1) from x0 the objective falls as -0.8*t, and no coordinate of
    # x0 + t*(1, -1) reaches zero.
    P = ProblemSpec(A=[[1.0, 1.0]], C=FullSpace(2), Q=Singleton([0.0]), gamma=0.1)
    sub = SubproblemSpec(base=P, v=[-0.5, 0.5])
    r = _solve_point_lasso(sub, [1.0, -1.0])
    assert r.status is Status.DIVERGED
    assert r.message == "no coordinate of a null direction reaches zero"
    assert r.iterations == 0


def test_exact_solve_along_a_null_direction_out_of_the_l1_ball_ends_short():
    # The instance above on the l1 ball of radius 2, which x0 touches: the
    # ball bounds the objective along (1, -1), and the step would leave it.
    P = ProblemSpec(A=[[1.0, 1.0]], C=L1Ball(2.0, 2), Q=Singleton([0.0]), gamma=0.1)
    sub = SubproblemSpec(base=P, v=[-0.5, 0.5])
    r = _solve_point_lasso(sub, [1.0, -1.0])
    assert r.status is Status.MAX_ITERATIONS
    assert r.message == "a null direction reaches the l1 ball's boundary"
    assert r.iterations == 0


@pytest.mark.parametrize("seed", range(3))
def test_exact_solve_from_a_support_wider_than_m_steps_along_null_directions(seed, monkeypatch):
    # Started at a full support of 5 columns in R^3, the first faces are
    # singular: the solve steps along their null directions, where the
    # objective is linear, instead of failing.
    nulls = []
    for name in ("_factor", "grow"):

        def recording(self, *args, change=getattr(Face, name)):
            change(self, *args)
            nulls.append(self.null is not None)

        monkeypatch.setattr(Face, name, recording)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((3, 5))
    x0 = rng.standard_normal(5)
    P = ProblemSpec(A=A, C=FullSpace(5), Q=Singleton(rng.standard_normal(3)), gamma=0.3)
    sub = SubproblemSpec(base=P, v=-0.3 * x0 / np.linalg.norm(x0))
    r = _solve_point_lasso(sub, x0, InnerOptions(tol=1e-7))
    assert r.status is Status.CONVERGED and r.message == ""
    assert sum(nulls) >= 2
    tight = sub.objective(solve_dr_in_fb(sub, x0, InnerOptions(tol=1e-12, outer_max=100000)).x)
    assert sub.objective(r.x) == pytest.approx(tight, rel=1e-10)


@pytest.mark.parametrize("name", ["exact", *sorted(INNER_SOLVERS)])
@pytest.mark.parametrize("scale", [1.0, 1e-200], ids=["objective-overflows", "objective-finite"])
def test_an_inner_solve_from_a_start_whose_squared_norm_overflows_ends_diverged(name, scale):
    # Whether or not the start's objective is finite, the run ends at the start.
    P = ProblemSpec(A=scale * np.eye(2), C=FullSpace(2), Q=Singleton([1.0, 0.0]), gamma=0.5)
    sub = SubproblemSpec(base=P, v=[0.1, 0.0], _op_norm=1.0)
    solve = _solve_point_lasso if name == "exact" else INNER_SOLVERS[name]
    r = solve(sub, [1e200, 0.0])
    assert r.status is Status.DIVERGED and r.iterations == 0
    assert np.array_equal(r.x, [1e200, 0.0])
