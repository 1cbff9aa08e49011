import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from sfpsolve import baselines
from sfpsolve.baselines import (
    CqOptions,
    McqOptions,
    project_level_set,
    select_subgradient,
    solve_cq,
    solve_mcq,
)
from sfpsolve.fbsplit import FbOptions, solve_fb
from sfpsolve.harness import RandomSpec, SparseSpec, gen_random_problem, gen_sparse_recovery
from sfpsolve.linops import norm, sfp_gradient
from sfpsolve.problem import (
    ProblemSpec,
    Status,
    Stop,
    iterate,
    sfp_residual_value,
    start_point,
)
from sfpsolve.prox import fista_momentum
from sfpsolve.sets import Ball, Box, FullSpace, L1Ball, NonnegativeOrthant, Singleton


def test_cq_single_exact_step():
    b = np.array([1.0, -2.0])
    P = ProblemSpec(A=np.eye(2), C=NonnegativeOrthant(2), Q=Singleton(b), gamma=1.0)
    r = solve_cq(P, np.array([0.3, 0.7]), CqOptions(step=1.0, max_iter=1))
    # one unit step lands on the clamped target regardless of the start
    assert np.allclose(r.x, [1.0, 0.0], atol=1e-15)


def test_cq_feasible_start_is_fixed_point():
    b = np.array([0.5, 1.5])
    P = ProblemSpec(A=np.eye(2), C=NonnegativeOrthant(2), Q=Singleton(b), gamma=1.0)
    r = solve_cq(P, b, CqOptions())
    assert r.status == Status.CONVERGED
    assert r.trace[-1].step_norm == 0.0
    assert np.array_equal(r.x, b)


def test_cq_reaches_tiny_residual_on_consistent_instances():
    spec = RandomSpec(seed=5, m=40, n=100, trials=3)
    for trial in range(3):
        inst = gen_random_problem(spec, trial)
        r = solve_cq(inst.problem, inst.x0, CqOptions(step_tol=0.0))
        assert min(rec.sfp_residual for rec in r.trace) <= 1e-10


def test_cq_residual_nonincreasing():
    spec = RandomSpec(seed=9, m=20, n=50, trials=1)
    inst = gen_random_problem(spec, 0)
    r = solve_cq(inst.problem, inst.x0, CqOptions())
    res = np.array([rec.sfp_residual for rec in r.trace])
    assert np.all(np.diff(res) <= 1e-12)


def test_select_subgradient_signs():
    assert np.array_equal(select_subgradient([2.0, -3.0, 0.0]), [1.0, -1.0, 0.0])
    assert np.array_equal(select_subgradient(np.zeros(3)), np.zeros(3))


def test_select_subgradient_inequality():
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = rng.standard_normal(5) * 2
        x[rng.integers(5)] = 0.0
        xi = select_subgradient(x)
        y = rng.standard_normal(5) * 3
        assert np.sum(np.abs(y)) >= np.sum(np.abs(x)) + float(xi @ (y - x)) - 1e-12


def test_level_set_projection_inside():
    y = np.array([0.1, 0.1])
    out = project_level_set(np.array([0.5, 0.0]), 1.0, y)
    assert np.array_equal(out, y)


def test_level_set_projection_formula():
    out = project_level_set(np.array([2.0, 0.0]), 1.0, np.array([2.0, 0.0]))
    assert np.allclose(out, [1.0, 0.0], atol=1e-15)


def test_level_set_projection_lands_on_cut():
    rng = np.random.default_rng(2)
    for _ in range(50):
        x_k = rng.standard_normal(4) * 2
        t = 0.5
        y = rng.standard_normal(4) * 3
        out = project_level_set(x_k, t, y)
        xi = select_subgradient(x_k)
        cut = np.sum(np.abs(x_k)) - t + float(xi @ (out - x_k))
        assert cut <= 1e-12


def test_level_set_contains_the_l1_ball():
    # Every point of the l1 ball satisfies the subgradient cut, so the
    # half-space really is a relaxation.
    rng = np.random.default_rng(3)
    t = 1.0
    for _ in range(50):
        x_k = rng.standard_normal(4)
        xi = select_subgradient(x_k)
        z = rng.standard_normal(4)
        z *= t / max(np.sum(np.abs(z)), t)  # now ||z||_1 <= t
        assert np.sum(np.abs(x_k)) - t + float(xi @ (z - x_k)) <= 1e-12


def test_level_set_degenerate_cut_raises():
    with pytest.raises(ValueError, match="empty half-space"):
        project_level_set(np.zeros(2), -1.0, np.array([1.0, 1.0]))


def test_mcq_fixed_point():
    b = np.array([0.25, -0.5])
    P = ProblemSpec(A=np.eye(2), C=FullSpace(2), Q=Singleton(b), gamma=1.0)
    r = solve_mcq(P, b, McqOptions(t=5.0))
    assert r.status == Status.CONVERGED
    assert r.trace[-1].step_norm == 0.0


def test_mcq_backtracking_count_on_unit_design():
    # With the identity design the gradient map is x - b, so the acceptance
    # condition reduces to alpha <= mu and the first accepted step is
    # sigma * l**m with m = ceil(log(mu/sigma)/log(l)).
    b = np.array([1.0, 2.0])
    P = ProblemSpec(A=np.eye(2), C=FullSpace(2), Q=Singleton(b), gamma=1.0)
    opts = McqOptions(t=100.0, sigma=1.0, l=0.5, mu=0.5, max_iter=1)
    r = solve_mcq(P, np.array([4.0, 4.0]), opts)
    rec = r.trace[-1]
    alpha = rec.step_norm / rec.grad_residual
    assert alpha == pytest.approx(0.5, rel=1e-12)


def test_mcq_converges_on_small_lasso_instance():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((8, 5))
    x_true = np.zeros(5)
    x_true[2] = 1.0
    b = A @ x_true
    t = float(np.sum(np.abs(x_true)))
    P = ProblemSpec(A=A, C=FullSpace(5), Q=Singleton(b), gamma=1.0)
    r = solve_mcq(P, np.zeros(5), McqOptions(t=t, max_iter=3000, step_tol=1e-9))
    assert np.sum(np.abs(r.x)) <= t + 1e-6
    assert r.trace[-1].sfp_residual < r.trace[0].sfp_residual


def test_mcq_backtracking_stays_under_cap():
    # Lipschitz gradients guarantee finite backtracking; no run on the
    # benchmark-style instance should exhaust the cap.
    spec = RandomSpec(seed=6, m=20, n=50, trials=1)
    inst = gen_random_problem(spec, 0)
    r = solve_mcq(inst.problem, inst.x0, McqOptions(t=inst.t_level, max_iter=200))
    assert "backtracking cap" not in r.message


def test_cq_converges_where_the_squared_gradient_norm_overflows():
    # The start gradient A'(A x0 - b) has norm about 1e300; its square overflows.
    A = 1e150 * np.eye(3)
    P = ProblemSpec(A=A, C=L1Ball(1.0, 3), Q=Singleton(A @ np.array([0.5, 0.0, 0.2])), gamma=1.0)
    r = solve_cq(P, np.ones(3))
    assert (r.status, r.iterations) == (Status.CONVERGED, 2)
    assert 1e299 < r.trace[0].grad_residual < np.inf


def _no_certificate(monkeypatch):
    """Make ``solve_mcq`` iterate on an instance whose empty level set it would certify."""
    monkeypatch.setattr(baselines, "level_set_bound", lambda *args, **kwargs: -math.inf)


def test_mcq_trace_records_l1_norm(monkeypatch):
    # min ||x||_1 over {x = b} is 2 > t: without the certificate the run iterates.
    _no_certificate(monkeypatch)
    b = np.array([1.0, 1.0])
    P = ProblemSpec(A=np.eye(2), C=FullSpace(2), Q=Singleton(b), gamma=1.0)
    r = solve_mcq(P, np.zeros(2), McqOptions(t=1.0, max_iter=5))
    assert len(r.trace) > 1
    assert all(rec.l1_norm is not None for rec in r.trace)


def test_mcq_options_validation():
    with pytest.raises(ValueError):
        McqOptions(t=1.0, l=1.0)
    with pytest.raises(ValueError):
        McqOptions(t=1.0, mu=0.0)
    with pytest.raises(ValueError):
        McqOptions(t=0.0)
    with pytest.raises(ValueError):
        McqOptions(t=1.0, sigma=-1.0)


def test_cq_options_validation():
    with pytest.raises(ValueError):
        CqOptions(step=0.0)
    with pytest.raises(ValueError):
        CqOptions(max_iter=0)


@pytest.mark.parametrize("field", ["step", "step_tol"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_cq_options_reject_nan_and_inf(field, value):
    with pytest.raises(ValueError, match=field):
        CqOptions(**{field: value})


@pytest.mark.parametrize(
    "field, value",
    [(f, v) for f in ("t", "sigma", "step_tol") for v in (math.nan, math.inf)]
    + [("l", math.nan), ("mu", math.nan)],
)
def test_mcq_options_reject_nan_and_inf(field, value):
    with pytest.raises(ValueError, match=f"^{field} "):
        McqOptions(**{"t": 1.0, field: value})


def test_mcq_backtracking_cap_stops_without_recording_the_failed_step():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((6, 10))
    b = A @ rng.standard_normal(10)
    P = ProblemSpec(A=A, C=FullSpace(10), Q=Singleton(b), gamma=1.0)
    # From the origin the gradient is -A'b != 0; steps of this size fail the
    # gradient-variation test on both allowed trials.
    r = solve_mcq(P, np.zeros(10), McqOptions(t=5.0, sigma=1e6, backtrack_cap=1))
    assert r.status == Status.MAX_ITERATIONS
    assert r.message == "backtracking cap 1 reached at iteration 1"
    assert [rec.k for rec in r.trace] == [0]
    assert r.iterations == 0
    assert np.array_equal(r.x, np.zeros(10))


def _reference_mcq(P, x0, opts):
    """``solve_mcq`` with the plain backtracking loop: every trial runs the exact test."""
    x, _ = start_point(P, x0, project=False)
    alpha = opts.sigma

    def step(k, x):
        nonlocal alpha
        g = sfp_gradient(P.A, P.Q, x)
        alpha = opts.sigma
        for _ in range(opts.backtrack_cap + 1):
            x_bar = baselines.project_level_set(x, opts.t, x - alpha * g)
            g_bar = sfp_gradient(P.A, P.Q, x_bar)
            gap = float(np.linalg.norm(g - g_bar))
            if gap <= opts.mu * float(np.linalg.norm(x - x_bar)) / alpha:
                break
            alpha *= opts.l
        else:
            message = f"backtracking cap {opts.backtrack_cap} reached at iteration {k}"
            return None, 0.0, Stop(Status.MAX_ITERATIONS, message)
        x_next = baselines.project_level_set(x, opts.t, x - alpha * g_bar)
        return x_next, float(np.linalg.norm(x_next - x)), None

    def monitor(k, x, move):
        res = sfp_residual_value(P, x)
        grad_residual = move / alpha if k else norm(sfp_gradient(P.A, P.Q, x))
        return {"objective": res, "grad_residual": grad_residual, "sfp_residual": res,
                "l1_norm": float(np.sum(np.abs(x)))}

    return iterate(x, step, monitor, opts.max_iter, opts.step_tol)


def _lasso_instance(seed, m=12, n=30):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    x_true = np.zeros(n)
    x_true[:4] = rng.standard_normal(4) * 2.0
    return A, A @ x_true, x_true


def _assert_same_run(r, ref):
    """Same status, message and final bits, and every trace column but the time."""
    assert (r.status, r.message) == (ref.status, ref.message)
    assert np.array_equal(r.x, ref.x)
    assert [replace(rec, elapsed_ms=0.0) for rec in r.trace] == [
        replace(rec, elapsed_ms=0.0) for rec in ref.trace
    ]


@pytest.mark.parametrize("target", ["singleton", "ball", "ball-radius-0", "box"])
@pytest.mark.parametrize(
    "seed, m, n",
    # A tall A (m > n): M = AA' is singular, and M is larger than A.
    [*(pytest.param(seed, 12, 30, id=str(seed)) for seed in range(3)),
     pytest.param(3, 40, 20, id="tall")],
)
def test_mcq_screen_changes_no_output(seed, m, n, target, monkeypatch):
    # t is below min ||x||_1 over {Ax = b} on several of these instances; the
    # certificate is turned off so that the screen runs.
    _no_certificate(monkeypatch)
    A, b, x_true = _lasso_instance(seed, m, n)
    Q = {
        "singleton": Singleton(b),
        # A x0 = 3b starts outside this ball, which holds A*0; the level
        # set pulls the iterates into it.
        "ball": Ball(b, 1.1 * float(np.linalg.norm(b))),
        "ball-radius-0": Ball(b, 0.0),
        # Not screened: the plain loop runs.
        "box": Box(b - 0.1, b + 0.1),
    }[target]
    P = ProblemSpec(A=A, C=FullSpace(n), Q=Q, gamma=1.0)
    # sigma = 1 is far above mu/||A||^2, so most trials are rejected.
    opts = McqOptions(t=0.8 * np.sum(np.abs(x_true)), sigma=1.0, max_iter=300, step_tol=1e-9)
    r = solve_mcq(P, 3.0 * x_true, opts)
    assert r.iterations > 0
    _assert_same_run(r, _reference_mcq(P, 3.0 * x_true, opts))
    if target == "ball":
        res = [rec.sfp_residual for rec in r.trace]
        assert res[0] > 0.0 and res[-1] == 0.0


def _count_level_set_projections(monkeypatch):
    calls = []
    original = baselines.project_level_set

    def counting(x_k, t, y, **kwargs):
        calls.append(1)
        return original(x_k, t, y, **kwargs)

    monkeypatch.setattr(baselines, "project_level_set", counting)
    return calls


def test_mcq_screen_leaves_only_the_accepted_trial_to_the_exact_test(monkeypatch):
    A, b, x_true = _lasso_instance(0)
    P = ProblemSpec(A=A, C=FullSpace(30), Q=Singleton(b), gamma=1.0)
    opts = McqOptions(t=float(np.sum(np.abs(x_true))), sigma=1.0, max_iter=100, step_tol=1e-9)
    calls = _count_level_set_projections(monkeypatch)
    r = solve_mcq(P, np.zeros(30), opts)
    screened = len(calls)
    calls.clear()
    ref = _reference_mcq(P, np.zeros(30), opts)
    _assert_same_run(r, ref)
    # The accepted trial and the update, per iteration.
    assert r.iterations == 100 and screened == 2 * r.iterations
    assert len(calls) > 5 * r.iterations


def test_mcq_screen_keeps_the_backtracking_cap_stop(monkeypatch):
    rng = np.random.default_rng(4)
    A = rng.standard_normal((6, 10))
    b = A @ rng.standard_normal(10)
    P = ProblemSpec(A=A, C=FullSpace(10), Q=Singleton(b), gamma=1.0)
    opts = McqOptions(t=5.0, sigma=1e6, backtrack_cap=8)
    calls = _count_level_set_projections(monkeypatch)
    r = solve_mcq(P, np.zeros(10), opts)
    assert r.message == "backtracking cap 8 reached at iteration 1"
    # Every trial was ruled out without the exact test.
    assert len(calls) == 0
    _assert_same_run(r, _reference_mcq(P, np.zeros(10), opts))


@pytest.mark.parametrize("target", ["singleton", "ball"])
def test_mcq_ladder_keeps_the_bits_of_repeated_backtracking(target):
    # With l = 0.3 the step sigma*l**m differs in its last bits from sigma
    # multiplied by l m times (m = 3, 5, 8, ...); the plain loop does the latter.
    A, b, x_true = _lasso_instance(1)
    Q = Singleton(b) if target == "singleton" else Ball(b, 0.05 * float(np.linalg.norm(b)))
    P = ProblemSpec(A=A, C=FullSpace(30), Q=Q, gamma=1.0)
    opts = McqOptions(t=float(np.sum(np.abs(x_true))), l=0.3, sigma=0.7, mu=0.4,
                      max_iter=200, step_tol=1e-9)
    _assert_same_run(solve_mcq(P, np.zeros(30), opts), _reference_mcq(P, np.zeros(30), opts))


@pytest.mark.parametrize(
    "target, shape",
    [
        pytest.param("singleton", (100, 256, 10), id="singleton"),
        pytest.param("noise-ball", (100, 256, 10), id="noise-ball"),
        pytest.param("singleton", (120, 512, 50), id="singleton-120x512"),
        pytest.param("noise-ball", (120, 512, 50), id="noise-ball-120x512"),
    ],
)
def test_mcq_screen_changes_no_output_at_benchmark_shape(target, shape, monkeypatch):
    # The desk-sparse instance (100x256, k=10) and the paper-scale one
    # (120x512, k=50) with Q = {b}, and with the noise ball
    # B(b, sqrt(m * noise_variance)) of the l1-ball workload.  The desk
    # level set with Q = {b} is empty; the certificate is turned off so that
    # the screen runs.
    _no_certificate(monkeypatch)
    m, n, k = shape
    spec = SparseSpec(seed=0, m=m, n=n, sparsity=k, noise_variance=1e-4, gamma=0.6)
    inst = gen_sparse_recovery(spec, 0)
    P = inst.problem
    if target == "noise-ball":
        P = replace(P, Q=Ball(P.Q.center, float(np.sqrt(spec.m * spec.noise_variance))))
    opts = McqOptions(t=inst.t_level, max_iter=60)
    r = solve_mcq(P, inst.x0, opts)
    assert r.iterations > 0
    _assert_same_run(r, _reference_mcq(P, inst.x0, opts))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("target", ["singleton", "ball"])
def test_mcq_screen_rules_out_no_trial_on_a_non_finite_gradient(target, bad):
    A, b, x_true = _lasso_instance(0)
    Q = Singleton(b) if target == "singleton" else Ball(b, 0.5)
    P = ProblemSpec(A=A, C=FullSpace(30), Q=Q, gamma=1.0)
    opts = McqOptions(t=0.8 * float(np.sum(np.abs(x_true))), backtrack_cap=20)
    ladder = [opts.sigma * 0.5**m for m in range(21)]  # exact for l = 0.5
    screen = baselines._trial_screen(P, opts, ladder, baselines._gram(A))
    x = 3.0 * x_true
    g = sfp_gradient(A, Q, x)
    # The finite gradient has trials to rule out: sigma = 1 is far above mu/||A||^2.
    assert next(screen(x, g, np.sign(x), float(np.sum(np.abs(x))))) < ladder[0]
    g[3] = bad
    # Every trial is left to the exact test, the first one included.  The
    # solver's loop runs with these warnings silenced too.
    with np.errstate(over="ignore", invalid="ignore"):
        assert list(screen(x, g, np.sign(x), float(np.sum(np.abs(x))))) == ladder


def test_mcq_overflowing_start_ends_diverged_at_iteration_0():
    # ||A x0 - P_Q(A x0)||^2 and ||A||_F^2 overflow; the screen's norms warn
    # nothing (warnings are errors in this suite) and the start record ends the run.
    A = 1e200 * np.eye(2)
    P = ProblemSpec(A=A, C=FullSpace(2), Q=Singleton([1e200, 0.0]), gamma=1.0)
    r = solve_mcq(P, np.array([1.0, 1.0]), McqOptions(t=1.0))
    assert r.status == Status.DIVERGED
    assert r.iterations == 0 and len(r.trace) == 1
    assert r.message == "non-finite objective at iteration 0"
    assert np.array_equal(r.x, [1.0, 1.0])


@pytest.mark.parametrize("target", ["singleton", "noise-ball"])
def test_mcq_screen_rules_out_only_steps_that_fail_the_exact_test(target):
    # Random points at the desk-sparse shape (100x256).  Each ladder also has
    # steps within 1e-12 to 1e-2 (relative) of the largest step that passes,
    # found by bisection, so ruled-out steps sit next to accepted ones.
    rng = np.random.default_rng(5)
    A = rng.standard_normal((100, 256))
    b = rng.standard_normal(100)
    Q = Singleton(b) if target == "singleton" else Ball(b, 0.1)
    P = ProblemSpec(A=A, C=FullSpace(256), Q=Q, gamma=1.0)
    opts = McqOptions(t=5.0, mu=0.5)
    ruled_out = 0
    for _ in range(20):
        x = rng.standard_normal(256) * (rng.random(256) < 0.2) * rng.uniform(0.01, 1.0)
        g = sfp_gradient(A, Q, x)
        xi = np.sign(x)

        def passes(alpha):
            x_bar = project_level_set(x, opts.t, x - alpha * g)
            gap = np.linalg.norm(g - sfp_gradient(A, Q, x_bar))
            return gap <= opts.mu * np.linalg.norm(x - x_bar) / alpha

        lo, hi = 1e-9, 1.0
        for _ in range(60):
            mid = math.sqrt(lo * hi)
            lo, hi = (mid, hi) if passes(mid) else (lo, mid)
        near = [lo * (1.0 + d) for e in range(2, 13) for d in (10.0**-e, -(10.0**-e))]
        ladder = sorted([0.01 * 0.9**m for m in range(80)] + near, reverse=True)
        screen = baselines._trial_screen(P, opts, ladder, baselines._gram(A))
        open_steps = set(screen(x, g, xi, float(np.sum(np.abs(x)))))
        for alpha in ladder:
            if alpha not in open_steps:
                ruled_out += alpha in near
                assert not passes(alpha), alpha
    # Not vacuous: near steps 1e-2 and more above the boundary are ruled out.
    assert ruled_out >= 20 * 2


@pytest.mark.parametrize("target", ["singleton", "ball"])
def test_mcq_screen_rules_out_no_trial_where_aat_overflows(target, monkeypatch):
    # ||A||_F is finite but the entries of AA' (3e308) overflow.  The screen
    # is built without a warning (warnings are errors in this suite).
    A = 1e154 * np.ones((2, 3))
    b = np.array([1.0, -2.0])
    Q = Singleton(b) if target == "singleton" else Ball(b, 0.5)
    P = ProblemSpec(A=A, C=FullSpace(3), Q=Q, gamma=1.0)
    opts = McqOptions(t=1.0, max_iter=5)
    ladder = [opts.sigma * 0.5**m for m in range(opts.backtrack_cap + 1)]  # exact for l = 0.5
    screen = baselines._trial_screen(P, opts, ladder, baselines._gram(A))
    x = np.array([1e-154, -2e-154, 0.0])
    g = sfp_gradient(A, Q, x)
    assert np.all(np.isfinite(g))
    with np.errstate(over="ignore", invalid="ignore"):
        assert list(screen(x, g, np.sign(x), float(np.sum(np.abs(x))))) == ladder
    # In the solver every trial of the first iteration reaches the exact
    # test, whose trial gradients overflow.
    calls = _count_level_set_projections(monkeypatch)
    r = solve_mcq(P, x, opts)
    assert r.message == "backtracking cap 60 reached at iteration 1"
    assert len(calls) == len(ladder)


# -- the empty-level-set certificate -----------------------------------------

DESK = SparseSpec(seed=0, m=100, n=256, sparsity=10, noise_variance=1e-4, gamma=0.6)


def test_mcq_certifies_an_empty_level_set_at_iteration_0():
    # min ||x||_1 over {x = b} is ||b||_1 = 4 > t = 1.
    P = ProblemSpec(A=np.eye(4), C=FullSpace(4), Q=Singleton(np.ones(4)), gamma=1.0)
    r = solve_mcq(P, np.zeros(4), McqOptions(t=1.0))
    assert r.status == Status.INFEASIBLE and not r.converged
    assert [rec.k for rec in r.trace] == [0]
    assert np.array_equal(r.x, np.zeros(4))
    prefix, suffix = "min ||x||_1 over {Ax in Q} >= ", " > t = 1"
    assert r.message.startswith(prefix) and r.message.endswith(suffix)
    shown = float(r.message[len(prefix):-len(suffix)])
    assert 1.0 < shown <= baselines.level_set_bound(P, 1.0, 1000) <= 4.0


def _l1_minimum(A, b):
    """``min{||x||_1 : Ax = b}`` over the basic solutions: an LP optimum is at one."""
    m, n = A.shape
    values = [np.abs(np.linalg.solve(A[:, cols], b)).sum()
              for cols in itertools.combinations(range(n), m)
              if np.linalg.matrix_rank(A[:, cols]) == m]
    return float(min(values))


@pytest.mark.parametrize("m, n", [(3, 6), (4, 8)])
@pytest.mark.parametrize("seed", range(4))
def test_level_set_bound_never_exceeds_the_exact_l1_minimum(seed, m, n):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    least = _l1_minimum(A, b)
    for gamma in (0.01, 0.1, 1.0):
        P = ProblemSpec(A=A, C=FullSpace(n), Q=Singleton(b), gamma=gamma)
        # At gamma = 0.01 the bound comes within about 1e-12 (relative) of the minimum.
        assert baselines.level_set_bound(P, least, 1000) <= least
        r = solve_mcq(P, np.zeros(n), McqOptions(t=least, max_iter=20))
        assert r.status != Status.INFEASIBLE and r.iterations > 0
    # Not vacuous: 10 % below the minimum the certificate fires.
    P = ProblemSpec(A=A, C=FullSpace(n), Q=Singleton(b), gamma=0.01)
    r = solve_mcq(P, np.zeros(n), McqOptions(t=0.9 * least))
    assert r.status == Status.INFEASIBLE and r.iterations == 0


@pytest.mark.parametrize("trial", range(5))
def test_mcq_certifies_the_desk_instances(trial):
    # The harness settings on the desk-sparse instances, where
    # min ||x||_1 over {Ax = b} is 10.06-10.08 against t = ||x_true||_1 = 10.
    inst = gen_sparse_recovery(DESK, trial)
    r = solve_mcq(inst.problem, inst.x0, McqOptions(t=inst.t_level))
    assert r.status == Status.INFEASIBLE
    assert r.iterations == 0 and np.array_equal(r.x, inst.x0)
    assert r.message.startswith("min ||x||_1 over {Ax in Q} >= 10.0")
    assert r.message.endswith("> t = 10")


class _CountingMatrix(np.ndarray):
    """A view of ``A`` that counts its products (``A.T`` is a counting view too).

    ``products`` counts ``dot``, the form of every product on a solver path;
    ``matmuls`` counts ``@``, which none of them takes.
    """

    products = matmuls = 0

    def dot(self, other):
        _CountingMatrix.products += 1
        return np.asarray(self).dot(other)

    def __matmul__(self, other):
        _CountingMatrix.matmuls += 1
        return np.asarray(self) @ other

    def __rmatmul__(self, other):
        _CountingMatrix.matmuls += 1
        return other @ np.asarray(self)


@pytest.mark.parametrize("trial", range(3))
def test_level_set_bound_gives_up_where_the_l1_minimum_is_t(trial):
    # Noiseless exact recovery: min ||x||_1 over {Ax = b} is t = ||x_true||_1,
    # so no bound can exceed t.  The bound's own iteration reaches a fixed
    # point up to rounding after 174-199 steps; the run ran its 1,000
    # iterations before.
    spec = replace(DESK, noise_variance=0.0)
    inst = gen_sparse_recovery(spec, trial)
    P = inst.problem
    object.__setattr__(P, "A", P.A.view(_CountingMatrix))
    _CountingMatrix.products = _CountingMatrix.matmuls = 0
    bound = baselines.level_set_bound(P, inst.t_level, 1000)
    assert inst.t_level - 1e-8 < bound <= inst.t_level
    # Two per iteration.  The step comes from P.op_norm, whose SVD makes no
    # product on this view, and no AA' is formed.
    assert 0 < _CountingMatrix.products <= 2 * 250
    assert _CountingMatrix.matmuls == 0


def _count_gram_and_eigvalsh(monkeypatch):
    """Count the calls of ``baselines._gram`` and ``np.linalg.eigvalsh``."""
    calls = {"gram": 0, "eigvalsh": 0}

    def counting(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(baselines, "_gram", counting("gram", baselines._gram))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
    return calls


def test_mcq_certificate_forms_no_aat(monkeypatch):
    # The certificate steps with the cached ||A||: no AA' and no eigendecomposition.
    calls = _count_gram_and_eigvalsh(monkeypatch)
    inst = gen_sparse_recovery(DESK, 0)
    r = solve_mcq(inst.problem, inst.x0, McqOptions(t=inst.t_level))
    assert r.status == Status.INFEASIBLE
    assert calls == {"gram": 0, "eigvalsh": 0}


def test_mcq_forms_aat_once_for_the_screen(monkeypatch):
    # The noise ball holds A x_true: the bound fails and the screen needs AA'.
    calls = _count_gram_and_eigvalsh(monkeypatch)
    inst = gen_sparse_recovery(DESK, 0)
    P = replace(inst.problem, Q=Ball(inst.problem.Q.center, float(np.sqrt(DESK.m * 1e-4))))
    r = solve_mcq(P, inst.x0, McqOptions(t=inst.t_level, max_iter=5))
    assert r.status != Status.INFEASIBLE and r.iterations > 0
    assert calls == {"gram": 1, "eigvalsh": 0}


def _counting_problem(Q):
    """A 6x10 problem whose ``A`` counts its products, ``||A||`` already computed."""
    rng = np.random.default_rng(11)
    P = ProblemSpec(A=rng.standard_normal((6, 10)), C=FullSpace(10), Q=Q(rng), gamma=0.6)
    P.op_norm
    object.__setattr__(P, "A", P.A.view(_CountingMatrix))
    _CountingMatrix.products = _CountingMatrix.matmuls = 0
    return P


def test_fb_makes_three_products_per_iteration():
    P = _counting_problem(lambda rng: Singleton(rng.standard_normal(6)))
    r = solve_fb(P, np.zeros(10), FbOptions(max_iter=5, step_tol=1e-300))
    assert (r.status, r.iterations) == (Status.MAX_ITERATIONS, 5)
    # Start record: A x, and A' in its stationarity column.  Each iteration:
    # A' in the gradient, which reuses the last record's A x; A x of the new
    # record, and A' in its stationarity column.  4 + 6K before A x was reused.
    assert (_CountingMatrix.products, _CountingMatrix.matmuls) == (2 + 3 * 5, 0)


def test_cq_makes_two_products_per_iteration():
    P = _counting_problem(lambda rng: Singleton(rng.standard_normal(6)))
    r = solve_cq(P, np.zeros(10), CqOptions(max_iter=5, step_tol=0.0))
    assert (r.status, r.iterations) == (Status.MAX_ITERATIONS, 5)
    # Start record: A x, and A' in its gradient column.  Each iteration: A'
    # in the gradient, which reuses the last record's A x; A x of the new
    # record.  3 + 3K before A x was reused.
    assert (_CountingMatrix.products, _CountingMatrix.matmuls) == (2 + 2 * 5, 0)


def test_mcq_reuses_the_records_image_in_its_gradient(monkeypatch):
    # A box Q: no level-set bound and no screen, so every product is the loop's own.
    calls = []

    def counting_projection(*args, **kwargs):
        calls.append(None)
        return project_level_set(*args, **kwargs)

    monkeypatch.setattr(baselines, "project_level_set", counting_projection)
    P = _counting_problem(lambda rng: Box(*np.add.outer([-0.1, 0.1], rng.standard_normal(6))))
    r = solve_mcq(P, np.zeros(10), McqOptions(t=5.0, max_iter=5, step_tol=0.0))
    assert (r.status, r.iterations) == (Status.MAX_ITERATIONS, 5)
    trials = len(calls) - 5
    assert trials > 5
    # Start record: A x, and A' in its gradient column.  Each iteration: A'
    # in g(x_k), which reuses the last record's A x; A and A' in g(x_bar) of
    # each trial; A x of the new record.  3 + 3K + 2*trials before A x was reused.
    assert (_CountingMatrix.products, _CountingMatrix.matmuls) == (2 + 2 * 5 + 2 * trials, 0)


@pytest.mark.parametrize("trial", range(4))
def test_level_set_bound_does_not_certify_the_noise_ball(trial):
    # The l1-ball workload's target B(b, sqrt(m * noise_variance)) holds A x_true.
    inst = gen_sparse_recovery(DESK, trial)
    P = replace(inst.problem, Q=Ball(inst.problem.Q.center, float(np.sqrt(DESK.m * 1e-4))))
    assert baselines.level_set_bound(P, inst.t_level, 1000) <= inst.t_level


def test_level_set_bound_keeps_its_value_on_the_shared_momentum_rule(monkeypatch):
    # The bound of the inline momentum loop, stored from one BLAS thread;
    # the comparison allows for another BLAS's summation order.  The run
    # stops on its gap after 108 iterations, three of them restarts.
    inst = gen_sparse_recovery(DESK, 0)
    P = replace(inst.problem, Q=Ball(inst.problem.Q.center, float(np.sqrt(DESK.m * 1e-4))))
    calls = []

    def counting(theta, turn):
        calls.append(turn > 0.0)
        return fista_momentum(theta, turn)

    monkeypatch.setattr(baselines, "fista_momentum", counting)
    bound = baselines.level_set_bound(P, inst.t_level, 1000)
    assert bound == pytest.approx(9.978499769356112, rel=1e-12)
    assert len(calls) > 50 and sum(calls) > 0


def test_level_set_bound_does_not_certify_a_consistent_3x4_instance():
    A = np.array([[1.0, 0.5, -0.3, 0.2], [0.1, -1.2, 0.4, 0.7], [0.6, 0.2, 0.9, -0.5]])
    b = A @ np.array([2.0, 0.0, -1.5, 0.0])
    P = ProblemSpec(A=A, C=FullSpace(4), Q=Singleton(b), gamma=0.1)
    assert baselines.level_set_bound(P, 3.5, 1000) <= 3.5


@pytest.mark.parametrize("target", ["singleton", "ball"])
def test_level_set_bound_certifies_nothing_where_aat_overflows(target):
    # The level set is empty (A has rank 1 and b is not near its range), but
    # the entries of AA' overflow; warnings are errors in this suite.
    A = 1e154 * np.ones((2, 3))
    b = np.array([1.0, -2.0])
    Q = Singleton(b) if target == "singleton" else Ball(b, 0.5)
    P = ProblemSpec(A=A, C=FullSpace(3), Q=Q, gamma=1.0)
    assert baselines.level_set_bound(P, 1.0, 1000) == -math.inf
    assert solve_mcq(P, np.zeros(3), McqOptions(t=1.0, max_iter=5)).status != Status.INFEASIBLE


def test_level_set_bound_on_a_design_of_norm_1e150():
    # ||A'r|| reaches about 1e300 at the start; min ||x||_1 over {Ax = b} is 0.7.
    A = 1e150 * np.eye(3)
    P = ProblemSpec(A=A, C=FullSpace(3), Q=Singleton(A @ np.array([0.5, 0.0, 0.2])), gamma=1.0)
    for t in (0.7, 1.0):
        assert baselines.level_set_bound(P, t, 1000) <= 0.7
        assert solve_mcq(P, np.ones(3), McqOptions(t=t, max_iter=5)).status != Status.INFEASIBLE


def test_level_set_bound_needs_a_ball():
    P = ProblemSpec(A=np.eye(2), C=FullSpace(2), Q=Box(-np.ones(2), np.ones(2)), gamma=1.0)
    with pytest.raises(ValueError, match="ball"):
        baselines.level_set_bound(P, 1.0, 10)


def test_cq_overflowing_first_step_ends_diverged():
    # x_1 = 1e300 * A'b with b = 1e10*1 overflows: the run stops before recording it.
    A = np.random.default_rng(3).standard_normal((5, 8))
    P = ProblemSpec(A=A, C=FullSpace(8), Q=Singleton(1e10 * np.ones(5)), gamma=1.0)
    r = solve_cq(P, np.zeros(8), CqOptions(step=1e300))
    assert r.status == Status.DIVERGED
    assert r.message == "non-finite iterate at iteration 1"
    assert len(r.trace) == 1 and np.array_equal(r.x, np.zeros(8))


@pytest.mark.parametrize("scale", [1e200, 1e-200], ids=["AA'-overflows", "AA'-underflows"])
def test_level_set_bound_without_a_finite_step_gives_no_certificate(scale):
    # AA' overflows to inf, or underflows to 0 so that lambda_max(AA') = 0.
    A = np.random.default_rng(4).standard_normal((5, 8))
    P = ProblemSpec(A=scale * A, C=FullSpace(8), Q=Singleton(np.ones(5)), gamma=1.0)
    assert baselines.level_set_bound(P, 1.0, 100) == -math.inf
