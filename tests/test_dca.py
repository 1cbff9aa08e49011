import math
from dataclasses import replace

import numpy as np
import pytest

from sfpsolve import dca
from sfpsolve.dca import DcaOptions, dca_step, solve_dca
from sfpsolve.harness import RandomSpec, SparseSpec, gen_random_problem, gen_sparse_recovery
from sfpsolve.inner import INNER_SOLVERS, InnerOptions, SubproblemSpec, solve_dr_in_fb
from sfpsolve.problem import (
    IterateRecord,
    ProblemSpec,
    SolveResult,
    Status,
    gamma_objective,
    stationarity_residual,
)
from sfpsolve.prox import soft_threshold
from sfpsolve.sets import Ball, Box, FullSpace, L1Ball, NonnegativeOrthant, Singleton

TIGHT = DcaOptions(inner=InnerOptions(tol=1e-8, outer_max=10000))
# The sparse-fullspace benchmark instances: 100x256, k = 10.
DESK = SparseSpec(seed=0, m=100, n=256, sparsity=10, noise_variance=1e-4, gamma=0.6)


def unit_problem(b, gamma=0.7):
    n = len(b)
    return ProblemSpec(A=np.eye(n), C=FullSpace(n), Q=Singleton(np.asarray(b, float)), gamma=gamma)


def test_step_from_origin_solves_plain_lasso():
    b = np.array([2.0, -0.3, 1.4, 0.0])
    P = unit_problem(b)
    r = dca_step(P, np.zeros(4), TIGHT)
    assert np.linalg.norm(r.x - soft_threshold(b, 0.7)) <= 1e-4


def test_step_from_nonzero_shifts_by_unit_vector():
    # Completing the square in the separable subproblem moves the data by
    # gamma times the current unit vector before shrinking.
    b = np.array([2.0, -0.3, 1.4, 0.0])
    P = unit_problem(b)
    xk = np.array([1.0, 0.5, -0.2, 0.1])
    u = xk / np.linalg.norm(xk)
    r = dca_step(P, xk, TIGHT)
    assert np.linalg.norm(r.x - soft_threshold(b + 0.7 * u, 0.7)) <= 1e-4


def test_zero_stationary_termination():
    P = unit_problem([0.0, 0.0], gamma=0.5)
    r = solve_dca(P, np.zeros(2), DcaOptions())
    assert r.status == Status.ZERO_STATIONARY
    assert np.array_equal(r.x, np.zeros(2))


def test_zero_stop_records_the_origin_it_returns():
    # The first step lands 1.8e-13 from the origin, within zero_tol.
    P = unit_problem([0.5 + 1e-13, 0.0], gamma=0.5)
    r = solve_dca(P, np.zeros(2), DcaOptions())
    assert r.status == Status.ZERO_STATIONARY
    assert np.array_equal(r.x, np.zeros(2))
    assert r.trace[-1].objective == gamma_objective(P, r.x)
    assert r.trace[-1].grad_residual == stationarity_residual(P, r.x)
    assert r.trace[-1].l1_norm == 0.0


def test_zero_stop_needs_the_origin_in_C():
    # Both iterates of step 2 are within zero_tol (1e-5 here) of the origin,
    # which lies outside C: the step is an ordinary one and stays in C.
    C = Box([1e-7, -1e7], [1.0, 1e7])
    P = ProblemSpec(A=np.eye(2), C=C, Q=Singleton([0.0, 0.0]), gamma=0.5)
    r = solve_dca(P, np.array([1e-7, 1e7]), DcaOptions())
    assert r.status not in (Status.ZERO_STATIONARY, Status.DIVERGED)
    assert C.contains(r.x)
    assert r.trace[-1].objective == gamma_objective(P, r.x) < np.inf


def test_unit_design_converges_with_certificate():
    b = np.array([2.0, -0.3, 1.4, 0.0])
    P = unit_problem(b)
    r = solve_dca(P, np.zeros(4), DcaOptions())
    assert r.status == Status.CONVERGED
    assert stationarity_residual(P, r.x) <= 1e-4
    assert r.trace[-1].step_norm <= 1e-5


def test_monotone_descent_on_generated_instances():
    spec = RandomSpec(seed=7, m=40, n=100, trials=20)
    for trial in range(3):
        inst = gen_random_problem(spec, trial)
        r = solve_dca(inst.problem, inst.x0, DcaOptions())
        obj = r.objectives()
        assert np.all(np.diff(obj) <= 1e-6)
        assert np.all(np.isfinite(obj))


def test_iterates_bounded():
    spec = RandomSpec(seed=21, m=30, n=60, trials=5)
    inst = gen_random_problem(spec, 0)
    r = solve_dca(inst.problem, inst.x0, DcaOptions())
    # the l1 norm dominates the l2 norm, so this bounds every iterate norm
    l1s = np.array([rec.l1_norm for rec in r.trace])
    assert np.all(np.isfinite(l1s))
    assert np.max(l1s) <= 1e6


def test_infeasible_start_is_projected():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((4, 6))
    P = ProblemSpec(A=A, C=NonnegativeOrthant(6), Q=Singleton(rng.standard_normal(4)), gamma=0.5)
    r = solve_dca(P, -np.ones(6), DcaOptions(max_outer=5))
    assert "projected" in r.message


def test_converged_step_below_tolerance():
    spec = RandomSpec(seed=3, m=20, n=40, trials=2)
    inst = gen_random_problem(spec, 0)
    opts = DcaOptions(step_tol=1e-5)
    r = solve_dca(inst.problem, inst.x0, opts)
    if r.status == Status.CONVERGED:
        assert r.trace[-1].step_norm <= opts.step_tol


def test_options_validation():
    with pytest.raises(ValueError):
        DcaOptions(inner_solver="nope")
    with pytest.raises(ValueError):
        DcaOptions(step_tol=0.0)
    with pytest.raises(ValueError):
        DcaOptions(max_outer=0)


@pytest.mark.parametrize("field", ["step_tol", "zero_tol"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_options_reject_nan_and_inf(field, value):
    with pytest.raises(ValueError, match=field):
        DcaOptions(**{field: value})


def test_explicit_zero_tol_is_used_as_given():
    x = np.array([3.0, 4.0])
    assert DcaOptions(zero_tol=0.5).resolve_zero_tol(x) == 0.5
    assert DcaOptions(zero_tol=0.0).resolve_zero_tol(x) == 0.0
    assert DcaOptions().resolve_zero_tol(x) == 1e-12 * 6.0


def test_both_inner_solvers_reach_same_point():
    b = np.array([1.5, -0.8, 0.2])
    P = unit_problem(b, gamma=0.4)
    xa = solve_dca(P, np.zeros(3), DcaOptions(inner_solver="fb-in-dr")).x
    xb = solve_dca(P, np.zeros(3), DcaOptions(inner_solver="dr-in-fb")).x
    assert np.linalg.norm(xa - xb) <= 1e-4


@pytest.mark.parametrize(
    "inner_solver,iterations,message",
    [
        ("dr-in-fb", 3, "inner solve hit outer_max at steps 1, 2, 3"),
        # The discarded step 3 moves nothing: the run stalls at iterate 2.
        (
            "fb-in-dr",
            2,
            "inner solve hit outer_max at steps 1, 2, 3; inner result discarded at steps 3",
        ),
    ],
    ids=["dr-in-fb", "fb-in-dr"],
)
def test_message_names_capped_and_discarded_inner_steps(inner_solver, iterations, message):
    inst = gen_sparse_recovery(
        SparseSpec(seed=0, m=20, n=50, sparsity=4, noise_variance=1e-4, gamma=0.6), 0
    )
    P = inst.problem
    opts = DcaOptions(inner_solver=inner_solver, inner=InnerOptions(outer_max=1), max_outer=3)
    r = solve_dca(P, inst.x0, opts)
    assert r.status == Status.MAX_ITERATIONS
    assert r.iterations == iterations and len(r.trace) == iterations + 1
    assert r.message == message
    # The report changes nothing: the iterates are the chained dca_step results.
    x, step_opts = inst.x0, replace(opts, zero_tol=opts.resolve_zero_tol(inst.x0))
    for _ in range(r.iterations):
        x = dca_step(P, x, step_opts).x
    assert np.array_equal(r.x, x)


def test_discarded_step_ends_the_run_well_before_the_limit():
    # Retrying from the same iterate repeats the discarded inner solve, so
    # the run stops there instead of reading the zero move as convergence.
    inst = gen_sparse_recovery(
        SparseSpec(seed=0, m=20, n=50, sparsity=4, noise_variance=1e-4, gamma=0.6), 0
    )
    opts = DcaOptions(inner_solver="fb-in-dr", inner=InnerOptions(outer_max=1), max_outer=10)
    r = solve_dca(inst.problem, inst.x0, opts)
    assert r.status == Status.MAX_ITERATIONS and not r.converged
    assert r.iterations == 2
    assert r.message.endswith("inner result discarded at steps 3")


def test_first_step_on_a_random_orthant_instance_solves_its_subproblem():
    # Plain forward-backward ran this subproblem into the 2,000-iteration
    # cap ("inner solve hit outer_max at steps 1, ..., 14" for the run).
    inst = gen_random_problem(RandomSpec(seed=0, m=40, n=100, trials=8), 0, gamma=0.6)
    step = dca_step(inst.problem, inst.x0)
    assert step.status is Status.CONVERGED
    assert step.iterations < InnerOptions().outer_max


@pytest.mark.parametrize(
    "status, iterations, expected",
    [
        (Status.CONVERGED, 1, Status.CONVERGED),
        (Status.CONVERGED, 2, Status.MAX_ITERATIONS),
        (Status.MAX_ITERATIONS, 1, Status.MAX_ITERATIONS),
    ],
    ids=["converged-in-1", "converged-in-2", "capped-at-1"],
)
def test_discard_after_a_one_iteration_converged_solve_ends_converged(
    status, iterations, expected, monkeypatch
):
    # The stub's result lies a few ulps above the majorizer's value at x_k, so
    # the safeguard refuses it.  After a one-iteration converged solve x_k is
    # a fixed point to the inner tolerance; otherwise the run has stalled.
    P = unit_problem([1.0, -2.0, 0.5])
    x_k = np.array([0.3, -1.2, 0.0])

    def stub(spec, x0, opts):
        x = x0.copy()
        while spec.objective(x) <= spec.objective(x0):
            x[0] = np.nextafter(x[0], np.inf)
        assert spec.objective(x) - spec.objective(x0) <= 4 * np.spacing(spec.objective(x0))
        record = IterateRecord(
            k=iterations, objective=spec.objective(x), step_norm=0.0, grad_residual=0.0,
            elapsed_ms=0.0,
        )
        return SolveResult(x=x, status=status, trace=[record])

    monkeypatch.setitem(INNER_SOLVERS, "dr-in-fb", stub)
    r = solve_dca(P, x_k, DcaOptions(inner_solver="dr-in-fb"))
    assert r.status is expected
    assert np.array_equal(r.x, x_k)
    if expected is Status.CONVERGED:
        assert r.iterations == 1 and r.trace[-1].step_norm == 0.0 and r.message == ""
    else:
        assert r.iterations == 0 and r.message.endswith("inner result discarded at steps 1")


def test_a_refused_exact_result_ends_the_run_converged(monkeypatch):
    # The exact solve's result passes the optimality test, so a refusal by
    # the majorizer safeguard is rounding at a fixed point, whatever the
    # number of pivots: the run converges at x_k.
    P = unit_problem([1.0, -2.0, 0.5])
    x_k = np.array([0.3, -1.2, 0.0])

    def stub(spec, x0, opts, face):
        x = x0.copy()
        while spec.objective(x) <= spec.objective(x0):
            x[0] = np.nextafter(x[0], np.inf)
        assert spec.objective(x) - spec.objective(x0) <= 4 * np.spacing(spec.objective(x0))
        record = IterateRecord(
            k=3, objective=spec.objective(x), step_norm=0.0, grad_residual=0.0, elapsed_ms=0.0,
        )
        return SolveResult(x=x, status=Status.CONVERGED, trace=[record])

    monkeypatch.setattr(dca, "_solve_point_lasso", stub)
    r = solve_dca(P, x_k)
    assert r.status is Status.CONVERGED
    assert np.array_equal(r.x, x_k)
    assert r.iterations == 1 and r.trace[-1].step_norm == 0.0 and r.message == ""


def test_exact_solve_at_its_pivot_cap_falls_back_to_dr_in_fb():
    # The first subproblem, from the origin, takes more than one pivot.
    inst = gen_sparse_recovery(
        SparseSpec(seed=0, m=20, n=50, sparsity=4, noise_variance=1e-4, gamma=0.6), 0
    )
    P = inst.problem
    inner = InnerOptions(outer_max=1)
    step = dca_step(P, inst.x0, DcaOptions(inner=inner))
    assert step.message.startswith("exact inner solve fell back to dr-in-fb: pivots reached outer_max")
    named = dca_step(P, inst.x0, DcaOptions(inner_solver="dr-in-fb", inner=inner))
    assert step.x.tobytes() == named.x.tobytes() and step.status is named.status
    r = solve_dca(P, inst.x0, DcaOptions(inner=inner, max_outer=3))
    assert r.message.startswith("exact inner solve fell back at steps 1")


def test_default_dca_on_a_point_target_in_r_n_calls_no_inner_solver(monkeypatch):
    inst = gen_sparse_recovery(DESK, 0)
    solves = {name: _record_inner_solves(monkeypatch, name) for name in INNER_SOLVERS}
    r = solve_dca(inst.problem, inst.x0, DcaOptions(max_outer=1000, step_tol=1e-5))
    assert r.status is Status.CONVERGED and r.message == ""
    assert not any(solves.values())
    assert r.trace[-1].objective == pytest.approx(4.100865395968498, rel=1e-12)
    # A named solver still runs everywhere.
    solve_dca(inst.problem, inst.x0, DcaOptions(inner_solver="dr-in-fb", max_outer=2))
    assert solves["dr-in-fb"]


def _count_op_norms(monkeypatch):
    # solve_dca reads ProblemSpec.op_norm, whose first use calls the norm
    # bound in sfpsolve.problem; each inner solve without a handed-down norm
    # calls inner's.  Returns the shape of each matrix whose norm was taken.
    from sfpsolve import inner, linops, problem

    calls = []

    def counting(A):
        calls.append(A.shape)
        return linops.inflated_op_norm(A)

    for module in (inner, problem):
        monkeypatch.setattr(module, "inflated_op_norm", counting)
    return calls


def _record_inner_solves(monkeypatch, inner_solver="dr-in-fb"):
    """Wrap one ``INNER_SOLVERS`` entry; returns the ``(A, result)`` of each of its calls."""
    solves = []
    solve = INNER_SOLVERS[inner_solver]

    def recording(spec, x0, opts):
        result = solve(spec, x0, opts)
        solves.append((spec.base.A, result))
        return result

    monkeypatch.setitem(INNER_SOLVERS, inner_solver, recording)
    return solves


@pytest.mark.parametrize("inner_solver", ["dr-in-fb", "fb-in-dr"])
def test_op_norm_once_per_solve_and_per_bare_step(inner_solver, monkeypatch):
    # A named inner solver solves every subproblem on all columns: a solve
    # takes the norm of the full A once, from the problem's cache, and a bare
    # step takes it once, in its one inner solve.
    inst = gen_sparse_recovery(
        SparseSpec(seed=0, m=20, n=50, sparsity=4, noise_variance=1e-4, gamma=0.6), 0
    )
    P = inst.problem
    opts = DcaOptions(inner_solver=inner_solver)
    calls = _count_op_norms(monkeypatch)
    solves = _record_inner_solves(monkeypatch, inner_solver)
    r = solve_dca(P, inst.x0, opts)
    assert r.iterations >= 3 and calls == [P.A.shape]
    assert len(solves) == r.iterations and all(A is P.A for A, _ in solves)
    for x_k in (inst.x0, r.x):
        calls.clear()
        step = dca_step(P, x_k, opts)
        assert calls == [P.A.shape]
        # Handing ||A|| down saves that norm and changes no step.
        calls.clear()
        given = dca_step(P, x_k, opts, _op_norm=float(np.linalg.norm(P.A, 2)))
        assert calls == []
        assert given.x.tobytes() == step.x.tobytes()


def _binding_l1_ball_problem():
    """The trial-0 desk instance on the l1 ball of radius ``t_level/2``, which binds, with a noise-ball Q.

    Q is the sparse-l1ball benchmark's noise ball, of radius
    ``sqrt(m * 1e-4)`` around b.
    """
    inst = gen_sparse_recovery(DESK, 0)
    P = inst.problem
    C = L1Ball(0.5 * inst.t_level, P.n)
    return ProblemSpec(A=P.A, C=C, Q=Ball(P.Q.center, 0.1), gamma=P.gamma), inst.x0


def test_dca_on_a_binding_l1_ball_takes_the_ball_multiplier_to_dr_in_fb_objective(monkeypatch):
    # With t = t_level/2 the ball binds: the first step's result has
    # ||x||_1 = t, and on its support -g_i*sign(x_i) = gamma + nu with
    # nu > 0, while every column off it passes |g_j| <= gamma + nu.
    P, x0 = _binding_l1_ball_problem()
    solves = {name: _record_inner_solves(monkeypatch, name) for name in INNER_SOLVERS}
    step = dca_step(P, x0)
    assert step.status is Status.CONVERGED and step.message == ""
    assert np.abs(step.x).sum() == pytest.approx(P.C.radius, rel=1e-12)
    g = SubproblemSpec(base=P, v=np.zeros(P.n)).smooth_gradient(step.x)
    support = np.flatnonzero(step.x)
    nu = -g[support] * np.sign(step.x[support]) - P.gamma
    assert nu.min() > 0.0 and nu.max() - nu.min() <= 1e-10 * nu.max()
    off = np.delete(np.abs(g), support)
    assert off.max() <= P.gamma + nu.min() + DcaOptions().inner.tol
    exact = solve_dca(P, x0)
    assert exact.status is Status.CONVERGED and exact.message == ""
    assert not any(solves.values())
    named = solve_dca(P, x0, DcaOptions(inner_solver="dr-in-fb"))
    assert named.status is Status.CONVERGED
    assert exact.trace[-1].objective == pytest.approx(named.trace[-1].objective, rel=1e-10)


def test_a_step_whose_minimizer_has_ax_in_q_falls_back_to_dr_in_fb():
    # x_k = (1, 0) gives v = (-0.5, 0): on the face S = {0} the linear term
    # vanishes, and the face's minimizer, x_k itself, has Ax at Q's centre.
    for C in (FullSpace(2), L1Ball(2.0, 2)):
        P = ProblemSpec(A=np.eye(2), C=C, Q=Ball([1.0, 0.0], 0.5), gamma=0.5)
        x_k = np.array([1.0, 0.0])
        step = dca_step(P, x_k)
        assert step.message == "exact inner solve fell back to dr-in-fb: Ax lands in Q"
        named = dca_step(P, x_k, DcaOptions(inner_solver="dr-in-fb"))
        assert step.x.tobytes() == named.x.tobytes() and step.status is named.status
        r = solve_dca(P, x_k)
        assert r.status is Status.CONVERGED
        assert r.message == "exact inner solve fell back at steps 1"


def test_a_start_whose_norm_overflows_ends_diverged_at_iteration_0():
    # ||x0||^2 overflows a float, ||x0|| does not: the default zero_tol
    # resolves to a finite threshold and the first record diverges.
    P = ProblemSpec(A=np.eye(2), C=FullSpace(2), Q=Singleton([1.0, 0.0]), gamma=0.5)
    assert DcaOptions().resolve_zero_tol(np.array([1e200, 0.0])) == 1e-12 * (1.0 + 1e200)
    r = solve_dca(P, [1e200, 0.0])
    assert r.status is Status.DIVERGED and r.iterations == 0


@pytest.mark.parametrize("kappa", [0.05, 0.5])
def test_dr_in_fb_and_dca_do_not_depend_on_kappa(kappa):
    # kappa is fb-in-dr's DR scale; dr-in-fb thresholds with the subproblem's
    # own gamma.  Thresholding with kappa ended this dca run converged at
    # 0.287902 instead of 0.277363.
    inst = gen_sparse_recovery(
        SparseSpec(seed=0, m=40, n=100, sparsity=5, noise_variance=1e-4, gamma=0.1), 0
    )
    P = inst.problem
    spec = SubproblemSpec(base=P, v=np.zeros(P.n))
    default = solve_dr_in_fb(spec, inst.x0)
    scaled = solve_dr_in_fb(spec, inst.x0, InnerOptions(kappa=kappa))
    assert scaled.iterations == default.iterations
    assert scaled.x.tobytes() == default.x.tobytes()
    objective = solve_dca(P, inst.x0).trace[-1].objective
    opts = DcaOptions(inner=InnerOptions(kappa=kappa))
    assert solve_dca(P, inst.x0, opts).trace[-1].objective == objective


@pytest.mark.parametrize("inner_solver", [None, "dr-in-fb"])
def test_a_bare_step_from_a_point_whose_squared_norm_overflows_ends_diverged(inner_solver):
    # The rule solve_dca follows from the same start: diverged, with x_k kept.
    P = ProblemSpec(A=np.eye(2), C=FullSpace(2), Q=Singleton([1.0, 0.0]), gamma=0.5)
    step = dca_step(P, [1e200, 0.0], DcaOptions(inner_solver=inner_solver))
    assert step.status is Status.DIVERGED and step.iterations == 0
    assert step.message == "the start's squared norm overflows a float"
    assert np.array_equal(step.x, [1e200, 0.0])
