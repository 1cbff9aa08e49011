import math

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
    x = inst.x0
    for _ in range(r.iterations):
        x = dca_step(P, x, opts, zero_tol=opts.resolve_zero_tol(inst.x0)).x
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

    def stub(spec, x0, opts):
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
    # A solve takes the norm of the full A once, from the problem's cache,
    # and one more for each working-set round, of that round's m x |W| block
    # with |W| < m/2.  A bare step takes one norm per inner solve: of the
    # full A for a full-size solve, of the block for a round.
    inst = gen_sparse_recovery(
        SparseSpec(seed=0, m=20, n=50, sparsity=4, noise_variance=1e-4, gamma=0.6), 0
    )
    P = inst.problem
    opts = DcaOptions(inner_solver=inner_solver)
    calls = _count_op_norms(monkeypatch)
    solves = _record_inner_solves(monkeypatch, inner_solver)
    r = solve_dca(P, inst.x0, opts)
    rounds = [A.shape for A, _ in solves if A.shape != P.A.shape]
    assert r.iterations >= 3 and calls == [P.A.shape] + rounds
    assert all(m == P.m and 2 * size < P.m for m, size in rounds)
    if inner_solver == "dr-in-fb":
        # fb-in-dr's half points are dense, so its steps never take one.
        assert rounds
    # From the origin the first set holds m/2 violators: one full-size solve.
    # From dr-in-fb's sparse solution the step solves on working sets.
    for x_k in (inst.x0, r.x):
        calls.clear()
        solves.clear()
        step = dca_step(P, x_k, opts)
        assert calls == [A.shape for A, _ in solves]
        # Handing ||A|| down saves the full A's norm and changes no step.
        calls.clear()
        given = dca_step(P, x_k, opts, _op_norm=float(np.linalg.norm(P.A, 2)))
        assert P.A.shape not in calls
        assert given.x.tobytes() == step.x.tobytes()


def test_desk_dca_solves_its_subproblems_on_working_sets(monkeypatch):
    # Solving each subproblem on all 256 columns took 222 inner iterations
    # in 3 solves; the working sets take 96 in 4 rounds, to the same
    # objective.
    inst = gen_sparse_recovery(DESK, 0)
    solves = _record_inner_solves(monkeypatch)
    r = solve_dca(inst.problem, inst.x0, DcaOptions(max_outer=1000, step_tol=1e-5))
    assert r.status is Status.CONVERGED
    assert sum(result.iterations for _, result in solves) <= 150
    assert r.trace[-1].objective == pytest.approx(4.100865395968498, rel=1e-12)


def test_desk_dca_on_an_l1_ball_solves_its_subproblems_on_working_sets(monkeypatch):
    # With C = L1Ball(t_level), solving each subproblem on all 256 columns
    # took 166 inner iterations in 3 solves; the working sets take 96 in 4
    # rounds, to the same objective.
    P, x0 = _desk_problem("l1-ball")
    solves = _record_inner_solves(monkeypatch)
    r = solve_dca(P, x0, DcaOptions(max_outer=1000, step_tol=1e-5))
    assert r.status is Status.CONVERGED
    assert all(2 * A.shape[1] < P.m for A, _ in solves)
    assert sum(result.iterations for _, result in solves) <= 120
    assert r.trace[-1].objective == pytest.approx(4.100865395968497, rel=1e-12)


def _desk_problem(C_name):
    """The trial-0 desk matrix; on the orthant, measuring ``|x_true|`` so that the solution is sparse.

    ``l1-ball`` has radius ``t_level``, where the ball does not bind at the
    subproblems' solutions; ``l1-ball-active`` has half that, where it does.
    """
    inst = gen_sparse_recovery(DESK, 0)
    P = inst.problem
    if C_name == "full-space":
        return P, inst.x0
    if C_name.startswith("l1-ball"):
        radius = inst.t_level * (0.5 if C_name == "l1-ball-active" else 1.0)
        return ProblemSpec(A=P.A, C=L1Ball(radius, P.n), Q=P.Q, gamma=P.gamma), inst.x0
    b = P.A @ np.abs(inst.x_true)
    return ProblemSpec(A=P.A, C=NonnegativeOrthant(P.n), Q=Singleton(b), gamma=P.gamma), inst.x0


@pytest.mark.parametrize("start", ["origin", "first-step"])
@pytest.mark.parametrize("inner_solver", ["dr-in-fb", "fb-in-dr"])
@pytest.mark.parametrize("C_name", ["full-space", "orthant", "l1-ball", "l1-ball-active"])
def test_working_set_step_passes_the_column_test_at_the_full_objective(
    C_name, inner_solver, start, monkeypatch
):
    P, x_k = _desk_problem(C_name)
    if start == "first-step":
        x_k = dca_step(P, x_k, DcaOptions(inner_solver="dr-in-fb")).x
    opts = DcaOptions(inner_solver=inner_solver)
    tol = min(opts.inner.tol, opts.step_tol / 10.0)
    solve = INNER_SOLVERS[inner_solver]
    solves = _record_inner_solves(monkeypatch, inner_solver)
    step = dca_step(P, x_k, opts)
    # No full-size solve: on the active l1 ball, a test without the ball's
    # multiplier lets in columns until the set reaches m/2.
    assert solves and all(2 * A.shape[1] < P.m for A, _ in solves)
    assert P.C.contains(step.x)
    column = {P.A[:, j].tobytes(): j for j in range(P.n)}
    W = [column[a.tobytes()] for a in solves[-1][0].T]
    outside = np.setdiff1d(np.arange(P.n), W)
    v = -P.gamma * (x_k / np.linalg.norm(x_k)) if x_k.any() else np.zeros(P.n)
    spec = SubproblemSpec(base=P, v=v)
    g = spec.smooth_gradient(step.x)
    # On the l1 ball the test adds the ball's multiplier, read off supp(x).
    support, nu = np.flatnonzero(step.x), 0.0
    if C_name.startswith("l1-ball") and support.size:
        nu = max(0.0, np.min(-g[support] * np.sign(step.x[support])) - P.gamma)
    assert not step.x[outside].any()
    g = g[outside]
    assert np.max(-g if C_name == "orthant" else np.abs(g)) <= P.gamma + nu + tol
    # A plain full solve: dr-in-fb's reaches the subproblem's minimum, and
    # fb-in-dr's, dense, stops up to 1e-5 relative above it.
    full = spec.objective(solve(spec, x_k, InnerOptions(tol=tol)).x)
    assert spec.objective(step.x) <= full + 1e-10 * abs(full)
    if inner_solver == "dr-in-fb":
        assert spec.objective(step.x) == pytest.approx(full, rel=1e-10)


def test_a_column_missing_from_the_first_set_takes_another_round(monkeypatch):
    P, x0 = _desk_problem("full-space")
    solves = _record_inner_solves(monkeypatch)
    step = dca_step(P, x0, DcaOptions(inner_solver="dr-in-fb"))
    assert len(solves) >= 2 and step.iterations == sum(r.iterations for _, r in solves)
    first = {a.tobytes() for a in solves[0][0].T}
    assert any(P.A[:, j].tobytes() not in first for j in np.flatnonzero(step.x))


def _off_centre_ball_case():
    P, x0 = _desk_problem("full-space")
    return ProblemSpec(A=P.A, C=Ball(np.full(P.n, 0.01), 1.0), Q=P.Q, gamma=P.gamma), x0


def _half_support_case():
    P, _ = _desk_problem("full-space")
    x_k = np.zeros(P.n)
    x_k[: P.m // 2] = 0.1
    return P, x_k


def _empty_set_case():
    # Q = {0}: the origin solves the subproblem and no column violates.
    A = np.random.default_rng(0).standard_normal((6, 8))
    return ProblemSpec(A=A, C=FullSpace(8), Q=Singleton(np.zeros(6)), gamma=0.5), np.zeros(8)


def _zero_block_case():
    # W = supp(x_k) = {0}, a zero column; the other column does not violate.
    A = np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 1.0]])
    return ProblemSpec(A=A, C=FullSpace(2), Q=Singleton(np.zeros(3)), gamma=0.5), np.array([1.0, 0.0])


@pytest.mark.parametrize(
    "case",
    [_off_centre_ball_case, _half_support_case, _empty_set_case, _zero_block_case],
    ids=["off-centre-ball", "support-of-m/2", "empty-set", "zero-block"],
)
def test_step_without_a_working_set_makes_one_full_size_solve(case, monkeypatch):
    P, x_k = case()
    solves = _record_inner_solves(monkeypatch)
    dca_step(P, x_k, DcaOptions(inner_solver="dr-in-fb"))
    assert [A.shape for A, _ in solves] == [P.A.shape]


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
