import math

import numpy as np
import pytest

from sfpsolve.dca import DcaOptions, dca_step, solve_dca
from sfpsolve.harness import RandomSpec, SparseSpec, gen_random_problem, gen_sparse_recovery
from sfpsolve.inner import InnerOptions, SubproblemSpec, solve_dr_in_fb
from sfpsolve.problem import ProblemSpec, Status, gamma_objective, stationarity_residual
from sfpsolve.prox import soft_threshold
from sfpsolve.sets import Box, FullSpace, NonnegativeOrthant, Singleton

TIGHT = DcaOptions(inner=InnerOptions(tol=1e-8, outer_max=10000))


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


def _count_op_norms(monkeypatch):
    # solve_dca reads ProblemSpec.op_norm, whose first use calls the norm
    # bound in sfpsolve.problem; a bare step's inner solve calls inner's.
    from sfpsolve import inner, linops, problem

    calls = []

    def counting(A):
        calls.append(1)
        return linops.inflated_op_norm(A)

    for module in (inner, problem):
        monkeypatch.setattr(module, "inflated_op_norm", counting)
    return calls


@pytest.mark.parametrize("inner_solver", ["dr-in-fb", "fb-in-dr"])
def test_op_norm_once_per_solve_and_per_bare_step(inner_solver, monkeypatch):
    inst = gen_sparse_recovery(
        SparseSpec(seed=0, m=20, n=50, sparsity=4, noise_variance=1e-4, gamma=0.6), 0
    )
    opts = DcaOptions(inner_solver=inner_solver)
    calls = _count_op_norms(monkeypatch)
    r = solve_dca(inst.problem, inst.x0, opts)
    assert r.iterations >= 3 and len(calls) == 1
    calls.clear()
    step = dca_step(inst.problem, inst.x0, opts)
    assert len(calls) == 1
    # Handing ||A|| down changes no step.
    calls.clear()
    given = dca_step(
        inst.problem, inst.x0, opts, _op_norm=float(np.linalg.norm(inst.problem.A, 2))
    )
    assert len(calls) == 0 and given.x.tobytes() == step.x.tobytes()


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
