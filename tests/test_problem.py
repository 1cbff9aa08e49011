import math
import re

import numpy as np
import pytest

from sfpsolve.baselines import CqOptions, McqOptions, solve_cq, solve_mcq
from sfpsolve.dca import DcaOptions, solve_dca
from sfpsolve.fbsplit import FbOptions, solve_fb
from sfpsolve.minefuku import MfOptions, solve_mf
from sfpsolve.inner import SubproblemSpec
from sfpsolve.linops import read_vector
from sfpsolve.problem import (
    ProblemSpec,
    Status,
    Stop,
    gamma_objective,
    iterate,
    has_exact_residual,
    sfp_residual_value,
    stationarity_residual,
)
from sfpsolve.prox import l1_l2, soft_threshold
from sfpsolve.sets import (
    Ball,
    Box,
    FullSpace,
    L1Ball,
    NonnegativeOrthant,
    Singleton,
)


def unit_problem(b, gamma=0.5, C=None):
    n = len(b)
    return ProblemSpec(
        A=np.eye(n), C=C or FullSpace(n), Q=Singleton(np.asarray(b, float)), gamma=gamma
    )


def test_objective_zero_at_origin_when_feasible():
    P = ProblemSpec(A=np.eye(2), C=FullSpace(2), Q=Ball(np.zeros(2), 1.0), gamma=0.7)
    assert gamma_objective(P, np.zeros(2)) == 0.0


def test_objective_regularizer_only_at_target():
    b = np.array([1.0, -2.0, 0.5])
    P = unit_problem(b, gamma=0.9)
    assert gamma_objective(P, b) == pytest.approx(0.9 * l1_l2(b), abs=1e-12)


def test_objective_infinite_outside_C():
    P = unit_problem([1.0, 1.0], C=NonnegativeOrthant(2))
    assert gamma_objective(P, np.array([-1.0, 0.5])) == np.inf


def test_problem_validation():
    with pytest.raises(ValueError):
        ProblemSpec(A=np.eye(2), C=FullSpace(3), Q=Singleton(np.zeros(2)), gamma=0.5)
    with pytest.raises(ValueError):
        ProblemSpec(A=np.eye(2), C=FullSpace(2), Q=Singleton(np.zeros(3)), gamma=0.5)
    with pytest.raises(ValueError):
        ProblemSpec(A=np.eye(2), C=FullSpace(2), Q=Singleton(np.zeros(2)), gamma=0.0)


@pytest.mark.parametrize("gamma", [math.nan, math.inf])
def test_problem_rejects_nan_and_inf_gamma(gamma):
    with pytest.raises(ValueError, match="gamma"):
        ProblemSpec(A=np.eye(2), C=FullSpace(2), Q=Singleton(np.zeros(2)), gamma=gamma)


def test_all_zero_matrix_is_rejected():
    with pytest.raises(ValueError, match="nonzero entry"):
        ProblemSpec(A=np.zeros((2, 3)), C=FullSpace(3), Q=Singleton(np.ones(2)), gamma=0.5)


def test_stationarity_residual_at_fixed_point():
    # On the unit design the scheme's fixed point x = shrink(b + g*x/|x|, g)
    # satisfies the optimality inclusion; the residual certifies it.
    b = np.array([2.0, -0.3, 1.4, 0.0])
    gamma = 0.7
    P = unit_problem(b, gamma=gamma)
    x = soft_threshold(b, gamma)
    for _ in range(300):
        x = soft_threshold(b + gamma * x / np.linalg.norm(x), gamma)
    assert stationarity_residual(P, x) <= 1e-8


def test_stationarity_residual_interval_membership():
    # Exact zero residual when every coordinate's target sits inside the
    # allowed interval: zero coordinates need |target| <= gamma, nonzero
    # coordinates an exact match with the sign subgradient.  At x = (3, 0)
    # with b = (3, 0.5): coordinate 0 has target exactly gamma*sign(x_0),
    # coordinate 1 has |target| = 0.5 <= gamma.
    P = unit_problem([3.0, 0.5], gamma=1.0)
    assert stationarity_residual(P, np.array([3.0, 0.0])) <= 1e-12


def test_stationarity_residual_positive_off_stationarity():
    rng = np.random.default_rng(0)
    P = unit_problem([1.0, -1.0, 2.0], gamma=0.3)
    x = rng.standard_normal(3) * 3
    assert stationarity_residual(P, x) > 0


def test_stationarity_zero_branch():
    # At the origin the l2 subgradient is taken as zero and the l1
    # subdifferential is the full box, so small data leaves zero residual.
    P = unit_problem([0.1, -0.2], gamma=0.5)
    assert stationarity_residual(P, np.zeros(2)) == 0.0
    P2 = unit_problem([2.0, 0.0], gamma=0.5)
    assert stationarity_residual(P2, np.zeros(2)) == pytest.approx(1.5)


def test_residual_proxy_for_nonseparable_sets():
    assert has_exact_residual(FullSpace(2))
    assert has_exact_residual(NonnegativeOrthant(2))
    assert has_exact_residual(Box(np.zeros(2), np.ones(2)))
    assert not has_exact_residual(Ball(np.zeros(2), 1.0))
    assert not has_exact_residual(L1Ball(1.0, 2))
    assert not has_exact_residual(Singleton(np.zeros(2)))
    # proxy value is still well defined and nonnegative
    P = ProblemSpec(A=np.eye(2), C=L1Ball(1.0, 2), Q=Singleton(np.ones(2)), gamma=0.5)
    assert stationarity_residual(P, np.array([0.5, 0.25])) >= 0.0


def test_orthant_normal_cone_in_residual():
    # At an active bound the normal cone absorbs any inward-pointing target.
    P = unit_problem([-5.0, 1.0], gamma=0.5, C=NonnegativeOrthant(2))
    x = np.array([0.0, 1.5])
    # coordinate 1: x=0 active at the lower bound, target can be anything <= gamma
    res = stationarity_residual(P, x)
    assert res >= 0.0


def test_objective_coercive_along_directions():
    rng = np.random.default_rng(3)
    P = unit_problem([1.0, 2.0, -1.0], gamma=0.4)
    for _ in range(20):
        d = rng.standard_normal(3)
        while np.count_nonzero(np.abs(d) > 1e-12) < 2:
            d = rng.standard_normal(3)
        t = 100.0
        prev = gamma_objective(P, t * d)
        for _ in range(4):
            t *= 10.0
            cur = gamma_objective(P, t * d)
            assert cur > prev
            prev = cur


def test_objective_nonnegative_on_C():
    # Both terms are nonnegative: the fidelity by construction, the
    # regularizer because the l1 norm dominates the l2 norm.
    rng = np.random.default_rng(4)
    A = rng.standard_normal((4, 6))
    P = ProblemSpec(A=A, C=FullSpace(6), Q=Ball(rng.standard_normal(4), 0.3), gamma=0.8)
    for _ in range(100):
        x = rng.standard_normal(6) * 5
        assert sfp_residual_value(P, x) >= 0.0
        assert l1_l2(x) >= -1e-12
        assert gamma_objective(P, x) >= -1e-12


def gaussian_problem(m=20, n=50, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    x_true = np.zeros(n)
    x_true[:3] = 1.0
    return ProblemSpec(A=A, C=FullSpace(n), Q=Singleton(A @ x_true), gamma=0.6)


@pytest.mark.parametrize(
    "solve, opts",
    [(solve_fb, FbOptions(step=50.0, allow_unsafe_step=True)), (solve_cq, CqOptions(step=1.0))],
)
def test_divergence_returns_the_trace(solve, opts):
    P = gaussian_problem()
    r = solve(P, np.zeros(P.n), opts)
    assert r.status == Status.DIVERGED and not r.converged
    assert 0 < r.iterations < opts.max_iter
    assert np.all(np.isfinite(r.x))
    assert len(r.trace) == r.iterations + 1
    # The run ends before the first iterate with a non-finite column, and
    # numpy's overflow warnings (errors under the suite's settings) are off.
    assert re.fullmatch(rf"non-finite \w+ at iteration {r.iterations + 1}", r.message)
    for rec in r.trace:
        columns = [rec.objective, rec.step_norm, rec.grad_residual, rec.sfp_residual]
        assert np.all(np.isfinite(columns)), rec


@pytest.mark.parametrize(
    "enter",
    [
        lambda tmp: ProblemSpec(
            A=[[np.nan, 0.0], [0.0, 1.0]], C=FullSpace(2), Q=Singleton([0.0, 0.0]), gamma=0.5
        ),
        lambda tmp: solve_dca(unit_problem([1.0, 2.0]), [np.inf, 0.0]),
        lambda tmp: solve_fb(unit_problem([1.0, 2.0]), [np.nan, 0.0]),
        lambda tmp: Ball([np.nan, 0.0], 1.0),
        lambda tmp: Box([np.nan, 0.0], [1.0, 1.0]),
        lambda tmp: Box([0.0, 0.0], [np.inf, 1.0]),
        lambda tmp: SubproblemSpec(base=unit_problem([1.0, 2.0]), v=[np.nan, 0.0]),
        lambda tmp: read_vector(tmp / "v.vec"),
    ],
    ids=["A", "dca-x0", "fb-x0", "ball-center", "box-lower", "box-upper", "subproblem-v", "file"],
)
def test_non_finite_input_is_rejected_where_it_enters(enter, tmp_path):
    (tmp_path / "v.vec").write_text("2\n1.0 nan\n")
    with pytest.raises(ValueError, match="non-finite"):
        enter(tmp_path)


def small_sparse_instance():
    from sfpsolve.harness import SparseSpec, gen_sparse_recovery

    return gen_sparse_recovery(
        SparseSpec(seed=0, m=20, n=50, sparsity=4, noise_variance=1e-4, gamma=0.6), 0
    )


@pytest.mark.parametrize("solver", ["mf", "dca"])
def test_trace_columns_equal_the_standalone_functions(solver):
    # The shared monitor computes every column from one Ax; each value must be
    # the very float the standalone function gives at that record's iterate.
    # The trace holds no iterates, so record k's comes from a run of k steps.
    from sfpsolve.minefuku import MfOptions, solve_mf
    from sfpsolve.dca import DcaOptions

    inst = small_sparse_instance()
    P = inst.problem

    def run(k):
        if solver == "mf":
            return solve_mf(P, inst.x0, MfOptions(max_iter=k))
        return solve_dca(P, inst.x0, DcaOptions(max_outer=k))

    full = run(1000)
    assert full.converged and full.iterations > 2
    for rec in full.trace:
        x = run(rec.k).x if rec.k else inst.x0
        assert rec.objective == gamma_objective(P, x), rec.k
        assert rec.grad_residual == stationarity_residual(P, x), rec.k
        assert rec.sfp_residual == sfp_residual_value(P, x), rec.k


def _zero_stop_instance():
    # The first DCA step from 0 lands 1.8e-13 from the origin: both iterates
    # are within zero_tol, and the origin lies in C.
    return unit_problem([0.5 + 1e-13, 0.0]), np.zeros(2)


def _box_without_origin_instance():
    # The second DCA step starts and ends within zero_tol of the origin,
    # which C does not contain.
    C = Box([1e-7, -1e7], [1.0, 1e7])
    return unit_problem([0.0, 0.0], C=C), np.array([1e-7, 1e7])


def _small_sparse():
    inst = small_sparse_instance()
    return inst.problem, inst.x0


def _fb_objective(P, x):
    return sfp_residual_value(P, x) / P.gamma + l1_l2(x)


@pytest.mark.parametrize(
    "instance, solve, opts, objective",
    [
        (_small_sparse, solve_dca, None, gamma_objective),
        (_small_sparse, solve_mf, None, gamma_objective),
        (_small_sparse, solve_fb, None, _fb_objective),
        (_small_sparse, solve_cq, None, sfp_residual_value),
        (_small_sparse, solve_mcq, McqOptions(t=6.0), sfp_residual_value),
        (_zero_stop_instance, solve_dca, None, gamma_objective),
        (_box_without_origin_instance, solve_dca, None, gamma_objective),
    ],
    ids=["dca", "mf", "fb", "cq", "mcq", "dca-zero-stop", "dca-box-without-origin"],
)
def test_last_record_describes_the_returned_point(instance, solve, opts, objective):
    P, x0 = instance()
    r = solve(P, x0, opts)
    assert r.converged and r.iterations > 0
    last = r.trace[-1]
    assert last.objective.hex() == objective(P, r.x).hex()
    assert last.sfp_residual.hex() == sfp_residual_value(P, r.x).hex()
    if last.l1_norm is not None:
        assert last.l1_norm.hex() == float(np.abs(r.x).sum()).hex()


def _never_step(k, x):
    raise AssertionError("no step after the start record stops the run")


def test_stationary_start_ends_the_run_at_iteration_zero():
    r = iterate(np.zeros(2), _never_step, _finite_monitor, 10, stationarity_tol=1.0)
    assert r.status == Status.CONVERGED and r.iterations == 0 and len(r.trace) == 1
    assert r.message == ""


def test_stationary_record_at_max_iter_is_converged():
    def monitor(k, x, move):
        return {"objective": 1.0, "grad_residual": 1.0 if k == 3 else 2.0}

    def step(k, x):
        return x + 1.0, 1.0, None

    r = iterate(np.zeros(2), step, monitor, 3, step_tol=0.5, stationarity_tol=1.0)
    assert r.status == Status.CONVERGED and r.iterations == 3 and len(r.trace) == 4
    r = iterate(np.zeros(2), step, monitor, 2, step_tol=0.5, stationarity_tol=1.0)
    assert r.status == Status.MAX_ITERATIONS and r.iterations == 2


@pytest.mark.parametrize("k_bad", [0, 2])
def test_non_finite_column_ends_the_run_before_the_stationarity_test(k_bad):
    # grad_residual passes the test, but a non-finite objective is divergence.
    def monitor(k, x, move):
        return {"objective": np.inf if k == k_bad else 1.0, "grad_residual": 0.0 if k == k_bad else 2.0}

    def step(k, x):
        return x + 1.0, 1.0, None

    r = iterate(np.zeros(2), step if k_bad else _never_step, monitor, 10, stationarity_tol=1.0)
    assert r.status == Status.DIVERGED
    assert r.message == f"non-finite objective at iteration {k_bad}"
    assert r.iterations == max(k_bad - 1, 0)


def test_non_finite_start_record_ends_the_run_before_any_step():
    def step(k, x):
        raise AssertionError("no step after a non-finite start record")

    def monitor(k, x, move):
        return {"objective": 1.0, "grad_residual": np.inf}

    r = iterate(np.zeros(2), step, monitor, 10, message="x0 moved")
    assert r.status == Status.DIVERGED and r.iterations == 0
    assert r.message == "x0 moved; non-finite grad_residual at iteration 0"
    assert len(r.trace) == 1 and r.trace[0].grad_residual == np.inf


def _finite_monitor(k, x, move):
    return {"objective": 1.0, "grad_residual": 1.0, "sfp_residual": 1.0}


@pytest.mark.parametrize("record_trace", [True, False])
def test_finite_iterate_whose_square_overflows_is_recorded(record_trace):
    # The driver tests x.x first; near 1e200 it overflows to inf while every
    # entry is finite, so only the entrywise test may decide.
    big = np.array([1e200, -3e200, 2e200])
    with np.errstate(over="ignore"):
        assert not math.isfinite(big.dot(big)) and np.isfinite(big).all()

    def step(k, x):
        return big * k, 1.0, None

    r = iterate(np.zeros(3), step, _finite_monitor, 3, record_trace=record_trace)
    assert r.status == Status.MAX_ITERATIONS and r.iterations == 3 and r.message == ""
    assert np.array_equal(r.x, 3 * big)
    # Without a trace only the last iterate is recorded.
    assert len(r.trace) == (4 if record_trace else 1)


@pytest.mark.parametrize("record_trace", [True, False])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_non_finite_iterate_ends_the_run_as_diverged(bad, record_trace):
    def step(k, x):
        x_next = np.full(3, float(k))
        if k == 3:
            x_next[1] = bad
        return x_next, 1.0, None

    r = iterate(
        np.zeros(3), step, _finite_monitor, 10, message="x0 moved", record_trace=record_trace
    )
    assert r.status == Status.DIVERGED and r.iterations == 2
    assert r.message == "x0 moved; non-finite iterate at iteration 3"
    assert np.array_equal(r.x, np.full(3, 2.0))
    assert len(r.trace) == (3 if record_trace else 1) and r.trace[-1].k == 2


@pytest.mark.parametrize("stop", [None, Stop(Status.ZERO_STATIONARY)], ids=["no-stop", "step-stop"])
def test_only_record_that_is_not_finite_is_kept_and_ends_the_run_as_diverged(stop):
    def step(k, x):
        return x + 1.0, 1.0, stop if k == 2 else None

    def monitor(k, x, move):
        return {"objective": 1.0, "grad_residual": 1.0, "sfp_residual": np.inf if k == 2 else 1.0}

    r = iterate(np.zeros(3), step, monitor, 2, message="x0 moved", record_trace=False)
    assert r.status == Status.DIVERGED and r.iterations == 2
    assert r.message == "x0 moved; non-finite sfp_residual at iteration 2"
    assert np.array_equal(r.x, np.full(3, 2.0))
    assert len(r.trace) == 1 and r.trace[0].sfp_residual == np.inf


@pytest.mark.parametrize(
    "move, columns, first",
    [
        (1.0, {"objective": 1.0, "grad_residual": np.nan, "sfp_residual": np.inf}, "grad_residual"),
        (1.0, {"objective": 1.0, "sfp_residual": -np.inf, "grad_residual": np.nan}, "sfp_residual"),
        (np.inf, {"objective": np.nan, "grad_residual": 1.0, "sfp_residual": 1.0}, "step_norm"),
    ],
)
def test_the_first_non_finite_column_in_column_order_is_reported(move, columns, first):
    # Columns are tested in the record's order: step_norm, then the monitor's.
    def step(k, x):
        return x + 1.0, (move if k == 2 else 1.0), None

    def monitor(k, x, move):
        return columns if k == 2 else _finite_monitor(k, x, move)

    r = iterate(np.zeros(3), step, monitor, 10)
    assert r.status == Status.DIVERGED and r.iterations == 1
    assert r.message == f"non-finite {first} at iteration 2"
    assert np.array_equal(r.x, np.ones(3)) and len(r.trace) == 2


@pytest.mark.parametrize(
    "scale, what", [(1e200, "1e\\+200 is too large"), (1e-170, "1e-170 is too small")]
)
@pytest.mark.parametrize(
    "solve, opts",
    [(solve_fb, FbOptions()), (solve_cq, CqOptions()), (solve_mf, MfOptions())],
)
def test_step_bound_names_an_op_norm_whose_square_is_not_a_normal_float(solve, opts, scale, what):
    P = ProblemSpec(A=scale * np.eye(2), C=FullSpace(2), Q=Singleton([0.0, 0.0]), gamma=0.5)
    with pytest.raises(ValueError, match=r"\|\|A\|\| = " + what):
        solve(P, np.ones(2), opts)


def test_op_norm_is_computed_once_per_problem_on_first_use(monkeypatch):
    from sfpsolve import linops, problem

    calls = []

    def counting(A):
        calls.append(1)
        return linops.inflated_op_norm(A)

    monkeypatch.setattr(problem, "inflated_op_norm", counting)
    rng = np.random.default_rng(26)
    A = rng.standard_normal((6, 10))
    P = ProblemSpec(A=A, C=FullSpace(10), Q=Singleton(A @ rng.standard_normal(10)), gamma=0.5)
    # Building the problem makes no SVD.
    assert calls == []
    x0 = np.zeros(10)
    first = solve_fb(P, x0, FbOptions(max_iter=20))
    assert len(calls) == 1
    # Other solvers, and a second solve, on the same problem make none.
    for solve, opts in [(solve_cq, CqOptions(max_iter=20)), (solve_mf, MfOptions(max_iter=20)),
                        (solve_dca, None)]:
        solve(P, x0, opts)
    again = solve_fb(P, x0, FbOptions(max_iter=20))
    assert len(calls) == 1
    assert P.op_norm == float(np.linalg.norm(A, 2))
    # The cached norm gives the steps of the computed one.
    assert again.x.tobytes() == first.x.tobytes()


def test_dca_inner_step_bound_names_an_op_norm_whose_square_overflows():
    A = 1e200 * np.eye(2)
    P = ProblemSpec(A=A, C=FullSpace(2), Q=Singleton(A @ np.ones(2)), gamma=0.5)
    with pytest.raises(ValueError, match=r"\|\|A\|\|\^2 overflows"):
        solve_dca(P, np.ones(2), DcaOptions(inner_solver="dr-in-fb"))


def test_dca_exact_step_needs_no_op_norm_where_its_square_overflows():
    # dca's default solve on C = R^n with a point target takes no step from
    # ||A||, so the same problem ends converged at a finite point.
    A = 1e200 * np.eye(2)
    P = ProblemSpec(A=A, C=FullSpace(2), Q=Singleton(A @ np.ones(2)), gamma=0.5)
    r = solve_dca(P, np.ones(2))
    assert r.status is Status.CONVERGED
    assert np.isfinite(r.x).all() and np.isfinite(r.trace[-1].objective)


@pytest.mark.parametrize("solve", [solve_dca, solve_mf])
def test_l1_ball_projection_of_an_overflowing_point_ends_with_a_status(solve):
    # gamma = 1e299 sends points whose l1 norm overflows into the l1-ball
    # projection of the stationarity residual.
    A = 1e150 * np.eye(3)
    P = ProblemSpec(A=A, C=L1Ball(1.0, 3), Q=Singleton(A @ np.array([0.5, 0.0, 0.2])), gamma=1e299)
    r = solve(P, np.ones(3))
    assert r.status == Status.CONVERGED
    assert P.C.contains(r.x)
