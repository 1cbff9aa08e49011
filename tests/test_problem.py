import re

import numpy as np
import pytest

from sfpsolve.baselines import CqOptions, solve_cq
from sfpsolve.dca import solve_dca
from sfpsolve.fbsplit import FbOptions, solve_fb
from sfpsolve.inner import SubproblemSpec
from sfpsolve.linops import read_vector
from sfpsolve.problem import (
    ProblemSpec,
    Status,
    gamma_objective,
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
