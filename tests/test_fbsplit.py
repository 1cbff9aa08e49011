import math

import numpy as np
import pytest

from sfpsolve.fbsplit import FbOptions, solve_fb
from sfpsolve.harness import SparseSpec, gen_sparse_recovery
from sfpsolve.linops import inflated_op_norm, sfp_gradient
from sfpsolve.oracles import grid_minimize
from sfpsolve.problem import ConfigurationError, ProblemSpec, Status, sfp_residual_value
from sfpsolve.prox import fista_momentum, l1_l2, prox_l1_minus_l2
from sfpsolve.sets import Ball, Box, FullSpace, NonnegativeOrthant, Singleton


def test_origin_is_fixed_point_inside_target_ball():
    P = ProblemSpec(A=np.eye(2), C=FullSpace(2), Q=Ball(np.zeros(2), 1.0), gamma=0.5)
    r = solve_fb(P, np.zeros(2), FbOptions())
    assert r.status == Status.CONVERGED
    assert np.array_equal(r.x, np.zeros(2))
    assert r.iterations == 1


def test_step_bound_enforced():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 6))
    P = ProblemSpec(A=A, C=FullSpace(6), Q=Singleton(rng.standard_normal(4)), gamma=0.6)
    bound = P.gamma / inflated_op_norm(P.A) ** 2
    with pytest.raises(ValueError, match="descent bound"):
        solve_fb(P, np.zeros(6), FbOptions(step=1.1 * bound))
    # the debug escape hatch admits the same step
    r = solve_fb(P, np.zeros(6), FbOptions(step=1.1 * bound, allow_unsafe_step=True, max_iter=5))
    assert len(r.trace) == 6


def test_step_bound_uses_the_exact_norm():
    # ||A|| = 1 exactly, so gamma/||A||^2 = 1 and this step is just above it.
    P = ProblemSpec(A=np.diag([0.999, 1.0]), C=FullSpace(2), Q=Singleton(np.ones(2)), gamma=1.0)
    with pytest.raises(ValueError, match="descent bound"):
        FbOptions(step=1.0003).resolve_step(P)


def test_constrained_domain_rejected():
    P = ProblemSpec(A=np.eye(2), C=NonnegativeOrthant(2), Q=Singleton(np.ones(2)), gamma=0.5)
    with pytest.raises(ConfigurationError, match="Douglas-Rachford"):
        solve_fb(P, np.zeros(2), FbOptions())


def test_two_dimensional_limit_matches_grid():
    # Unit design keeps the smooth term quadratic; the limit point minimizes
    # the scaled objective, cross-checked on a dense grid.
    b = np.array([1.2, 0.4])
    gamma = 2.0
    P = ProblemSpec(A=np.eye(2), C=FullSpace(2), Q=Singleton(b), gamma=gamma)
    r = solve_fb(P, np.zeros(2), FbOptions(step_tol=1e-9, max_iter=20000))

    def scaled_objective_batch(V):
        fit = 0.5 / gamma * np.sum((V - b[:, None]) ** 2, axis=0)
        reg = np.sum(np.abs(V), axis=0) - np.sqrt(np.sum(V * V, axis=0))
        return fit + reg

    _, grid_val = grid_minimize(
        scaled_objective_batch, FullSpace(2), [-2.0, -2.0], [2.0, 2.0], 1e-3
    )
    final = r.trace[-1].objective
    assert final <= grid_val + 1e-3


def test_objective_descent_with_safe_step():
    spec = SparseSpec(seed=3, m=40, n=100, sparsity=8, noise_variance=1e-4, gamma=0.6)
    for trial in range(3):
        inst = gen_sparse_recovery(spec, trial)
        r = solve_fb(inst.problem, inst.x0, FbOptions())
        assert np.all(np.diff(r.objectives()) <= 1e-10)


def test_oversized_step_breaks_descent_somewhere():
    # Negative control: past the admissible bound monotonicity is no longer
    # guaranteed, and small instances exhibit actual increases.
    violations = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        m, n = rng.integers(2, 5), rng.integers(2, 5)
        A = rng.standard_normal((m, n)) * rng.uniform(0.5, 3)
        P = ProblemSpec(
            A=A, C=FullSpace(n), Q=Singleton(rng.standard_normal(m) * rng.uniform(0.5, 3)),
            gamma=rng.uniform(0.2, 2.0),
        )
        bound = P.gamma / inflated_op_norm(P.A) ** 2
        r = solve_fb(P, rng.standard_normal(n), FbOptions(step=1.5 * bound, allow_unsafe_step=True, max_iter=200))
        if np.any(np.diff(r.objectives()) > 1e-10):
            violations += 1
    assert violations > 0


def test_desk_instance_converges_fast_with_monotone_objective():
    # Trial 0 of the sparse-fullspace benchmark workload: 729 iterations
    # without momentum.
    spec = SparseSpec(seed=0, m=100, n=256, sparsity=10, noise_variance=1e-4, gamma=0.6)
    inst = gen_sparse_recovery(spec, 0)
    r = solve_fb(inst.problem, inst.x0, FbOptions())
    assert r.status == Status.CONVERGED
    assert r.iterations <= 250
    assert np.all(np.diff(r.objectives()) <= 1e-10)


def test_safeguard_steps_from_x_k_where_the_extrapolated_point_is_worse():
    # Runs are deterministic, so a rerun capped at k iterations ends at x_k.
    spec = SparseSpec(seed=5, m=30, n=64, sparsity=5, noise_variance=1e-4, gamma=0.6)
    inst = gen_sparse_recovery(spec, 0)
    P = inst.problem
    opts = FbOptions()
    full = solve_fb(P, inst.x0, opts)
    K = full.iterations
    xs = [inst.x0] + [solve_fb(P, inst.x0, FbOptions(max_iter=k)).x for k in range(1, K + 1)]
    step = opts.resolve_step(P)

    def prox_step(z):
        return prox_l1_minus_l2(z - step * sfp_gradient(P.A, P.Q, z) / P.gamma, step)

    theta, beta, refusals = 1.0, 0.0, 0
    for k in range(K):
        x, y = xs[k], xs[k]
        if beta:
            y_try = x + beta * (x - xs[k - 1])
            if sfp_residual_value(P, y_try) / P.gamma + l1_l2(y_try) <= full.trace[k].objective:
                y = y_try
            elif np.linalg.norm(prox_step(y_try) - xs[k + 1]) > 1e-6:
                refusals += 1  # the step from y_try would have landed elsewhere
        np.testing.assert_allclose(xs[k + 1], prox_step(y), rtol=0, atol=1e-9)
        theta, beta = fista_momentum(theta, (y - xs[k + 1]).dot(xs[k + 1] - x))
    assert refusals > 0


def test_box_target_tests_extrapolation_by_projection(monkeypatch):
    spec = SparseSpec(seed=5, m=30, n=64, sparsity=5, noise_variance=1e-4, gamma=0.6)
    inst = gen_sparse_recovery(spec, 0)
    b = inst.problem.Q.point
    P = ProblemSpec(A=inst.problem.A, C=FullSpace(64), Q=Box(b - 0.01, b + 0.01), gamma=0.6)
    calls = []
    project = Box.project
    monkeypatch.setattr(Box, "project", lambda self, x: calls.append(1) or project(self, x))
    opts = FbOptions(step_tol=1e-7, max_iter=20000)
    r = solve_fb(P, inst.x0, opts)
    assert r.status == Status.CONVERGED
    assert np.all(np.diff(r.objectives()) <= 1e-10)
    # Each record projects three times (two residual values and the
    # stationarity gradient) and each step once (its gradient); the rest are
    # objective tests at extrapolated points.
    assert len(calls) > 3 * (r.iterations + 1) + r.iterations
    step = opts.resolve_step(P)
    mapped = prox_l1_minus_l2(r.x - step * sfp_gradient(P.A, P.Q, r.x) / P.gamma, step)
    assert np.linalg.norm(r.x - mapped) <= 10 * opts.step_tol


def test_termination_point_is_fixed_point():
    spec = SparseSpec(seed=5, m=30, n=64, sparsity=5, noise_variance=0.0, gamma=0.6)
    inst = gen_sparse_recovery(spec, 0)
    P = inst.problem
    opts = FbOptions(step_tol=1e-7, max_iter=20000)
    r = solve_fb(P, inst.x0, opts)
    assert r.status == Status.CONVERGED
    step = opts.resolve_step(P)
    mapped = prox_l1_minus_l2(r.x - step * sfp_gradient(P.A, P.Q, r.x) / P.gamma, step)
    assert np.linalg.norm(r.x - mapped) <= 10 * opts.step_tol


def test_recorded_objective_is_scaled():
    b = np.array([1.0, -1.0])
    P = ProblemSpec(A=np.eye(2), C=FullSpace(2), Q=Singleton(b), gamma=0.5)
    r = solve_fb(P, np.zeros(2), FbOptions(max_iter=3, step_tol=1e-16))
    x0 = np.zeros(2)
    expected = 0.5 / P.gamma * np.sum((x0 - b) ** 2) + l1_l2(x0)
    assert r.trace[0].objective == pytest.approx(expected, abs=1e-12)


def test_prox_step_consistency_along_iterates():
    # Spot-check a few updates: the prox output must match the grid oracle's
    # objective for its own input, i.e. each backward step really minimizes
    # the prox objective.
    from sfpsolve.oracles import prox_l1_l2_grid_min
    from sfpsolve.prox import prox_l1_l2_objective

    b = np.array([1.1, -0.6])
    P = ProblemSpec(A=np.eye(2), C=FullSpace(2), Q=Singleton(b), gamma=0.8)
    step = FbOptions().resolve_step(P)
    x = np.array([0.2, 0.2])
    for _ in range(5):
        u = x - step * sfp_gradient(P.A, P.Q, x) / P.gamma
        v = prox_l1_minus_l2(u, step)
        obj = prox_l1_l2_objective(u, step, v)
        assert obj <= prox_l1_l2_grid_min(u, step, step=1e-3) + 5e-3
        x = v


def test_options_validation():
    with pytest.raises(ValueError):
        FbOptions(step=-1.0)
    with pytest.raises(ValueError):
        FbOptions(max_iter=0)
    with pytest.raises(ValueError):
        FbOptions(step_tol=0.0)


@pytest.mark.parametrize("field", ["step", "step_tol"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_options_reject_nan_and_inf(field, value):
    with pytest.raises(ValueError, match=field):
        FbOptions(**{field: value})
