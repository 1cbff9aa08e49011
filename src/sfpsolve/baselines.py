"""Projection baselines: the CQ iteration and a modified CQ with level sets.

The CQ iteration solves the unregularized split feasibility problem by
projected gradient steps on ``0.5*||Ax - P_Q(Ax)||^2``:

    x_{k+1} = P_C(x_k - step * A'(Ax_k - P_Q(Ax_k))).

The modified variant replaces the l1-ball constraint ``||x||_1 <= t`` with a
subgradient half-space relaxation around the current iterate and combines it
with Armijo-style backtracking and an extragradient update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linops import inflated_op_norm, sfp_gradient
from .problem import (
    ProblemSpec,
    SolveResult,
    Status,
    Stop,
    iterate,
    sfp_residual_value,
    start_point,
)

__all__ = [
    "CqOptions",
    "McqOptions",
    "solve_cq",
    "select_subgradient",
    "project_level_set",
    "solve_mcq",
]


@dataclass
class CqOptions:
    """Fixed step size (default ``1/||A||^2``) and stopping controls."""

    step: float | None = None
    max_iter: int = 1000
    step_tol: float = 1e-5

    def __post_init__(self):
        if self.step is not None and self.step <= 0:
            raise ValueError("step must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.step_tol < 0:
            raise ValueError("step_tol must be nonnegative")

    def resolve_step(self, P: ProblemSpec) -> float:
        if self.step is not None:
            return self.step
        norm_a = inflated_op_norm(P.A)
        return 1.0 / norm_a**2 if norm_a > 0 else 1.0


def solve_cq(P: ProblemSpec, x0, opts: CqOptions | None = None) -> SolveResult:
    """Projected-gradient iteration for the unregularized problem.

    The trace objective is the feasibility residual itself; the recorded
    residual column is the norm of the projected-gradient mapping
    ``||x_k - x_{k+1}|| / step``.  ``gamma`` in ``P`` is ignored.
    """
    if opts is None:
        opts = CqOptions()
    stepsize = opts.resolve_step(P)
    x, _ = start_point(P, x0, project=False)

    def step(k, x):
        x_next = P.C.project(x - stepsize * sfp_gradient(P.A, P.Q, x))
        return x_next, float(np.linalg.norm(x_next - x)), None

    def monitor(k, x, move):
        return _residual_columns(P, k, x, move, stepsize)

    return iterate(x, step, monitor, opts.max_iter, opts.step_tol, residual_is_proxy=True)


def _residual_columns(P: ProblemSpec, k: int, x: np.ndarray, move: float, scale: float) -> dict:
    """Trace columns of the projection baselines at iteration ``k``.

    The objective is the feasibility residual; the stationarity column is the
    gradient norm at the start and ``move / scale`` after each step.
    """
    res = sfp_residual_value(P, x)
    grad_residual = move / scale if k else float(np.linalg.norm(sfp_gradient(P.A, P.Q, x)))
    return {"objective": res, "grad_residual": grad_residual, "sfp_residual": res}


def select_subgradient(x) -> np.ndarray:
    """Subgradient of the l1 norm: componentwise sign, zero at zero entries."""
    return np.sign(np.asarray(x, dtype=float))


def project_level_set(x_k, t: float, y) -> np.ndarray:
    """Project ``y`` onto the half-space relaxation of ``||x||_1 <= t`` at ``x_k``.

    The relaxation is ``{x : c(x_k) + <xi, x - x_k> <= 0}`` with
    ``c(x) = ||x||_1 - t`` and ``xi`` the sign subgradient at ``x_k``.  It
    contains the l1 ball itself, so projecting onto it never cuts off
    feasible points.  Raises ValueError for the degenerate empty relaxation
    (only possible when ``x_k = 0`` and ``t < 0``).
    """
    x_k = np.asarray(x_k, dtype=float)
    y = np.asarray(y, dtype=float)
    xi = select_subgradient(x_k)
    violation = float(np.sum(np.abs(x_k)) - t + xi @ (y - x_k))
    if violation <= 0.0:
        return y.copy()
    xi_sq = float(xi @ xi)
    if xi_sq == 0.0:
        raise ValueError("empty half-space relaxation: zero subgradient with c(x_k) > 0")
    return y - (violation / xi_sq) * xi


@dataclass
class McqOptions:
    """Backtracking and level-set parameters.

    ``l`` is the backtracking ratio, ``mu`` the Armijo-type constant (both in
    (0, 1)), ``sigma`` the initial step scale and ``t`` the l1-ball level
    defining ``c(x) = ||x||_1 - t``.
    """

    t: float
    l: float = 0.5
    mu: float = 0.5
    sigma: float = 1.0
    max_iter: int = 1000
    step_tol: float = 1e-5
    backtrack_cap: int = 60

    def __post_init__(self):
        if not 0.0 < self.l < 1.0:
            raise ValueError("l must lie in (0, 1)")
        if not 0.0 < self.mu < 1.0:
            raise ValueError("mu must lie in (0, 1)")
        if self.sigma <= 0 or self.t <= 0:
            raise ValueError("sigma and t must be positive")
        if self.max_iter < 1 or self.backtrack_cap < 1:
            raise ValueError("iteration limits must be positive")
        if self.step_tol < 0:
            raise ValueError("step_tol must be nonnegative")


def solve_mcq(P: ProblemSpec, x0, opts: McqOptions) -> SolveResult:
    """Modified CQ iteration with half-space projections and backtracking.

    Per iteration the step ``alpha = sigma * l**m`` shrinks from ``m = 0``
    until the gradient-variation condition

        ||g(x_k) - g(x_bar)|| <= mu * ||x_k - x_bar|| / alpha

    holds for the trial point ``x_bar = P_{halfspace}(x_k - alpha*g(x_k))``;
    the update then re-projects using the gradient at ``x_bar``.  Both
    projections use the half-space cut taken at ``x_k``.  ``P.C`` is unused:
    the constraint is the l1 level ``opts.t``.
    """
    x, _ = start_point(P, x0, project=False)
    alpha = opts.sigma  # the accepted step scale, read by the monitor

    def step(k, x):
        nonlocal alpha
        g = sfp_gradient(P.A, P.Q, x)
        alpha = opts.sigma
        for _ in range(opts.backtrack_cap + 1):
            x_bar = project_level_set(x, opts.t, x - alpha * g)
            g_bar = sfp_gradient(P.A, P.Q, x_bar)
            gap = float(np.linalg.norm(g - g_bar))
            if gap <= opts.mu * float(np.linalg.norm(x - x_bar)) / alpha:
                break
            alpha *= opts.l
        else:
            message = f"backtracking cap {opts.backtrack_cap} reached at iteration {k}"
            return None, 0.0, Stop(Status.MAX_ITERATIONS, message)
        x_next = project_level_set(x, opts.t, x - alpha * g_bar)
        return x_next, float(np.linalg.norm(x_next - x)), None

    def monitor(k, x, move):
        return {**_residual_columns(P, k, x, move, alpha), "l1_norm": float(np.sum(np.abs(x)))}

    return iterate(x, step, monitor, opts.max_iter, opts.step_tol, residual_is_proxy=True)
