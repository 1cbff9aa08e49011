"""Solvers for the l1-regularized subproblem produced by each DCA step.

The subproblem is

    min_{x in C}  0.5*||Ax - P_Q(Ax)||^2 + <x, v> + gamma*||x||_1

with a constant linear term ``v``.  Two hybrid splitting schemes are
provided.  Both treat the sum of the smooth fidelity, the linear term and the
constraint with one operator and the l1 term with the other:

* ``solve_fb_in_dr`` runs Douglas-Rachford outer iterations whose backward
  step on the smooth-plus-constraint block is approximated by a short inner
  loop of forward-backward iterations.
* ``solve_dr_in_fb`` runs forward-backward outer iterations whose prox of the
  constrained l1 term is approximated by a short inner Douglas-Rachford loop.

Both converge to the same minimizer of the convex subproblem; they serve as
mutual cross-checks in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linops import as_vector, inflated_op_norm
from .problem import (
    ProblemSpec,
    SolveResult,
    Status,
    Stop,
    has_exact_residual,
    iterate,
    sfp_residual_value,
    start_point,
)
from .prox import soft_threshold

__all__ = [
    "SubproblemSpec",
    "InnerOptions",
    "solve_fb_in_dr",
    "solve_dr_in_fb",
    "INNER_SOLVERS",
]


@dataclass(frozen=True)
class SubproblemSpec:
    """The DCA subproblem data: a base problem plus the linear term ``v``."""

    base: ProblemSpec
    v: np.ndarray

    def __post_init__(self):
        v = as_vector(self.v, "v").copy()
        v.setflags(write=False)
        object.__setattr__(self, "v", v)
        if v.shape[0] != self.base.n:
            raise ValueError("v must match the column dimension of A")

    def objective(self, x, member_tol: float = 1e-9) -> float:
        """Subproblem objective, +inf outside ``C``."""
        if not self.base.C.contains(x, member_tol):
            return float("inf")
        return (
            sfp_residual_value(self.base, x)
            + float(self.v @ x)
            + self.base.gamma * float(np.sum(np.abs(x)))
        )

    def smooth_gradient(self, x: np.ndarray) -> np.ndarray:
        Ax = self.base.A @ x
        return self.base.A.T @ (Ax - self.base.Q.project(Ax)) + self.v


@dataclass
class InnerOptions:
    """Parameters shared by both subproblem solvers.

    ``kappa`` defaults to the subproblem's l1 weight; it acts as the
    Douglas-Rachford scale in :func:`solve_fb_in_dr` and as the weight of the
    constrained l1 block in :func:`solve_dr_in_fb` (with the default both
    solvers minimize the same objective).  ``tau`` is the DR relaxation in
    (0, 2), ``lambda_relax`` the forward-backward relaxation in (0, 1], and
    ``step_fraction`` the fraction of the admissible step-size upper bound
    actually used.  The inner budget per outer step grows as
    ``min(budget_base + k, budget_cap)``.

    ``tol`` is measured on the iterate displacement divided by the solver's
    step scale (the gradient step for the forward-backward outer loop, the
    DR scale for the other), which makes it a first-order-error quantity:
    stopping at ``tol`` leaves a subproblem optimality residual of that
    order regardless of ``||A||``.
    """

    kappa: float | None = None
    tau: float = 1.0
    lambda_relax: float = 1.0
    step_fraction: float = 0.9
    budget_base: int = 5
    budget_cap: int = 50
    outer_max: int = 2000
    tol: float = 1e-6
    record_trace: bool = True

    def __post_init__(self):
        if self.kappa is not None and self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if not 0.0 < self.tau < 2.0:
            raise ValueError("tau must lie in (0, 2)")
        if not 0.0 < self.lambda_relax <= 1.0:
            raise ValueError("lambda_relax must lie in (0, 1]")
        if not 0.0 < self.step_fraction < 1.0:
            raise ValueError("step_fraction must lie in (0, 1)")
        if self.budget_base < 1 or self.budget_cap < self.budget_base:
            raise ValueError("invalid inner budget ramp")
        if self.outer_max < 1:
            raise ValueError("outer_max must be at least 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")

    def budget(self, k: int) -> int:
        return min(self.budget_base + k, self.budget_cap)

    def resolve_kappa(self, spec: SubproblemSpec) -> float:
        return self.kappa if self.kappa is not None else spec.base.gamma


def solve_fb_in_dr(
    spec: SubproblemSpec, x0, opts: InnerOptions | None = None
) -> SolveResult:
    """Douglas-Rachford outer loop with forward-backward inner iterations.

    Each outer step approximates the backward step on the block
    ``0.5*||(I-P_Q)A.||^2 + <.,v> + i_C`` by ``N_k`` forward-backward
    iterations warm-started from the previous half point; the l1 block is a
    plain soft-threshold.  Terminates when the driver sequence's scaled
    displacement drops to ``opts.tol`` and returns the half point, which
    lies in ``C``.
    """
    if opts is None:
        opts = InnerOptions()
    P = spec.base
    kappa = opts.resolve_kappa(spec)
    # The smooth block handled in the inner loop has a kappa*||A||^2-Lipschitz
    # gradient; the quadratic coupling term is treated implicitly, so the
    # step bound is 2 / (kappa*||A||^2).
    norm_a = inflated_op_norm(P.A)
    step_cap = 2.0 / (kappa * norm_a**2) if norm_a > 0 else 1.0
    gstep = opts.step_fraction * step_cap
    lam = opts.lambda_relax
    thresh = kappa * P.gamma

    y_half, message = start_point(P, x0)
    y = y_half

    def step(k, y_half):
        nonlocal y
        x_in = y_half
        for _ in range(opts.budget(k - 1)):
            grad = kappa * spec.smooth_gradient(x_in)
            z = (x_in - gstep * (grad - y)) / (1.0 + gstep)
            x_in = x_in + lam * (P.C.project(z) - x_in)
        y_next = y + opts.tau * (soft_threshold(2.0 * x_in - y, thresh) - x_in)
        move = float(np.linalg.norm(y_next - y))
        y = y_next
        return x_in, move, Stop(Status.CONVERGED) if move / kappa <= opts.tol else None

    return _run_inner(spec, y_half, step, kappa, opts, message)


def _run_inner(spec, x, step, scale, opts, message) -> SolveResult:
    """Drive an inner solver; its residual column is the move divided by ``scale``."""

    def monitor(k, x, move):
        return {
            "objective": spec.objective(x),
            "grad_residual": move / scale,
            "sfp_residual": sfp_residual_value(spec.base, x),
        }

    return iterate(
        x,
        step,
        monitor,
        opts.outer_max,
        record_start=False,
        record_trace=opts.record_trace,
        message=message,
        residual_is_proxy=not has_exact_residual(spec.base.C),
    )


def _constrained_l1_prox_dr(
    anchor: np.ndarray,
    thresh: float,
    C,
    budget: int,
    tau: float,
    fixed_point_tol: float = 1e-12,
):
    """Approximate ``argmin_{x in C} thresh*||x||_1 + 0.5*||x - anchor||^2``.

    Runs at most ``budget`` Douglas-Rachford iterations, exiting early when
    the driver sequence reaches a fixed point (change below
    ``fixed_point_tol``).  Returns ``(half_point, iterations_used)``.
    """
    y = 2.0 * soft_threshold(anchor, thresh) - anchor
    y_half = anchor
    used = 0
    for i in range(max(budget, 1)):
        y_half = C.project(0.5 * (y + anchor))
        y_next = y + tau * (soft_threshold(2.0 * y_half - y, thresh) - y_half)
        used = i + 1
        if float(np.linalg.norm(y_next - y)) <= fixed_point_tol:
            y = y_next
            break
        y = y_next
    return y_half, used


def solve_dr_in_fb(
    spec: SubproblemSpec, x0, opts: InnerOptions | None = None
) -> SolveResult:
    """Forward-backward outer loop with Douglas-Rachford inner iterations.

    The outer loop takes gradient steps on the smooth fidelity-plus-linear
    block (step below ``2/||A||^2``); the prox of the constrained l1 block is
    approximated by up to ``M_k`` Douglas-Rachford iterations with an early
    exit at its fixed point.  Iterates stay in ``C``.
    """
    if opts is None:
        opts = InnerOptions()
    P = spec.base
    kappa = opts.resolve_kappa(spec)
    norm_a = inflated_op_norm(P.A)
    step_cap = 2.0 / norm_a**2 if norm_a > 0 else 1.0
    gstep = opts.step_fraction * step_cap
    lam = opts.lambda_relax
    # kappa is the weight of the constrained l1 block here; it defaults to the
    # subproblem's own l1 weight so both inner solvers target the same problem.
    thresh = gstep * kappa

    x, message = start_point(P, x0)

    def step(k, x):
        x_prime = x - gstep * spec.smooth_gradient(x)
        y_half, _ = _constrained_l1_prox_dr(x_prime, thresh, P.C, opts.budget(k - 1), opts.tau)
        x_next = x + lam * (y_half - x)
        move = float(np.linalg.norm(x_next - x))
        return x_next, move, Stop(Status.CONVERGED) if move / gstep <= opts.tol else None

    return _run_inner(spec, x, step, gstep, opts, message)


INNER_SOLVERS = {
    "fb-in-dr": solve_fb_in_dr,
    "dr-in-fb": solve_dr_in_fb,
}
