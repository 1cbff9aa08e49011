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
  constrained l1 term is computed by a short inner Douglas-Rachford loop,
  exact after one iteration on every set but an off-centre ball.

Both converge to the same minimizer of the convex subproblem; they serve as
mutual cross-checks in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linops import as_vector, check_count, check_positive, inflated_op_norm, norm, squared_op_norm
from .problem import (
    ProblemSpec,
    SolveResult,
    Status,
    Stop,
    iterate,
    sfp_residual_value,
    start_point,
)
from .prox import soft_threshold
from .sets import projected_shrink_is_prox

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
    # ||A|| of base, set by solve_dca from ``base.op_norm``; None lets each
    # inner solve compute it itself.
    _op_norm: float | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        v = as_vector(self.v, "v").copy()
        v.setflags(write=False)
        object.__setattr__(self, "v", v)
        if v.shape[0] != self.base.n:
            raise ValueError("v must match the column dimension of A")

    def objective(self, x) -> float:
        """Subproblem objective, +inf outside ``C``."""
        if not self.base.C.contains(x):
            return float("inf")
        return (
            sfp_residual_value(self.base, x)
            + float(self.v @ x)
            + self.base.gamma * float(np.abs(x).sum())
        )

    def smooth_gradient(self, x: np.ndarray) -> np.ndarray:
        # A'(Ax - P_Q(Ax)) + v, with the residual and the sum formed in place.
        r = self.base.A @ x
        r -= self.base.Q.project(r)
        g = self.base.A.T @ r
        g += self.v
        return g

    def _a_norm(self) -> float:
        # A bare dca_step or inner solve computes ||A|| itself instead of
        # reading base.op_norm, so each standalone solve costs exactly one SVD
        # whatever solved the same problem before it.
        return self._op_norm if self._op_norm is not None else inflated_op_norm(self.base.A)


@dataclass
class InnerOptions:
    """Parameters shared by both subproblem solvers.

    ``kappa`` is the Douglas-Rachford scale of :func:`solve_fb_in_dr` and
    defaults to the subproblem's l1 weight.  ``tau`` is the DR relaxation in
    (0, 2), ``lambda_relax`` the forward-backward relaxation in (0, 1], and
    ``step_fraction`` the fraction of the admissible step-size upper bound
    actually used.  The inner budget per outer step grows as
    ``min(budget_base + k, budget_cap)``.  :func:`solve_dr_in_fb` ignores
    ``kappa``; its prox is exact after one DR iteration unless ``C`` is a
    ball of positive radius with a nonzero centre, so ``tau`` and the budget
    ramp matter there only on such a ball.

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
        if self.kappa is not None:
            check_positive(self.kappa, "kappa")
        if not 0.0 < self.tau < 2.0:
            raise ValueError("tau must lie in (0, 2)")
        if not 0.0 < self.lambda_relax <= 1.0:
            raise ValueError("lambda_relax must lie in (0, 1]")
        if not 0.0 < self.step_fraction < 1.0:
            raise ValueError("step_fraction must lie in (0, 1)")
        check_count(self.budget_base, "budget_base")
        check_count(self.budget_cap, "budget_cap", self.budget_base)
        check_count(self.outer_max, "outer_max")
        check_positive(self.tol, "tol")

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
    step_cap = 2.0 / (kappa * squared_op_norm(spec._a_norm()))
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
        move = norm(y_next - y)
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
    y = soft_threshold(anchor, thresh)
    y *= 2.0
    y -= anchor
    y_half = anchor
    used = 0
    for i in range(max(budget, 1)):
        # y_next = y + tau*(soft_threshold(2*y_half - y) - y_half), with
        # y_half = P_C((y + anchor)/2); tau = 1 skips an exact product.
        z = y + anchor
        z *= 0.5
        y_half = C.project(z)
        z = 2.0 * y_half
        z -= y
        delta = soft_threshold(z, thresh)
        delta -= y_half
        if tau != 1.0:
            delta *= tau
        y_next = y + delta
        np.subtract(y_next, y, out=delta)
        used = i + 1
        y = y_next
        if norm(delta) <= fixed_point_tol:
            break
    return y_half, used


def solve_dr_in_fb(
    spec: SubproblemSpec, x0, opts: InnerOptions | None = None
) -> SolveResult:
    """Forward-backward outer loop with Douglas-Rachford inner iterations.

    The outer loop takes gradient steps on the smooth fidelity-plus-linear
    block (step below ``2/||A||^2``); the prox of the constrained l1 block is
    approximated by up to ``M_k`` Douglas-Rachford iterations with an early
    exit at its fixed point.  The first DR half point is
    ``P_C(soft_threshold(a, thresh))``, which is the exact prox unless ``C``
    is a ball of positive radius with a nonzero centre (see
    :func:`~sfpsolve.sets.projected_shrink_is_prox`); on every other set
    ``M_k = 1``.  Iterates stay in ``C``.
    """
    if opts is None:
        opts = InnerOptions()
    P = spec.base
    gstep = opts.step_fraction * (2.0 / squared_op_norm(spec._a_norm()))
    lam = opts.lambda_relax
    thresh = gstep * P.gamma
    exact = projected_shrink_is_prox(P.C)

    x, message = start_point(P, x0)

    def step(k, x):
        # x' = x - gstep*g and x_next = x + lam*(y_half - x) in place (the DR
        # half point is its own array; lam = 1 skips an exact product).
        x_prime = spec.smooth_gradient(x)
        x_prime *= gstep
        np.subtract(x, x_prime, out=x_prime)
        budget = 1 if exact else opts.budget(k - 1)
        x_next, _ = _constrained_l1_prox_dr(x_prime, thresh, P.C, budget, opts.tau)
        x_next -= x
        if lam != 1.0:
            x_next *= lam
        x_next += x
        move = norm(x_next - x)
        return x_next, move, Stop(Status.CONVERGED) if move / gstep <= opts.tol else None

    return _run_inner(spec, x, step, gstep, opts, message)


INNER_SOLVERS = {
    "fb-in-dr": solve_fb_in_dr,
    "dr-in-fb": solve_dr_in_fb,
}
