"""Solvers for the l1-regularized subproblem produced by each DCA step.

The subproblem is

    min_{x in C}  0.5*||Ax - P_Q(Ax)||^2 + <x, v> + gamma*||x||_1

with a constant linear term ``v``.  Two hybrid splitting schemes are
provided.  Both treat the sum of the smooth fidelity, the linear term and the
constraint with one operator and the l1 term with the other:

* ``solve_fb_in_dr`` runs Douglas-Rachford outer iterations whose backward
  step on the smooth-plus-constraint block is approximated by a short inner
  loop of forward-backward iterations.
* ``solve_dr_in_fb`` runs accelerated forward-backward outer iterations
  (FISTA with gradient restart, step ``1/||A||^2`` scaled by
  ``step_fraction``) whose prox of the constrained l1 term is exact on
  every set: a closed form on a ball, one Douglas-Rachford half point
  elsewhere.  :mod:`sfpsolve.dca` uses it by default wherever the exact
  solve does not apply.

Both converge to the same minimizer of the convex subproblem; they serve as
mutual cross-checks in the test suite.  With ``C = R^n`` or an l1 ball and a
ball target ``Q`` (a point included) :mod:`sfpsolve.face` solves it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linops import as_vector, check_count, check_positive, inflated_op_norm, norm, squared_op_norm
from .minefuku import direction_minimizer
from .problem import ProblemSpec, SolveResult, iterate, sfp_residual_value, start_point
from .prox import fista_momentum, soft_threshold
from .sets import Ball

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
            + float(self.v.dot(x))
            + self.base.gamma * float(np.abs(x).sum())
        )

    def smooth_gradient(self, x: np.ndarray) -> np.ndarray:
        # A'(Ax - P_Q(Ax)) + v, with the residual and the sum formed in place.
        r = self.base.A.dot(x)
        r -= self.base.Q.project(r)
        g = self.base.A.T.dot(r)
        g += self.v
        return g

    def _a_norm(self) -> float:
        # A bare dca_step or inner solve computes ||A|| itself instead of
        # reading base.op_norm, so each standalone solve costs exactly one SVD
        # whatever solved the same problem before it.
        return self._op_norm if self._op_norm is not None else inflated_op_norm(self.base.A)


@dataclass
class InnerOptions:
    """Parameters of the subproblem solvers.

    :func:`solve_fb_in_dr` reads all eight fields.  ``kappa`` is its
    Douglas-Rachford scale and defaults to the subproblem's l1 weight;
    ``tau`` is its DR relaxation in (0, 2) and ``lambda_relax`` the
    relaxation in (0, 1] of its inner forward-backward steps, whose number
    per outer step grows as ``min(budget_base + k, budget_cap)``.
    ``step_fraction`` is the fraction of the step bound actually used:
    ``2/(kappa*||A||^2)`` for :func:`solve_fb_in_dr`'s inner steps and
    ``1/||A||^2`` for :func:`solve_dr_in_fb`'s accelerated steps.
    :func:`solve_dr_in_fb` takes an exact prox on every set and reads only
    ``step_fraction``, ``outer_max`` and ``tol``.

    ``tol`` is measured on the iterate displacement divided by the solver's
    step scale (the gradient step for the forward-backward outer loop, the
    DR scale for the other), which makes it a first-order-error quantity:
    stopping at ``tol`` leaves a subproblem optimality residual of that
    order regardless of ``||A||``.  Each solve records only its last iterate.

    Only ``outer_max``, as its pivot cap, and ``tol``, as the slack of its
    column test ``|g_j| <= gamma + nu + tol`` (``nu`` the l1 ball's
    multiplier, 0 off a binding ball), reach the exact solve
    :func:`sfpsolve.face._solve_point_lasso`.
    """

    kappa: float | None = None
    tau: float = 1.0
    lambda_relax: float = 1.0
    step_fraction: float = 0.9
    budget_base: int = 5
    budget_cap: int = 50
    outer_max: int = 2000
    tol: float = 1e-6

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
        return x_in, move, None

    return _run_inner(spec, y_half, step, opts, message, lambda move: move / kappa, opts.tol * kappa)


def _run_inner(spec, x, step, opts, message, residual, step_tol=None) -> SolveResult:
    """Drive an inner solver for up to ``opts.outer_max`` steps, recording only the last iterate.

    The record's ``grad_residual`` is ``residual(move)``; with ``step_tol``
    the run converges once ``move <= step_tol``.
    """

    def monitor(k, x, move):
        return {
            "objective": spec.objective(x),
            "grad_residual": residual(move),
            "sfp_residual": sfp_residual_value(spec.base, x),
        }

    return iterate(x, step, monitor, opts.outer_max, step_tol, record_trace=False, message=message)


def _constrained_l1_prox_dr(anchor: np.ndarray, thresh: float, C) -> np.ndarray:
    """``argmin_{x in C} thresh*||x||_1 + 0.5*||x - anchor||^2`` on a set that is not an off-centre ball.

    Returns the half point of one Douglas-Rachford iteration,
    ``P_C(soft_threshold(anchor, thresh))`` up to rounding, which is the
    exact prox on the full space, the orthant, a box, an l1 ball and a ball
    centred at the origin or of radius 0 (Yu, "On decomposing the proximal
    map", 2013).  :func:`solve_dr_in_fb` calls it on every set but a ball.
    """
    # ROADMAP item 1 replaces this body with direction_minimizer: nothing
    # reads the second soft_threshold below (a FOUND line in CHANGES.md),
    # but perfbench pins its call in dca_step's count (2 * O).
    y = soft_threshold(anchor, thresh)
    y *= 2.0
    y -= anchor
    z = y + anchor
    z *= 0.5
    y_half = C.project(z)
    z = 2.0 * y_half
    z -= y
    soft_threshold(z, thresh)
    return y_half


def solve_dr_in_fb(
    spec: SubproblemSpec, x0, opts: InnerOptions | None = None
) -> SolveResult:
    """Accelerated forward-backward outer loop with an exact prox of the constrained l1 block.

    Each outer step is a prox-gradient step of size
    ``opts.step_fraction/||A||^2`` on the smooth fidelity-plus-linear block,
    taken at the extrapolated point ``y = x_k + beta_k*(x_k - x_{k-1})``
    of FISTA with gradient restart (see :func:`~sfpsolve.prox.fista_momentum`).
    The prox of the constrained l1 block is exact on every set: on a ball
    (a singleton too, any centre and radius) it is
    :func:`~sfpsolve.minefuku.direction_minimizer`'s closed form, on every
    other set the half point of one Douglas-Rachford iteration,
    ``P_C(soft_threshold(a, thresh))``.  The iterates ``x_k`` stay in
    ``C``; ``y`` need not.  Reads ``step_fraction``, ``outer_max`` and
    ``tol`` only.
    """
    if opts is None:
        opts = InnerOptions()
    P = spec.base
    gstep = opts.step_fraction / squared_op_norm(spec._a_norm())
    thresh = gstep * P.gamma
    on_ball = isinstance(P.C, Ball)

    x, message = start_point(P, x0)
    y, theta = x, 1.0

    def step(k, x):
        nonlocal y, theta
        # w = y - gstep*g in place, then the prox of the l1 block at w.
        w = spec.smooth_gradient(y)
        w *= gstep
        np.subtract(y, w, out=w)
        if on_ball:
            x_next = direction_minimizer(-w, thresh, 1.0, P.C)
        else:
            x_next = _constrained_l1_prox_dr(w, thresh, P.C)
        move = x_next - x
        theta, beta = fista_momentum(theta, (y - x_next).dot(move))
        y = x_next + beta * move if beta else x_next
        return x_next, norm(move), None

    return _run_inner(spec, x, step, opts, message, lambda move: move / gstep, opts.tol * gstep)


INNER_SOLVERS = {
    "fb-in-dr": solve_fb_in_dr,
    "dr-in-fb": solve_dr_in_fb,
}
