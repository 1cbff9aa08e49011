"""Forward-backward splitting with the l1-l2 prox, for unconstrained domains.

Dividing the objective by gamma gives

    min_x  l(x) + r(x),   l(x) = (1/(2*gamma))*||Ax - P_Q(Ax)||^2,
                          r(x) = ||x||_1 - ||x||_2,

and the iteration alternates a gradient step on ``l`` with the closed-form
prox of ``r``, taken at FISTA's extrapolated point ``y_k`` (Beck &
Teboulle, SIAM J. Imaging Sci. 2, 2009) behind the monotone safeguard of Li
& Lin (NIPS 2015):

    y_k     = x_k + beta_k*(x_k - x_{k-1})  if (l + r)(y_k) <= (l + r)(x_k),
              x_k                           otherwise,
    x_{k+1} = prox_{step*r}(y_k - step * grad l(y_k)).

The gradient of ``l`` is ``(||A||^2/gamma)``-Lipschitz, and the prox of
``r`` is exact, so for ``step < gamma/||A||^2`` the descent lemma gives
``(l + r)(x_{k+1}) <= (l + r)(y_k) <= (l + r)(x_k)``: the objective values
decrease whatever the momentum does.  The options enforce that bound unless
explicitly disabled for experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linops import check_count, check_positive, norm, sfp_gradient, squared_op_norm
from .problem import (
    ConfigurationError,
    ProblemSpec,
    SolveResult,
    iterate,
    sfp_residual_value,
    start_point,
    stationarity_residual,
)
from .prox import fista_momentum, l1_l2, prox_l1_minus_l2
from .sets import Ball, FullSpace

__all__ = ["FbOptions", "solve_fb"]


@dataclass
class FbOptions:
    """Step size and stopping controls.

    ``step=None`` resolves to ``0.9 * gamma / ||A||^2`` per problem.  An
    explicit step is validated against the strict bound ``gamma/||A||^2``;
    set ``allow_unsafe_step=True`` to bypass the check (used as a negative
    control: oversized steps break monotone descent, since the safeguard
    only keeps the extrapolated point no worse than ``x_k``).  The run
    stops as ``CONVERGED`` once ``||x_{k+1} - x_k|| <= step_tol``.
    """

    step: float | None = None
    max_iter: int = 1000
    step_tol: float = 1e-5
    allow_unsafe_step: bool = False

    def __post_init__(self):
        if self.step is not None:
            check_positive(self.step, "step")
        check_count(self.max_iter, "max_iter")
        check_positive(self.step_tol, "step_tol")

    def resolve_step(self, P: ProblemSpec) -> float:
        bound = P.gamma / squared_op_norm(P.op_norm)
        if self.step is None:
            return 0.9 * bound
        if self.step >= bound and not self.allow_unsafe_step:
            raise ValueError(
                f"step {self.step:g} violates the descent bound gamma/||A||^2 "
                f"= {bound:g}; use allow_unsafe_step=True to experiment anyway"
            )
        return self.step


def _scaled_objective(P: ProblemSpec, x: np.ndarray, Ax: np.ndarray) -> float:
    """The recorded objective ``l(x) + r(x)`` at ``x``, given ``Ax = A @ x``.

    O(m + n) work and no call to the traced evaluations: a ball ``Q`` (a
    singleton too) gives the distance from ``Ax`` in closed form, as
    :func:`sfpsolve.minefuku._segment_objective` does; any other ``Q`` is
    projected onto once.
    """
    Q = P.Q
    if isinstance(Q, Ball):
        dist = max(norm(Ax - Q.center) - Q.radius, 0.0)
        residual = 0.5 * dist * dist
    else:
        r = Ax - Q.project(Ax)
        residual = 0.5 * float(r.dot(r))
    return residual / P.gamma + l1_l2(x)


def solve_fb(P: ProblemSpec, x0, opts: FbOptions | None = None) -> SolveResult:
    """Iterate the prox-gradient map from ``x0``, with safeguarded FISTA momentum.

    Requires ``C`` to be the full space: the scheme has no projection step,
    and the prox of the regularizer plus a constraint indicator has no closed
    form here (a Douglas-Rachford composition would be needed; see
    :func:`sfpsolve.inner.solve_dr_in_fb` for that pattern).  Records the
    scaled objective ``l + r`` (the full objective divided by gamma).

    Each step is taken at FISTA's extrapolated point ``y``, with gradient
    restart (:func:`~sfpsolve.prox.fista_momentum`), when the scaled
    objective at ``y`` is at most the recorded objective of ``x_k``, and
    from ``x_k`` otherwise; the module docstring gives the descent argument.
    A refused ``y`` does not restart ``theta``: the step from ``x_k`` makes
    the restart test's turn ``-||x_{k+1} - x_k||^2 <= 0``.

    Each record computes ``A @ x`` once.  ``A @ y`` is formed from the last
    two records' images, and the test at ``y`` is O(m + n) with no product
    (:func:`_scaled_objective`).  So an iteration makes three products with
    ``A`` or ``A.T`` (the record's ``A @ x``, its stationarity gradient and
    the step's gradient) and one call each of ``sfp_gradient``,
    ``prox_l1_minus_l2`` and ``soft_threshold``.
    """
    if opts is None:
        opts = FbOptions()
    if not isinstance(P.C, FullSpace):
        raise ConfigurationError(
            "forward-backward splitting is implemented for C = R^n only; "
            f"got C = {P.C!r}.  For constrained problems compose the prox with "
            "Douglas-Rachford iterations (see sfpsolve.inner) or use solve_dca."
        )
    stepsize = opts.resolve_step(P)
    x, _ = start_point(P, x0, project=False)
    # A @ x_k and A @ x_{k-1} for the last two recorded iterates, and the
    # recorded objective of x_k; the safeguard compares against the latter.
    image = image_prev = None
    recorded = math.inf
    last_move = None  # x_k - x_{k-1}
    theta, beta = 1.0, 0.0

    def step(k, x):
        nonlocal last_move, theta, beta
        y, Ay = x, image
        if beta:
            y_try = x + beta * last_move
            Ay_try = image + beta * (image - image_prev)
            if _scaled_objective(P, y_try, Ay_try) <= recorded:
                y, Ay = y_try, Ay_try
        grad = sfp_gradient(P.A, P.Q, y, _Ax=Ay) / P.gamma
        x_next = prox_l1_minus_l2(y - stepsize * grad, stepsize)
        last_move = x_next - x
        theta, beta = fista_momentum(theta, (y - x_next).dot(last_move))
        return x_next, norm(last_move), None

    def monitor(k, x, move):
        nonlocal image, image_prev, recorded
        image_prev, image = image, P.A.dot(x)
        recorded = sfp_residual_value(P, x, _Ax=image) / P.gamma + l1_l2(x)
        return {
            "objective": recorded,
            "grad_residual": stationarity_residual(P, x, _Ax=image),
            "sfp_residual": sfp_residual_value(P, x, _Ax=image),
        }

    return iterate(x, step, monitor, opts.max_iter, opts.step_tol)
