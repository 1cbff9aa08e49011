"""Forward-backward splitting with the l1-l2 prox, for unconstrained domains.

Dividing the objective by gamma gives

    min_x  l(x) + r(x),   l(x) = (1/(2*gamma))*||Ax - P_Q(Ax)||^2,
                          r(x) = ||x||_1 - ||x||_2,

and the iteration alternates a gradient step on ``l`` with the closed-form
prox of ``r``:

    x_{k+1} = prox_{step*r}(x_k - step * grad l(x_k)).

The gradient of ``l`` is ``(||A||^2/gamma)``-Lipschitz, so the objective
values decrease whenever ``step < gamma/||A||^2``; the options enforce that
bound unless explicitly disabled for experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .prox import l1_l2, prox_l1_minus_l2
from .sets import FullSpace

__all__ = ["FbOptions", "solve_fb"]


@dataclass
class FbOptions:
    """Step size and stopping controls.

    ``step=None`` resolves to ``0.9 * gamma / ||A||^2`` per problem.  An
    explicit step is validated against the strict bound ``gamma/||A||^2``;
    set ``allow_unsafe_step=True`` to bypass the check (used as a negative
    control: oversized steps break monotone descent).
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


def solve_fb(P: ProblemSpec, x0, opts: FbOptions | None = None) -> SolveResult:
    """Iterate the prox-gradient map from ``x0``.

    Requires ``C`` to be the full space: the scheme has no projection step,
    and the prox of the regularizer plus a constraint indicator has no closed
    form here (a Douglas-Rachford composition would be needed; see
    :func:`sfpsolve.inner.solve_dr_in_fb` for that pattern).  Records the
    scaled objective ``l + r`` (the full objective divided by gamma).

    Each record computes ``A @ x`` once; its columns and the next step's
    gradient reuse it, so an iteration makes three products with ``A`` or
    ``A.T``.
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
    image = None  # A @ x of the last recorded iterate, the next step's start

    def step(k, x):
        grad = sfp_gradient(P.A, P.Q, x, _Ax=image) / P.gamma
        x_next = prox_l1_minus_l2(x - stepsize * grad, stepsize)
        return x_next, norm(x_next - x), None

    def monitor(k, x, move):
        nonlocal image
        image = P.A @ x
        return {
            "objective": sfp_residual_value(P, x, _Ax=image) / P.gamma + l1_l2(x),
            "grad_residual": stationarity_residual(P, x, _Ax=image),
            "sfp_residual": sfp_residual_value(P, x, _Ax=image),
        }

    return iterate(x, step, monitor, opts.max_iter, opts.step_tol)
