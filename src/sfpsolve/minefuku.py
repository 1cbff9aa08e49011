"""Direction-plus-line-search method for the l1-l2 regularized problem.

Splits the objective into a differentiable part

    f(x) = 0.5*||Ax - P_Q(Ax)||^2 - gamma*||x||_2 - mu*||x||^2/2

and a convex part ``g(x) = gamma*||x||_1 + i_C(x) + mu*||x||^2/2``, where the
quadratic shift ``mu > 0`` makes the direction subproblem strongly convex on
every supported constraint set.  Each iteration minimizes the linearization

    min_{x in C}  <x, w_k> + gamma*||x||_1 + mu*||x||^2/2,
    w_k = A'(Ax_k - P_Q(Ax_k)) - gamma*x_k/||x_k||_2 - mu*x_k,

then line-searches the segment from ``x_k`` towards the minimizer.  The
search compares the candidate against the endpoints explicitly, so the
objective never increases beyond round-off (the search evaluates it from
cached images under ``A``, see :func:`mf_line_search`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .linops import inflated_op_norm
from .problem import (
    ConfigurationError,
    ProblemSpec,
    SolveResult,
    Status,
    Stop,
    _smooth_gradient,
    columns_and_gradient,
    has_exact_residual,
    iterate,
    start_point,
)
from .prox import soft_threshold
from .sets import Ball, Box, FullSpace, L1Ball, Singleton

__all__ = [
    "MfOptions",
    "direction_minimizer",
    "mf_direction",
    "mf_line_search",
    "solve_mf",
]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class MfOptions:
    """Controls for the direction subproblem and the line search.

    ``mu_shift=None`` resolves to ``0.1 * ||A||^2``, which makes the direction
    point a well-scaled shrinkage step (much smaller shifts produce distant
    direction points, vanishing line-search steps and no termination within
    realistic budgets).  ``mu_shift=0`` is only valid for bounded constraint
    sets (ball, box, l1 ball), where the un-shifted direction subproblem
    still has minimizers.

    ``stationarity_tol=None`` resolves to ``step_tol * max(1, mu)``: the
    residual left by a step-norm stop scales with ``mu``, so the certificate
    threshold follows the same scale.
    """

    mu_shift: float | None = None
    lambda_max: float = 2.0
    golden_evals: int = 40
    max_iter: int = 1000
    step_tol: float = 1e-5
    stationarity_tol: float | None = None

    def __post_init__(self):
        if self.mu_shift is not None and self.mu_shift < 0:
            raise ValueError("mu_shift must be nonnegative")
        if self.lambda_max <= 0:
            raise ValueError("lambda_max must be positive")
        if self.golden_evals < 4:
            raise ValueError("golden_evals must be at least 4")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.step_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.stationarity_tol is not None and self.stationarity_tol <= 0:
            raise ValueError("tolerances must be positive")

    def resolve_mu(self, P: ProblemSpec) -> float:
        if self.mu_shift is not None:
            return self.mu_shift
        return 0.1 * inflated_op_norm(P.A) ** 2

    def resolve_stationarity_tol(self, P: ProblemSpec) -> float:
        if self.stationarity_tol is not None:
            return self.stationarity_tol
        return self.step_tol * max(1.0, self.resolve_mu(P))


def _direction_dr(w, gamma, mu, C, tol=1e-10, max_iter=5000):
    """Solve ``min_{x in C} <w, x> + gamma*||x||_1 + mu*||x||^2/2`` iteratively.

    Douglas-Rachford between the constraint (projection) and the remaining
    term, whose prox is a closed-form shrink:
    ``prox(z) = soft_threshold(z - s*w, s*gamma) / (1 + s*mu)``.  Only the
    sets without a closed form reach it: a ball with a nonzero centre, and
    ``mu = 0`` on a ball or l1 ball.
    """
    scale = 1.0
    y = np.zeros_like(w)
    for _ in range(max_iter):
        x = C.project(y)
        u = soft_threshold(2.0 * x - y - scale * w, scale * gamma) / (1.0 + scale * mu)
        y_next = y + u - x
        if float(np.linalg.norm(y_next - y)) <= tol * (1.0 + float(np.linalg.norm(y))):
            y = y_next
            break
        y = y_next
    return C.project(y)


def direction_minimizer(w, gamma: float, mu: float, C) -> np.ndarray:
    """Minimize ``<w, x> + gamma*||x||_1 + mu*||x||^2/2`` over ``C``.

    With ``mu > 0`` the minimizer is the prox of ``(gamma/mu)*||.||_1 + i_C``
    at ``-w/mu``, which is ``P_C(soft_threshold(-w/mu, gamma/mu))`` on the
    full space, orthant, box, l1 ball and a ball centred at the origin (Yu,
    "On decomposing the proximal map", 2013); singletons are trivial, and
    only a ball with a nonzero centre takes the splitting iteration.
    ``mu = 0`` requires a bounded set, since otherwise the subproblem is
    unbounded below whenever ``||w||_inf > gamma``.
    """
    w = np.asarray(w, dtype=float)
    if isinstance(C, Singleton):
        return C.point.copy()
    if mu > 0.0 and not (isinstance(C, Ball) and np.any(C.center)):
        return C.project(soft_threshold(-w / mu, gamma / mu))
    if mu == 0.0:
        if not isinstance(C, (Ball, Box, L1Ball)):
            raise ConfigurationError(
                "mu_shift = 0 requires a bounded constraint set; the direction "
                "subproblem is unbounded below on unbounded sets"
            )
        if isinstance(C, Box):
            # Piecewise-linear per coordinate: the minimum sits at a bound or 0.
            lower, upper = C.lower, C.upper
            candidates = np.stack(
                [lower, upper, np.clip(np.zeros_like(w), lower, upper)]
            )
            values = w * candidates + gamma * np.abs(candidates)
            choice = np.argmin(values, axis=0)
            return candidates[choice, np.arange(w.shape[0])]
    return _direction_dr(w, gamma, mu, C)


def mf_direction(P: ProblemSpec, x_k, opts: MfOptions | None = None) -> np.ndarray:
    """Minimizer of the shifted direction subproblem at ``x_k``."""
    if opts is None:
        opts = MfOptions()
    x_k = np.asarray(x_k, dtype=float)
    mu = opts.resolve_mu(P)
    return direction_minimizer(_smooth_gradient(P, x_k) - mu * x_k, P.gamma, mu, P.C)


def _golden_section(phi, a: float, b: float, evals: int):
    """Golden-section search on [a, b]; returns the best sampled point."""
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = phi(c), phi(d)
    best_x, best_f = (c, fc) if fc <= fd else (d, fd)
    for _ in range(max(evals - 2, 0)):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = phi(c)
            if fc < best_f:
                best_x, best_f = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = phi(d)
            if fd < best_f:
                best_x, best_f = d, fd
    return best_x, best_f


def mf_line_search(
    P: ProblemSpec, x_k, x_tilde, opts: MfOptions | None = None
) -> float:
    """Step length approximately minimizing the objective along the segment.

    Minimizes ``phi(lam) = objective((1-lam)*x_k + lam*x_tilde)`` over
    ``[0, lambda_max]`` by golden-section search, then compares against the
    candidates ``lam in {0, 1, lambda_max}`` so the returned step never does
    worse than staying put or taking the full step.  ``x_k`` and ``x_tilde``
    must lie in ``C``.  Each evaluation combines the cached images
    ``A x_k`` and ``A (x_tilde - x_k)`` instead of applying ``A``, so ``phi``
    agrees with :func:`gamma_objective` up to round-off.
    """
    if opts is None:
        opts = MfOptions()
    x_k = np.asarray(x_k, dtype=float)
    d = np.asarray(x_tilde, dtype=float) - x_k
    if float(np.linalg.norm(d)) == 0.0:
        return 0.0
    Ax_k, Ad = P.A @ x_k, P.A @ d
    C, Q, gamma = P.C, P.Q, P.gamma
    # For lam in [0, 1], x is a convex combination of x_k and x_tilde, which
    # both lie in C, so only the extrapolated points need the membership
    # test, and on R^n none does.
    test_beyond_one = not isinstance(C, FullSpace)

    def phi(lam: float) -> float:
        x = x_k + lam * d
        if test_beyond_one and lam > 1.0 and not C.contains(x, 1e-9):
            return math.inf
        Ax = Ax_k + lam * Ad
        r = Ax - Q.project(Ax)
        return 0.5 * float(r @ r) + gamma * (float(np.abs(x).sum()) - math.sqrt(x @ x))

    gs_x, gs_f = _golden_section(phi, 0.0, opts.lambda_max, opts.golden_evals)
    candidates = [(0.0, phi(0.0)), (1.0, phi(1.0)), (opts.lambda_max, phi(opts.lambda_max)), (gs_x, gs_f)]
    best_lam, _ = min(candidates, key=lambda item: item[1])
    return float(best_lam)


def solve_mf(P: ProblemSpec, x0, opts: MfOptions | None = None) -> SolveResult:
    """Run the direction/line-search iteration from ``x0``.

    Stops when the stationarity residual drops to ``stationarity_tol``, when
    the step norm drops to ``step_tol``, or at ``max_iter``.  Iterates stay
    in ``C`` (convex combinations of feasible points).  An iterate landing
    exactly at the origin is handled with the zero subgradient of the l2 norm
    and the iteration continues.
    """
    if opts is None:
        opts = MfOptions()
    x, message = start_point(P, x0)
    resolved = replace(opts, mu_shift=opts.resolve_mu(P))
    resolved = replace(resolved, stationarity_tol=resolved.resolve_stationarity_tol(P))
    mu = resolved.mu_shift
    # Stationarity residual and smooth gradient of the last recorded
    # iterate, which is the next step's start.
    residual, gradient = float("inf"), None

    def step(k, x):
        if residual <= resolved.stationarity_tol:
            return None, 0.0, Stop(Status.CONVERGED)
        x_tilde = direction_minimizer(gradient - mu * x, P.gamma, mu, P.C)
        lam = mf_line_search(P, x, x_tilde, resolved)
        x_next = (1.0 - lam) * x + lam * x_tilde
        return x_next, float(np.linalg.norm(x_next - x)), None

    def monitor(k, x, move):
        nonlocal residual, gradient
        columns, gradient = columns_and_gradient(P, x)
        residual = columns["grad_residual"]
        return columns

    result = iterate(
        x,
        step,
        monitor,
        opts.max_iter,
        opts.step_tol,
        message=message,
        residual_is_proxy=not has_exact_residual(P.C),
    )
    # The stationarity stop is tested before each step, so an iterate that
    # passes it at max_iter would otherwise be reported as MAX_ITERATIONS.
    if result.status is Status.MAX_ITERATIONS and residual <= resolved.stationarity_tol:
        result.status = Status.CONVERGED
    return result
