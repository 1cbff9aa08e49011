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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .linops import check_count, check_positive, norm, squared_op_norm
from .problem import (
    ConfigurationError,
    ProblemSpec,
    SolveResult,
    _smooth_gradient,
    columns_and_gradient,
    iterate,
    overflow_stop,
    start_point,
)
from .prox import soft_threshold
from .sets import DEFAULT_MEMBER_TOL, Ball, Box, FullSpace, L1Ball

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
    still has minimizers; :func:`solve_mf` rejects it on any other set
    before its first record.

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
        if self.mu_shift is not None:
            check_positive(self.mu_shift, "mu_shift", zero=True)
        check_positive(self.lambda_max, "lambda_max")
        check_count(self.golden_evals, "golden_evals", 4)
        check_count(self.max_iter, "max_iter")
        check_positive(self.step_tol, "step_tol")
        if self.stationarity_tol is not None:
            check_positive(self.stationarity_tol, "stationarity_tol")

    def resolve_mu(self, P: ProblemSpec) -> float:
        if self.mu_shift is not None:
            return self.mu_shift
        return 0.1 * squared_op_norm(P.op_norm)

    def resolve_stationarity_tol(self, P: ProblemSpec) -> float:
        if self.stationarity_tol is not None:
            return self.stationarity_tol
        return self.step_tol * max(1.0, self.resolve_mu(P))


def _ball_direction(w, gamma: float, mu: float, C: Ball) -> np.ndarray:
    """:func:`direction_minimizer` on the ball ``||x - c|| <= R``, without a loop.

    At the ball's multiplier ``lam >= 0`` the minimizer is
    ``x(lam) = soft_threshold(lam*c - w, gamma)/(mu + lam)``, which is ``x(0)``
    if that lies in the ball (for ``mu = 0``: 0 if ``||w||_inf <= gamma``).
    Else, between the sorted breakpoints ``(w_i +- gamma)/c_i`` the set K where
    ``|lam*c_i - w_i| > gamma`` is fixed and ``||x(lam) - c||^2`` is
    ``S/(mu + lam)^2 + T``, with ``S = sum_K q_i^2``, ``T = sum_{i not in K} c_i^2``
    and ``q = w + gamma*sign(lam*c - w) + mu*c``.  It does not increase with
    ``lam``, so a bisection over the breakpoints (O(n log n), like the l1-ball
    projection of Duchi et al., ICML 2008) finds the piece where it falls to
    ``R^2``; there ``x_K = c_K - q_K*sqrt((R^2 - T)/S)``, ``x = 0`` off K, and
    ``S = 0`` only on the first piece with ``mu = 0``: ``x_K = c_K``, the limit.
    """
    c, R = C.center, C.radius
    if R == 0.0:
        return c.copy()
    if mu > 0.0:
        x = soft_threshold(-w, gamma) / mu
        if norm(x - c) <= R:
            return x
    elif np.abs(w).max() <= gamma and norm(c) <= R:
        return np.zeros_like(w)

    def piece(lam):
        """``(K, q, S, T)`` on the piece that holds ``lam``, with ``q = 0`` off K."""
        z = lam * c - w
        kept = np.abs(z) > gamma
        q = np.where(kept, w + gamma * np.sign(z) + mu * c, 0.0)
        return kept, q, float(q.dot(q)), float(c[~kept].dot(c[~kept]))

    def in_ball(lam):
        _, _, S, T = piece(lam)
        return S / (mu + lam) ** 2 + T <= R * R

    breaks = np.add.outer([-gamma, gamma], w[c != 0.0]) / c[c != 0.0]
    breaks = np.unique(breaks[breaks > 0.0])
    # The piece ends at the first breakpoint where x(lam) lies in the ball.
    i = bisect_left(breaks, True, key=in_ball)
    left = breaks[i - 1] if i > 0 else 0.0
    kept, q, S, T = piece(0.5 * (left + breaks[i]) if i < breaks.size else 2.0 * left + 1.0)
    scale = math.sqrt(max(R * R - T, 0.0) / S) if S > 0.0 else 0.0
    return np.where(kept, c - scale * q, 0.0)


def _check_zero_shift(C) -> None:
    """Raise ConfigurationError unless ``C`` is bounded, as ``mu_shift = 0`` requires."""
    if not isinstance(C, (Ball, Box, L1Ball)):
        raise ConfigurationError(
            "mu_shift = 0 requires a bounded constraint set; the direction "
            "subproblem is unbounded below on unbounded sets"
        )


def direction_minimizer(w, gamma: float, mu: float, C) -> np.ndarray:
    """Minimize ``<w, x> + gamma*||x||_1 + mu*||x||^2/2`` over ``C``, in closed form.

    A ball (a singleton too) takes the scan of :func:`_ball_direction`.  With
    ``mu > 0`` every other set gives ``P_C(soft_threshold(-w/mu, gamma/mu))``
    (Yu, "On decomposing the proximal map", 2013).  ``mu = 0`` requires a
    bounded set: on a box each coordinate sits at a bound or 0; on an l1 ball
    of radius ``t`` the objective is at least ``(gamma - ||w||_inf)*||x||_1``,
    so the minimizer is ``-t*sign(w_i)*e_i`` at the lowest ``i`` with
    ``|w_i| = ||w||_inf`` if ``||w||_inf > gamma``, else 0.
    """
    w = np.asarray(w, dtype=float)
    if isinstance(C, Ball):
        return _ball_direction(w, gamma, mu, C)
    if mu > 0.0:
        return C.project(soft_threshold(-w / mu, gamma / mu))
    _check_zero_shift(C)
    if isinstance(C, Box):
        candidates = np.stack([C.lower, C.upper, np.clip(0.0, C.lower, C.upper)])
        choice = np.argmin(w * candidates + gamma * np.abs(candidates), axis=0)
        return candidates[choice, np.arange(w.shape[0])]
    # C is an l1 ball.
    i = int(np.abs(w).argmax())
    x = np.zeros_like(w)
    x[i] = -C.radius * np.sign(w[i]) if abs(w[i]) > gamma else 0.0
    return x


def mf_direction(P: ProblemSpec, x_k, opts: MfOptions | None = None) -> np.ndarray:
    """Minimizer of the shifted direction subproblem at ``x_k``.

    Raises ValueError where ``x_k``'s squared norm overflows a float, from
    which :func:`solve_mf` ends ``DIVERGED`` (:func:`~sfpsolve.problem.overflow_stop`).
    """
    if opts is None:
        opts = MfOptions()
    x_k = np.asarray(x_k, dtype=float)
    stop = overflow_stop(x_k)
    if stop is not None:
        raise ValueError(f"x_k is too large: {stop.message}")
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


def _squared_norm_along(u, v):
    """``(e, c, lam0)`` with ``||u + lam*v||^2 = e + c*(lam - lam0)^2``.

    ``e`` is the squared distance from the origin to the line, computed as a
    norm, so the form keeps its relative accuracy where the line passes
    close to the origin (the expanded quadratic cancels there).
    """
    c = float(v.dot(v))
    lam0 = -float(u.dot(v)) / c if c > 0.0 else 0.0
    nearest = u + lam0 * v
    return float(nearest.dot(nearest)), c, lam0


def _segment_objective(P: ProblemSpec, x_k, d, Ax_k, Ad):
    """``phi(lam) = gamma_objective(P, x_k + lam*d)`` as O(log n) scalar work.

    ``Ax_k`` and ``Ad`` are the images of ``x_k`` and ``d`` under ``A``, and
    ``x_k`` and ``x_k + d`` must lie in ``C``.  Along the segment
    ``||x||_2^2`` is a quadratic in ``lam`` and ``||x||_1`` is piecewise
    linear with breakpoints ``-x_k[i]/d[i]``; both are set up once here, from
    a few dot products and the prefix sums of the sorted breakpoints.  A
    ball ``Q`` (a singleton too) makes the residual a function of the
    quadratic ``||Ax - center||^2``; any other ``Q`` is projected onto.
    Membership in ``C`` is tested only for ``lam > 1`` (on ``[0, 1]`` the
    point is a convex combination of two points of ``C``), and never on R^n.
    On an l1 ball the scalar ``||x||_1`` decides it, except in a band of
    width ``sqrt(n)*DEFAULT_MEMBER_TOL`` above the radius; ``C.contains`` there.
    """
    C, Q, gamma = P.C, P.Q, P.gamma
    test_beyond_one = not isinstance(C, FullSpace)
    e, c, lam0 = _squared_norm_along(x_k, d)
    # ||x_k + lam*d||_1 = lam*(2W_j - W_n) - (2V_j - V_n) + c0, where j counts
    # the breakpoints beta_i <= lam, W sums |d_i| and V sums |d_i|*beta_i in
    # breakpoint order, and c0 collects the coordinates that do not move.
    moving = d != 0.0
    x_m, d_m = x_k[moving], d[moving]
    beta = -x_m / d_m
    order = beta.argsort()
    breakpoints = beta[order].tolist()
    # cumsum adds in order, so W[j] and V[j] are the sequential sums.
    W = [0.0, *np.abs(d_m)[order].cumsum().tolist()]
    V = [0.0, *(-np.sign(d_m) * x_m)[order].cumsum().tolist()]
    W_n, V_n = W[-1], V[-1]
    c0 = float(np.abs(x_k[~moving]).sum())

    ball = isinstance(Q, Ball)
    if ball:
        # ||Ax - center||^2 along the segment; no Q.project per evaluation.
        radius = Q.radius
        p, t, lam_q = _squared_norm_along(Ax_k - Q.center, Ad)
    l1_ball = isinstance(C, L1Ball)
    if l1_ball:
        # dist(x, C) lies between (||x||_1 - level)/sqrt(n) and ||x||_1 - level,
        # so the scalar ||x||_1 settles membership outside a band of width
        # sqrt(n)*DEFAULT_MEMBER_TOL above the level.  The slack covers the
        # round-off of the prefix sums and of the projection in C.contains
        # (n^2*eps relative).
        n = x_k.shape[0]
        level = C.radius
        band = math.sqrt(n) * DEFAULT_MEMBER_TOL
        unit = 4.0 * n * n * float(np.finfo(float).eps)
        l1_x = float(np.abs(x_k).sum())

    def phi(lam: float) -> float:
        j = bisect_right(breakpoints, lam)
        l1 = lam * (2.0 * W[j] - W_n) - (2.0 * V[j] - V_n) + c0
        if test_beyond_one and lam > 1.0:
            if l1_ball:
                slack = unit * (l1_x + lam * W_n)
                # In the band, or for a NaN l1, C.contains decides.
                inside = l1 <= level - slack or (
                    not l1 > level + band + slack and C.contains(x_k + lam * d)
                )
            else:
                inside = C.contains(x_k + lam * d)
            if not inside:
                return math.inf
        if ball:
            q = p + t * (lam - lam_q) ** 2
            res = 0.5 * q if radius == 0.0 else 0.5 * max(math.sqrt(q) - radius, 0.0) ** 2
        else:
            # No closed-form distance to a box, orthant or l1 ball: project.
            Ax = Ax_k + lam * Ad
            r = Ax - Q.project(Ax)
            res = 0.5 * float(r.dot(r))
        return res + gamma * (l1 - math.sqrt(e + c * (lam - lam0) ** 2))

    return phi


def mf_line_search(
    P: ProblemSpec, x_k, x_tilde, opts: MfOptions | None = None, *, _Ax_k=None
) -> float:
    """Step length approximately minimizing the objective along the segment.

    Minimizes ``phi(lam) = objective((1-lam)*x_k + lam*x_tilde)`` over
    ``[0, lambda_max]`` by golden-section search, then compares against the
    candidates ``lam in {0, 1, lambda_max}`` so the returned step never does
    worse than staying put or taking the full step.  ``x_k`` and ``x_tilde``
    must lie in ``C``.  The search applies ``A`` once, to
    ``d = x_tilde - x_k``, and once more to ``x_k`` unless ``_Ax_k``, the
    caller's ``A @ x_k``, is given; each evaluation of ``phi`` is then a few
    scalar operations and one bisection over the sorted breakpoints of
    ``||x||_1`` (see :func:`_segment_objective`), plus a projection onto
    ``Q`` when ``Q`` is not a ball and a membership test in ``C`` for
    ``lam > 1``.  ``phi`` agrees with :func:`gamma_objective` up to round-off.
    """
    if opts is None:
        opts = MfOptions()
    x_k = np.asarray(x_k, dtype=float)
    d = np.asarray(x_tilde, dtype=float) - x_k
    if norm(d) == 0.0:
        return 0.0
    Ax_k = P.A.dot(x_k) if _Ax_k is None else _Ax_k
    phi = _segment_objective(P, x_k, d, Ax_k, P.A.dot(d))
    gs_x, gs_f = _golden_section(phi, 0.0, opts.lambda_max, opts.golden_evals)
    candidates = [(0.0, phi(0.0)), (1.0, phi(1.0)), (opts.lambda_max, phi(opts.lambda_max)), (gs_x, gs_f)]
    best_lam, _ = min(candidates, key=lambda item: item[1])
    return float(best_lam)


def solve_mf(P: ProblemSpec, x0, opts: MfOptions | None = None) -> SolveResult:
    """Run the direction/line-search iteration from ``x0``.

    Stops as ``CONVERGED`` when a recorded iterate's stationarity residual
    drops to ``stationarity_tol`` (the start included) or the step norm to
    ``step_tol``, else at ``max_iter``; :func:`problem.iterate` makes both
    tests and decides the status, and the result is returned as it gives it.
    Iterates stay in ``C`` (convex combinations of feasible points).  An
    iterate landing exactly at the origin is handled with the zero
    subgradient of the l2 norm and the iteration continues.
    """
    if opts is None:
        opts = MfOptions()
    x, message = start_point(P, x0)
    mu = opts.resolve_mu(P)
    if mu == 0.0:
        _check_zero_shift(P.C)
    # Smooth gradient and image under A of the last recorded iterate, which
    # is the next step's start.
    gradient, image = None, None
    # Whether the last step stayed on the segment from x to x_tilde, whose
    # ends lie in C: then so does x_next, and its record needs no membership test.
    on_segment = False

    def step(k, x):
        nonlocal on_segment
        x_tilde = direction_minimizer(gradient - mu * x, P.gamma, mu, P.C)
        lam = mf_line_search(P, x, x_tilde, opts, _Ax_k=image)
        on_segment = lam <= 1.0
        x_next = (1.0 - lam) * x + lam * x_tilde
        return x_next, norm(x_next - x), None

    def monitor(k, x, move):
        nonlocal gradient, image
        in_C = on_segment or P.C.contains(x)
        columns, gradient, image = columns_and_gradient(P, x, in_C)
        return columns

    tol = opts.resolve_stationarity_tol(P)
    return iterate(x, step, monitor, opts.max_iter, opts.step_tol, stationarity_tol=tol, message=message)
