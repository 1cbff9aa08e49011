"""Projection baselines: the CQ iteration and a modified CQ with level sets.

The CQ iteration solves the unregularized split feasibility problem by
projected gradient steps on ``0.5*||Ax - P_Q(Ax)||^2``:

    x_{k+1} = P_C(x_k - step * A'(Ax_k - P_Q(Ax_k))).

The modified variant replaces the l1-ball constraint ``||x||_1 <= t`` with a
subgradient half-space relaxation around the current iterate and combines it
with Armijo-style backtracking and an extragradient update.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import accumulate, repeat

import numpy as np

from .linops import inflated_op_norm, norm, sfp_gradient, squared_op_norm
from .problem import (
    ProblemSpec,
    SolveResult,
    Status,
    Stop,
    iterate,
    sfp_residual_value,
    start_point,
)
from .sets import Ball

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
        return 1.0 / squared_op_norm(inflated_op_norm(P.A))


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
        return x_next, norm(x_next - x), None

    def monitor(k, x, move):
        return _residual_columns(P, k, x, move, stepsize)

    return iterate(x, step, monitor, opts.max_iter, opts.step_tol)


def _residual_columns(P: ProblemSpec, k: int, x: np.ndarray, move: float, scale: float) -> dict:
    """Trace columns of the projection baselines at iteration ``k``.

    The objective is the feasibility residual; the stationarity column is the
    gradient norm at the start and ``move / scale`` after each step.
    """
    res = sfp_residual_value(P, x)
    grad_residual = move / scale if k else norm(sfp_gradient(P.A, P.Q, x))
    return {"objective": res, "grad_residual": grad_residual, "sfp_residual": res}


def select_subgradient(x) -> np.ndarray:
    """Subgradient of the l1 norm: componentwise sign, zero at zero entries."""
    return np.sign(np.asarray(x, dtype=float))


def project_level_set(x_k, t: float, y, *, _xi=None, _l1_norm=None) -> np.ndarray:
    """Project ``y`` onto the half-space relaxation of ``||x||_1 <= t`` at ``x_k``.

    The relaxation is ``{x : c(x_k) + <xi, x - x_k> <= 0}`` with
    ``c(x) = ||x||_1 - t`` and ``xi`` the sign subgradient at ``x_k``.  It
    contains the l1 ball itself, so projecting onto it never cuts off
    feasible points.  Raises ValueError for the degenerate empty relaxation
    (only possible when ``x_k = 0`` and ``t < 0``).  ``_xi`` and
    ``_l1_norm``, when given, are ``select_subgradient(x_k)`` and
    ``float(np.abs(x_k).sum())``, computed once by the caller.
    """
    x_k = np.asarray(x_k, dtype=float)
    y = np.asarray(y, dtype=float)
    xi = select_subgradient(x_k) if _xi is None else _xi
    l1_norm = np.abs(x_k).sum() if _l1_norm is None else _l1_norm
    violation = float(l1_norm - t + xi @ (y - x_k))
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
    defining ``c(x) = ||x||_1 - t``.  An iteration tries at most
    ``backtrack_cap + 1`` steps; :func:`solve_mcq` keeps them in a list.
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

    The trial steps form a ladder built once per solve by the repeated
    products ``alpha *= l`` of the plain loop, so each has the same bits.
    The sign vector ``xi`` of ``x_k`` is computed once per iteration, and
    ``||x_k||_1`` is the ``l1_norm`` column of ``x_k``'s record; both are
    handed to the screen and to the two projections.

    When ``Q`` is a ball (a singleton is one of radius 0), the ladder is
    first scanned in one pass of O(1) scalar work per trial, from products
    with ``A`` and ``AA'`` made once per iteration (see
    :func:`_trial_screen`).  The scan only rules out steps that the
    condition rejects; every other trial, and so every accepted one, is
    decided by the condition itself, so the iterates, trace, status and
    message are those of the plain backtracking loop.
    """
    x, _ = start_point(P, x0, project=False)
    alpha = opts.sigma  # the accepted step scale, read by the monitor
    l1_norm = 0.0  # ||x||_1 of the last recorded iterate, the next step's start
    # Python floats, with the loop's own products: numpy scalars would slow the screen.
    ladder = list(accumulate(repeat(float(opts.l), opts.backtrack_cap), operator.mul,
                             initial=float(opts.sigma)))
    screen = _trial_screen(P, opts, ladder)

    def step(k, x):
        nonlocal alpha
        g = sfp_gradient(P.A, P.Q, x)
        xi = select_subgradient(x)
        for alpha in screen(x, g, xi, l1_norm) if screen else ladder:
            x_bar = project_level_set(x, opts.t, x - alpha * g, _xi=xi, _l1_norm=l1_norm)
            g_bar = sfp_gradient(P.A, P.Q, x_bar)
            gap = norm(g - g_bar)
            if gap <= opts.mu * norm(x - x_bar) / alpha:
                break
        else:
            message = f"backtracking cap {opts.backtrack_cap} reached at iteration {k}"
            return None, 0.0, Stop(Status.MAX_ITERATIONS, message)
        x_next = project_level_set(x, opts.t, x - alpha * g_bar, _xi=xi, _l1_norm=l1_norm)
        return x_next, norm(x_next - x), None

    def monitor(k, x, move):
        nonlocal l1_norm
        l1_norm = float(np.abs(x).sum())
        return {**_residual_columns(P, k, x, move, alpha), "l1_norm": l1_norm}

    return iterate(x, step, monitor, opts.max_iter, opts.step_tol)


def _residual_scale(dist: float, error: float, radius: float) -> tuple[float, float]:
    """``s = (1 - radius/dist)_+`` and a bound on its change if ``dist`` moves by ``error``.

    ``Ax - P_Q(Ax) = s * (Ax - center)`` for a ball of positive radius.
    Without a positive lower bound on ``dist`` the bound is 1, the whole
    range of ``s``.
    """
    s = max(1.0 - radius / dist, 0.0) if dist > 0.0 else 0.0
    return s, radius * error / (dist * (dist - error)) if dist > error else 1.0


def _trial_screen(P: ProblemSpec, opts: McqOptions, ladder: list[float]):
    """Per-iteration scan of the backtracking ladder that rules out steps.

    Returns None unless ``Q`` is a ball, a singleton included.  Else
    ``screen(x, g, xi, l1_norm)``, with ``g`` the gradient at ``x``, ``xi``
    its sign vector and ``l1_norm = ||x||_1``, scans ``ladder`` in one pass
    and yields each step ``alpha`` it cannot rule out, in ladder order.  It
    rules out a step only if :func:`solve_mcq`'s condition ``gap <= rhs``
    fails for it.  The scan resumes after a yielded step, so a step that
    the exact test rejects moves on to the next open one.

    Each trial point is ``x_bar = x - alpha*g - beta*xi``, with
    ``c0 = ||x||_1 - t`` and ``beta = max(c0 - alpha*xi.g, 0)/||xi||^2``
    (``||xi||^2`` is the count of nonzero entries of ``x``).  With
    ``U = A[x, g, xi]``, its first column less the centre ``c``, and
    ``V = A'U``:

    * ``rhs = mu*||alpha*g + beta*xi||/alpha``, a quadratic form in
      ``||g||^2``, ``xi.g`` and ``||xi||^2``;
    * ``A x_bar - c = U(1, -alpha, -beta)``, whose norm gives the residual
      scale ``s`` of :func:`_residual_scale` (``s0`` is that of ``x``);
    * ``gap = ||g - g_bar|| = ||V(s0 - s, s*alpha, s*beta)||``.

    So a trial is O(1) scalar work, on Python floats, over the Gram of
    ``V`` and a few dot products, all made once per iteration.  The Gram of
    ``V`` is ``U'MU`` with ``M = AA'`` formed once per solve, so ``V`` is
    never formed: an iteration makes its products with ``A`` and the m x m
    ``M``, none with ``A'``.  For a singleton (radius 0) ``s = s0 = 1`` in
    every trial, so the column ``A x - c`` has weight 0 and ``U`` keeps only
    the columns of ``g`` and ``xi``; a positive radius needs all three and
    the Gram of ``U`` for the distances to ``c``.  ``M`` is no larger than
    ``A`` when m <= n; for a tall ``A`` the screen's memory and work per
    iteration grow with m^2.

    Margin.  With ``eta = 64*N*eps`` for ``N = max(m, n)`` (Higham's bound
    ``N*u`` on the relative error of a length-``N`` dot product, with room
    for the few operations around it), the screen rejects only if
    ``gap - rhs`` exceeds the sum of three bounds:

    * ``sqrt(eta)`` times the sums of the magnitudes of the terms in each
      form: rounding ``eta*mag^2`` in a quadratic form that cancels moves
      its square root by at most ``sqrt(eta)*mag``.  In the gap's form the
      magnitude of the term of ``V_i`` is ``||V_i|| + ||A||_F*||U_i||``:
      ``fl(M) = M + E`` with ``|E| <= gamma_n |A||A'|`` (Higham, *Accuracy
      and Stability of Numerical Algorithms*, 3.1), so
      ``|U_i'EU_j| <= gamma_n ||A||_F^2 ||U_i|| ||U_j||``, since
      ``||(|A'||u|)|| <= ||A||_F ||u||``; the two products with ``fl(M)``
      round within the same bound with ``gamma_m``;
    * ``eta`` times the scale of the exact test's own rounding,
      ``||A||_F*(||A||_F*(||x|| + ||x_bar||) + ||c|| + R)`` for the two
      gradients it subtracts and ``mu*(||x|| + ||x_bar||)/alpha`` for the
      step it measures, with ``||x_bar|| <= ||x|| + alpha*||g|| +
      beta*||xi||``;
    * the change in ``s0`` and ``s`` that these errors allow in the
      distances to ``c``, times bounds on the norms of the columns of ``V``
      they weight: by the first bullet the computed ``||V_i||^2`` is off by
      at most ``eta*||A||_F^2*||U_i||^2``, so ``||V_i||`` is at most its
      computed value plus ``sqrt(eta)*||A||_F*||U_i||``.

    Near the boundary of the condition, or when the residual scale is not
    resolved, the trial is left to the exact test, as is any trial whose
    values are not finite.  ``||xi|| = 0`` with a positive violation is
    left to it too (it raises there).
    """
    Q = P.Q
    if not isinstance(Q, Ball):
        return None
    center, radius = Q.center, Q.radius
    A, t, mu = P.A, float(opts.t), float(opts.mu)
    eta = 64.0 * max(A.shape) * float(np.finfo(float).eps)
    root_eta = math.sqrt(eta)
    # An overflowing norm or entry of M is inf, which makes every slack inf
    # or NaN: no trial is ruled out.
    with np.errstate(over="ignore", invalid="ignore"):
        fro = float(np.linalg.norm(A))
        c_norm = float(np.linalg.norm(center))
        M = A @ A.T
    # Parts of the slack that do not depend on the iterate.
    fro_eta = eta * fro
    fro2_eta = fro_eta * fro
    offset_eta = fro_eta * (c_norm + radius)
    rhs_eta = mu * (root_eta + eta)

    def screen(x, g, xi, l1_norm):
        x2, gg, xg = float(x.dot(x)), float(g.dot(g)), float(g.dot(xi))
        xx = float(np.count_nonzero(xi))
        c0 = l1_norm - t
        nx, ng, nxi = math.sqrt(x2), math.sqrt(gg), math.sqrt(xx)
        # Parts of the slack that do not depend on the step.
        base = 2.0 * fro2_eta * nx + offset_eta
        base_over_alpha = 2.0 * eta * mu * nx
        if radius:
            # U' has rows A x - c, A g, A xi; the Grams of U and V from it.
            Ut = np.array([x, g, xi]) @ A.T
            Ut[0] -= center
            (u00, u01, u02), (_, u11, u12), (_, _, u22) = (Ut @ Ut.T).tolist()
            (v00, v01, v02), (_, v11, v12), (_, _, v22) = ((Ut @ M) @ Ut.T).tolist()
            nu0 = math.sqrt(u00)
            s0, ds0 = _residual_scale(nu0, eta * (nu0 + fro * nx + c_norm), radius)
            z_err = eta * (2.0 * fro * nx + c_norm)
            # err_i = sqrt(eta)*||A||_F*||U_i||: w_i is sqrt(eta) times the
            # magnitude of V_i's term in the gap's form, vb_i bounds ||V_i||.
            nv0, err0 = math.sqrt(max(v00, 0.0)), root_eta * fro * nu0
            w0, vb0 = root_eta * nv0 + err0, nv0 + err0
        else:
            # Radius 0: s = s0 = 1, so A x - c has weight 0 and U' has rows A g, A xi.
            Ut = np.array([g, xi]) @ A.T
            (u11, _), (_, u22) = (Ut @ Ut.T).tolist()
            (v11, v12), (_, v22) = ((Ut @ M) @ Ut.T).tolist()
        nu1, nu2 = math.sqrt(u11), math.sqrt(u22)
        nv1, err1 = math.sqrt(max(v11, 0.0)), root_eta * fro * nu1
        nv2, err2 = math.sqrt(max(v22, 0.0)), root_eta * fro * nu2
        w1, w2 = root_eta * nv1 + err1, root_eta * nv2 + err2
        vb1, vb2 = nv1 + err1, nv2 + err2
        for alpha in ladder:
            violation = c0 - alpha * xg
            beta = 0.0
            if violation > 0.0:
                if xx == 0.0:
                    yield alpha
                    continue
                beta = violation / xx
            # ||x - x_bar|| = ||alpha*g + beta*xi||, and a bound on it
            move2 = alpha * alpha * gg + beta * (2.0 * alpha * xg + beta * xx)
            move_mag = alpha * ng + beta * nxi
            slack = base + fro2_eta * move_mag + (rhs_eta * move_mag + base_over_alpha) / alpha
            if radius:
                # ||A x_bar - c|| = ||U (1, -alpha, -beta)||
                z2 = (u00 + alpha * (alpha * u11 - 2.0 * u01)
                      + beta * (beta * u22 - 2.0 * u02 + 2.0 * alpha * u12))
                z_mag = nu0 + alpha * nu1 + beta * nu2
                s, ds = _residual_scale(
                    math.sqrt(max(z2, 0.0)),
                    root_eta * z_mag + fro_eta * move_mag + z_err,
                    radius,
                )
                # ||g - g_bar|| = ||V (s0 - s, s*alpha, s*beta)||
                a, b, c = s0 - s, s * alpha, s * beta
                gap2 = (a * (a * v00 + 2.0 * (b * v01 + c * v02))
                        + b * (b * v11 + 2.0 * c * v12) + c * c * v22)
                slack += (abs(a) * w0 + b * w1 + c * w2
                          + (ds0 + ds) * (vb0 + alpha * vb1 + beta * vb2))
            else:
                # ||g - g_bar|| = ||V (0, alpha, beta)||
                gap2 = alpha * (alpha * v11 + 2.0 * beta * v12) + beta * beta * v22
                slack += alpha * w1 + beta * w2
            # A non-finite input makes slack inf or NaN and this test False:
            # the trial goes to the exact test.
            if not math.sqrt(max(gap2, 0.0)) - mu * math.sqrt(max(move2, 0.0)) / alpha > slack:
                yield alpha

    return screen
