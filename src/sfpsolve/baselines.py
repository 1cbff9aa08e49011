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

from .linops import check_count, check_positive, norm, sfp_gradient, squared_op_norm
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

_EPS = float(np.finfo(float).eps)

__all__ = [
    "CqOptions",
    "McqOptions",
    "solve_cq",
    "select_subgradient",
    "project_level_set",
    "solve_mcq",
    "level_set_bound",
]


@dataclass
class CqOptions:
    """Fixed step size (default ``1/||A||^2``) and stopping controls."""

    step: float | None = None
    max_iter: int = 1000
    step_tol: float = 1e-5

    def __post_init__(self):
        if self.step is not None:
            check_positive(self.step, "step")
        check_count(self.max_iter, "max_iter")
        check_positive(self.step_tol, "step_tol", zero=True)

    def resolve_step(self, P: ProblemSpec) -> float:
        if self.step is not None:
            return self.step
        return 1.0 / squared_op_norm(P.op_norm)


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
    image = None  # A @ x of the last recorded iterate, the next step's start

    def step(k, x):
        x_next = P.C.project(x - stepsize * sfp_gradient(P.A, P.Q, x, _Ax=image))
        return x_next, norm(x_next - x), None

    def monitor(k, x, move):
        nonlocal image
        image = P.A @ x
        return _residual_columns(P, k, x, move, stepsize, image)

    return iterate(x, step, monitor, opts.max_iter, opts.step_tol)


def _residual_columns(
    P: ProblemSpec, k: int, x: np.ndarray, move: float, scale: float, Ax: np.ndarray
) -> dict:
    """Trace columns of the projection baselines at iteration ``k``, given ``Ax``.

    The objective is the feasibility residual; the stationarity column is the
    gradient norm at the start and ``move / scale`` after each step.
    """
    res = sfp_residual_value(P, x, _Ax=Ax)
    grad_residual = move / scale if k else norm(sfp_gradient(P.A, P.Q, x, _Ax=Ax))
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
        check_positive(self.sigma, "sigma")
        check_positive(self.t, "t")
        check_count(self.max_iter, "max_iter")
        check_count(self.backtrack_cap, "backtrack_cap")
        check_positive(self.step_tol, "step_tol", zero=True)


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
    handed to the screen and to the two projections.  The record's ``A x_k``
    serves its residual columns and the gradient ``g(x_k)``.

    When ``Q`` is a ball (a singleton is one of radius 0), the ladder is
    first scanned in one pass of O(1) scalar work per trial, from products
    with ``A`` and ``AA'`` made once per iteration (see
    :func:`_trial_screen`).  The scan only rules out steps that the
    condition rejects; every other trial, and so every accepted one, is
    decided by the condition itself, so the iterates, trace, status and
    message are those of the plain backtracking loop.

    Before that, for a ball ``Q``, :func:`level_set_bound` tries to prove
    that no ``x`` has ``Ax in Q`` and ``||x||_1 <= t``, within
    ``opts.max_iter`` iterations of its own.  If it does, the run ends at
    iteration 0 as ``Status.INFEASIBLE``, with the start point, its record
    and a message that quotes the bound.  ``AA'`` is formed once for both.

    ``P.gamma`` is the l1 weight of that FISTA run and is read nowhere else:
    it decides whether the run proves an empty level set within
    ``opts.max_iter`` iterations, and how fast.  On seed-0 desk-sparse trials
    0-3, gamma in {0.1, 0.6, 1} proved it on all four; gamma = 0.01 missed
    trial 2 and gamma = 10 trial 1, which then ran to 1,000 iterations.
    """
    x, _ = start_point(P, x0, project=False)
    alpha = opts.sigma  # the accepted step scale, read by the monitor
    # ||x||_1 and A @ x of the last recorded iterate, the next step's start
    l1_norm, image = 0.0, None
    # Python floats, with the loop's own products: numpy scalars would slow the screen.
    ladder = list(accumulate(repeat(float(opts.l), opts.backtrack_cap), operator.mul,
                             initial=float(opts.sigma)))
    screen = infeasible = None
    if isinstance(P.Q, Ball):
        M = _gram(P.A)
        bound = level_set_bound(P, opts.t, opts.max_iter, _M=M)
        if bound > opts.t:
            # The bound to 6 significant digits, or to more where that is not in (t, bound].
            shown = next(s for s in (f"{bound:.{d}g}" for d in range(6, 18))
                         if opts.t < float(s) <= bound)
            t_shown = repr(float(opts.t)).removesuffix(".0")
            message = f"min ||x||_1 over {{Ax in Q}} >= {shown} > t = {t_shown}"
            infeasible = Stop(Status.INFEASIBLE, message)
        else:
            screen = _trial_screen(P, opts, ladder, M)

    def step(k, x):
        nonlocal alpha
        if infeasible is not None:
            return None, 0.0, infeasible
        g = sfp_gradient(P.A, P.Q, x, _Ax=image)
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
        nonlocal l1_norm, image
        l1_norm, image = float(np.abs(x).sum()), P.A @ x
        return {**_residual_columns(P, k, x, move, alpha, image), "l1_norm": l1_norm}

    return iterate(x, step, monitor, opts.max_iter, opts.step_tol)


def level_set_bound(P: ProblemSpec, t: float, max_iter: int, *, _M=None) -> float:
    """A lower bound on ``min{||x||_1 : Ax in Q}`` for a ball ``Q``, safe against rounding.

    For ``Q = Ball(c, R)`` (a singleton has ``R = 0``), weak duality gives,
    for any ``y`` with ``||A'y||_inf <= 1`` and any ``x`` with ``Ax in Q``,
    ``||x||_1 >= <y, Ax> >= <c, y> - R*||y||``.  A bound above ``t`` thus
    proves that no ``x`` has ``Ax in Q`` and ``||x||_1 <= t``.

    The points ``y`` come from FISTA (Beck & Teboulle, 2009) with gradient
    restart (O'Donoghue & Candes, 2015), run from 0 with step
    ``1/lambda_max(AA')`` on the l1 problem
    ``F(z) = 0.5*dist(Az, Q)^2 + gamma*||z||_1`` with ``gamma = P.gamma``.
    At each extrapolated point ``z``, with ``r = Az - P_Q(Az)`` and
    ``g = A'r`` (the gradient the step needs anyway), the point
    ``u = -r / max(1, ||g||_inf/gamma)`` is feasible for the dual problem,
    to maximize ``D(u) = -0.5*||u||^2 + <c, u> - R*||u||`` subject to
    ``||A'u||_inf <= gamma``, and ``y = u/gamma``.  An iteration makes two
    products with ``A`` and O(m + n) other work.  The bound holds at every
    ``u``, so the step size sets only the speed.  The run stops at the first of:

    * a bound above ``t``;
    * a bound that cannot get there (see "Giving up" below);
    * a second step in a row that moves the iterate ``x`` by at most
      ``eps*||x_next||``: a fixed point up to rounding (see below);
    * ``max_iter`` iterations.

    The bound holds at every iterate, so no stop can make it unsound.

    Margin.  With ``eta = 64*N*eps`` for ``N = max(m, n)``, as in
    :func:`_trial_screen`, each entry of the computed ``g`` is within
    ``eta*||A||_F*||r||`` of ``A'r`` (``|fl(A'r) - A'r| <= gamma_m*|A'||r|``
    and no column of ``A`` is longer than ``||A||_F``; ``eta`` leaves room
    for the division by the scale).  So ``||A'u||_inf <= gamma + e`` with
    ``e = eta*||A||_F*||u||``, and ``y = u/(gamma + e)`` is feasible.  The
    computed ``<c, u>`` and ``R*||u||`` are within ``eta*||c||*||u||`` and
    ``eta*R*||u||``.  The bound at ``u`` is therefore

        (<c, u> - R*||u|| - eta*||u||*(||c|| + R)) / (gamma + e),

    which exceeds ``t`` iff ``B = (<c, u> - R*||u||)/gamma`` exceeds ``t`` by
    ``eta*||u||*(||c|| + R + t*||A||_F)/gamma``.

    Giving up.  ``D`` is 1-strongly concave, so its maximizer ``u*`` lies
    within ``s = sqrt(2*gap)`` of ``u``, with ``gap = F(z) - D(u)``.  By
    weak duality ``D(u*) <= F(z)``, so ``B`` at ``u*``,
    ``(D(u*) + 0.5*||u*||^2)/gamma``, is at most
    ``(F(z) + 0.5*(||u|| + s)^2)/gamma``; and as ``||u*|| >= max(||u|| - s, 0)``,
    the margin at ``u*`` is at least
    ``eta*max(||u|| - s, 0)*(||c|| + R + t*||A||_F)/gamma``.  The run stops
    once the first is at most ``t`` plus the second.  In noiseless exact
    recovery (``min{||x||_1 : Ax in Q} = t``) that never happens: the
    computed ``gap`` stalls near 3e-13 and ``||u||*s`` stays about a
    hundred times the margin term.  The iteration reaches a fixed point
    there instead, which the idle-step stop detects.  Its moves need not
    reach 0 there: on noiseless seed-0 desk-sparse trial 2, with one BLAS
    thread, they stayed between 7e-20 and 6e-17 of ``||x||`` for 800
    iterations; the relative stop ends that run at iteration 198.

    Returns the largest bound over the iterates, or ``-inf`` when none is
    finite: any non-finite value, such as an entry of ``AA'`` that
    overflows, means no certificate.  ``_M``, when given, is
    :func:`_gram` of ``A``.  Raises ValueError unless ``Q`` is a ball.
    """
    if not isinstance(P.Q, Ball):
        raise ValueError("level_set_bound needs Q to be a ball")
    A, gamma, c, R = P.A, P.gamma, P.Q.center, P.Q.radius
    eta = _eta(A)
    best = -math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        M = _gram(A) if _M is None else _M
        if not np.isfinite(M).all():
            return best
        lam = float(np.linalg.eigvalsh(M)[-1])
        fro, c_norm = float(np.linalg.norm(A)), norm(c)
        if not (0.0 < lam < math.inf and fro < math.inf):
            return best
        step = 1.0 / lam
        shrink = gamma * step
        x = z = np.zeros(P.n)
        Ax = Az = np.zeros(P.m)
        theta, idle = 1.0, 0
        margin_scale = c_norm + R + t * fro
        for _ in range(max_iter):
            # r = Az - P_Q(Az) without Q.project, as in the screen, so that the
            # solver's counts of projections and gradients are its iterations' own.
            r = Az - c
            r_norm = norm(r)
            if R:
                # ||fl(s*r)|| is s*||r|| up to one rounding per entry.
                s = max(1.0 - R / r_norm, 0.0) if r_norm > 0.0 else 0.0
                r *= s
                r_norm *= s
            g = A.T @ r
            g_max = float(np.abs(g).max())
            if not g_max < math.inf:
                break
            scale = max(1.0, g_max / gamma)
            u_norm, cu = r_norm / scale, -float(c.dot(r)) / scale
            bound = (cu - R * u_norm - eta * u_norm * (c_norm + R)) / (gamma + eta * fro * u_norm)
            if best < bound < math.inf:
                best = bound
                if bound > t:
                    break
            objective = 0.5 * r_norm * r_norm + gamma * float(np.abs(z).sum())
            gap = max(objective - (cu - R * u_norm - 0.5 * u_norm * u_norm), 0.0)
            spread = math.sqrt(2.0 * gap)
            margin = eta * max(u_norm - spread, 0.0) * margin_scale
            if not objective + 0.5 * (u_norm + spread) ** 2 > t * gamma + margin:
                break
            # Proximal gradient step from z, then momentum, restarted where the
            # step turns against the last move.
            w = z - step * g
            x_next = w - np.minimum(np.maximum(w, -shrink), shrink)
            Ax_next = A @ x_next
            move = x_next - x
            turn = (z - x_next).dot(move)
            # A move within a rounding unit of ||x_next||: a fixed point up to
            # rounding, where the move need not reach 0 exactly.
            idle = idle + 1 if norm(move) <= _EPS * norm(x_next) else 0
            if idle == 2:
                break
            if turn > 0.0:
                theta = 1.0
            theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
            beta = (theta - 1.0) / theta_next
            z, Az = x_next, Ax_next
            if beta:
                z = x_next + beta * move
                Az = Ax_next + beta * (Ax_next - Ax)
            x, Ax, theta = x_next, Ax_next, theta_next
    return best


def _eta(A: np.ndarray) -> float:
    """``64*N*eps`` for ``N = max(m, n)``: the relative rounding allowance of the bounds.

    Higham's bound ``N*u`` on the relative error of a length-``N`` dot
    product, with room for the few operations around it.
    """
    return 64.0 * max(A.shape) * _EPS


def _gram(A: np.ndarray) -> np.ndarray:
    """``AA'``, formed once per :func:`solve_mcq`; an entry that overflows is inf, silently."""
    with np.errstate(over="ignore", invalid="ignore"):
        return A @ A.T


def _residual_scale(dist: float, error: float, radius: float) -> tuple[float, float]:
    """``s = (1 - radius/dist)_+`` and a bound on its change if ``dist`` moves by ``error``.

    ``Ax - P_Q(Ax) = s * (Ax - center)`` for a ball of positive radius.
    Without a positive lower bound on ``dist`` the bound is 1, the whole
    range of ``s``.
    """
    s = max(1.0 - radius / dist, 0.0) if dist > 0.0 else 0.0
    return s, radius * error / (dist * (dist - error)) if dist > error else 1.0


def _trial_screen(P: ProblemSpec, opts: McqOptions, ladder: list[float], M: np.ndarray):
    """Per-iteration scan of the backtracking ladder that rules out steps.

    ``Q`` must be a ball, a singleton included, and ``M`` is
    :func:`_gram` of ``A``.  The returned
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
    center, radius = P.Q.center, P.Q.radius
    A, t, mu = P.A, float(opts.t), float(opts.mu)
    eta = _eta(A)
    root_eta = math.sqrt(eta)
    # An overflowing norm or entry of M is inf, which makes every slack inf
    # or NaN: no trial is ruled out.
    with np.errstate(over="ignore", invalid="ignore"):
        fro = float(np.linalg.norm(A))
        c_norm = float(np.linalg.norm(center))
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
