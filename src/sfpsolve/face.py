"""The exact DCA subproblem solve: feature-sign search on one kept QR factor.

With ``C = R^n`` or an l1 ball and a ball target ``Q`` (a point included),
:func:`_solve_point_lasso` solves the subproblem of :mod:`sfpsolve.inner`
exactly on a :class:`Face`, a set of columns of ``A`` with their signs and
QR factor, which :mod:`sfpsolve.dca` carries from one step to the next.
It is not an ``INNER_SOLVERS`` entry: a named inner solver runs on every
problem, on all columns.
"""

from __future__ import annotations

import math

import numpy as np

from .inner import InnerOptions, SubproblemSpec, _run_inner
from .linops import norm
from .problem import SolveResult, Status, Stop, start_point
from .sets import L1Ball

_EPS = float(np.finfo(float).eps)


class Face:
    """Columns ``S`` of ``A`` in factor order, their signs ``theta``, and ``A_S = QR`` kept as ``Q`` and ``R^{-1}``.

    Where ``A_S`` has full column rank, ``Q`` and ``R_inv`` factor all of
    it and ``null`` is None.  Elsewhere they factor its leading columns, up
    to the first one whose diagonal entry of ``R`` is at most
    ``max(m, s)*eps`` times the largest (or that lies past ``m``), and
    ``null`` is a direction ``d`` with ``A_S d = 0`` to rounding: ``d``
    writes that column in terms of the columns before it.  The factor
    changes only as ``S`` does: :meth:`grow` borders it and :meth:`drop`
    refactors only the columns after the first one that leaves (Golub & Van
    Loan, *Matrix Computations*, 4th ed., section 6.5), so a face can be
    kept from one solve to the next.
    """

    def __init__(self, A: np.ndarray):
        self.A = A
        self.clear()

    def clear(self) -> None:
        """Empty the face, so that the next :meth:`start` off the origin factors anew."""
        self.S = np.zeros(0, dtype=np.intp)
        self.theta = np.zeros(0)
        self.Q = np.zeros((self.A.shape[0], 0))
        self.R_inv = np.zeros((0, 0))
        self.null = None

    def start(self, x: np.ndarray) -> None:
        """Take the face of ``x``: ``theta = sign(x_S)``, on the kept factor if ``S`` is ``supp(x)`` already."""
        support = np.flatnonzero(x)
        if not np.array_equal(np.sort(self.S), support):
            self.S = support
            self._factor(0)
        self.theta = np.sign(x[self.S])

    def grow(self, j: int, sign: float) -> None:
        """Append column ``j`` with sign ``sign``: ``R^{-1}`` bordered after Gram-Schmidt run twice.

        Costs ``O(m*s)``, against ``O(m*s^2)`` for a new factorization.
        Where column ``j`` lies in the span of ``Q`` the null direction is
        ``[R^{-1} Q'a, -1]``.
        """
        a = self.A[:, j]
        self.S = np.append(self.S, j)
        self.theta = np.append(self.theta, sign)
        if self.null is not None:
            self.null = np.append(self.null, 0.0)
            return
        Q, R_inv = self.Q, self.R_inv
        m, s = Q.shape
        r = Q.T.dot(a)
        w = a - Q.dot(r)
        r2 = Q.T.dot(w)
        w -= Q.dot(r2)
        r += r2
        rho = norm(w)
        if rho <= max(m, s + 1) * _EPS * norm(a):
            self.null = np.append(R_inv.dot(r), -1.0)
            return
        grown = np.zeros((s + 1, s + 1))
        grown[:s, :s] = R_inv
        grown[:s, s] = R_inv.dot(r)
        grown[:s, s] /= -rho
        grown[s, s] = 1.0 / rho
        self.Q = np.column_stack((Q, w / rho))
        self.R_inv = grown

    def drop(self, kept: np.ndarray) -> None:
        """Remove the columns where ``kept`` is False, keeping the factor of those before the first."""
        first = int(np.argmin(kept))
        self.S, self.theta = self.S[kept], self.theta[kept]
        self._factor(min(first, self.Q.shape[1]))

    def _factor(self, k: int) -> None:
        """Factor ``A_S`` on the kept factor of its first ``k`` columns.

        The trailing columns are projected off ``Q[:, :k]`` (twice) and the
        projection gets a small ``qr``; ``R^{-1}`` is the block inverse.
        The rank test compares the trailing diagonal with the whole ``R``.
        """
        A, S = self.A, self.S
        m, s = A.shape[0], S.size
        Q, R_inv = self.Q[:, :k], self.R_inv[:k, :k]
        self.Q, self.R_inv, self.null = Q, R_inv, None
        if k == s:
            return
        B = A[:, S[k:]]
        R12 = Q.T.dot(B)
        B = B - Q.dot(R12)
        again = Q.T.dot(B)
        B -= Q.dot(again)
        R12 += again
        Q2, R22 = np.linalg.qr(B)
        diag = np.abs(np.diagonal(R22))
        scale = max(diag.max(), 1.0 / np.abs(np.diagonal(R_inv)).min(initial=np.inf))
        small = np.flatnonzero(diag <= max(m, s) * _EPS * scale)
        j = small[0] if small.size else min(m, s) - k
        grown = np.zeros((k + j, k + j))
        grown[:k, :k] = R_inv
        grown[k:, k:] = np.linalg.inv(R22[:j, :j])
        grown[:k, k:] = -R_inv.dot(R12[:, :j]).dot(grown[k:, k:])
        self.Q, self.R_inv = np.column_stack((Q, Q2[:, :j])), grown
        if k + j < s:
            d = np.zeros(s)
            d[: k + j] = grown.dot(np.concatenate((R12[:, j], R22[:j, j])))
            d[k + j] = -1.0
            self.null = d

    def solve(self, c: np.ndarray, radius: float, lin: np.ndarray, kappa: float, bound: float | None):
        """The face system's solution ``(x_S, kappa, nu)``; ``x_S`` is None where no ``kappa > 0`` solves it.

        ``x_S = R^{-1}(Q'c - R^{-T}(lin + nu*theta)/kappa)`` with ``lin =
        v_S + gamma*theta``, at the fidelity scale ``kappa`` that
        :func:`_fidelity_scale` solves for from the last face's, and
        ``nu = 0`` unless ``theta'x_S`` then exceeds ``bound``: the l1 ball
        binds, ``theta'x_S = bound`` gives ``nu`` linear in ``kappa``, and
        ``kappa`` is solved for again.
        """
        R_inv, theta = self.R_inv, self.theta
        Qc = self.Q.T.dot(c)
        p = R_inv.T.dot(lin)
        E = norm(self.Q.dot(Qc) - c) ** 2 if radius else 0.0
        kappa = _fidelity_scale(E, p.dot(p), radius, kappa)
        if kappa is None:
            return None, None, 0.0
        y = R_inv.dot(Qc - p / kappa)
        if bound is None or theta.dot(y) <= bound:
            return y, kappa, 0.0
        # With q = R^{-T}theta, theta'x_S = bound gives nu = kappa*alpha - beta,
        # and then rho^2 = E + alpha^2*q'q + ||p - beta*q||^2/kappa^2.
        q = R_inv.T.dot(theta)
        qq = q.dot(q)
        alpha, beta = (q.dot(Qc) - bound) / qq, q.dot(p) / qq
        kappa = _fidelity_scale(E + alpha * alpha * qq, norm(p - beta * q) ** 2, radius, kappa)
        if kappa is None:
            return None, None, 0.0
        nu = kappa * alpha - beta
        return R_inv.dot(Qc - (p + nu * q) / kappa), kappa, nu


def _fidelity_scale(E: float, s2: float, radius: float, kappa: float) -> float | None:
    """The fidelity's scale ``kappa = 1 - radius/rho`` on a face where ``rho^2 = E + s2/kappa^2``.

    With ``1/kappa = 1 + u`` the condition reads ``u*rho/(1 + u) = radius``,
    whose left side increases with ``u >= 0``: Newton steps from the last
    face's ``kappa``, kept in the bracket ``[0, radius/sqrt(s2)]`` by
    bisection.  None where no ``kappa > 0`` solves it: ``Ax`` lies in ``Q``.
    """
    if radius == 0.0:
        return 1.0
    if s2 == 0.0:
        rho = math.sqrt(E)
        return 1.0 - radius / rho if rho > radius else None
    lo, hi = 0.0, radius / math.sqrt(s2)
    u = min(1.0 / kappa - 1.0, hi)
    for _ in range(100):
        y = 1.0 + u
        rho = math.sqrt(E + s2 * y * y)
        f = u * rho / y - radius
        if f > 0.0:
            hi = u
        elif f < 0.0:
            lo = u
        else:
            break
        du = f / (rho / (y * y) + u * s2 / rho)
        if abs(du) <= 4.0 * _EPS * u:
            break
        u -= du
        if not lo < u < hi:
            u = 0.5 * (lo + hi)
    return 1.0 / (1.0 + u)


def _solve_point_lasso(
    spec: SubproblemSpec, x0, opts: InnerOptions | None = None, face: Face | None = None
) -> SolveResult:
    """Exact solve of the subproblem on ``C = R^n`` or an l1 ball ``||x||_1 <= t``, with ``Q = B(c, radius)``.

    Feature-sign search (Lee, Battle, Raina & Ng, NIPS 2006) from ``x0``:
    the support ``S = supp(x0)`` and the signs ``theta = sign(x0)`` fix a
    face.  Where ``rho = ||Ax - c|| > radius`` the fidelity's gradient is
    the point target's scaled by ``kappa = 1 - radius/rho`` (1 on a point), and
    an l1 ball that binds raises gamma by its multiplier ``nu >= 0`` (0
    elsewhere), so one iteration (a pivot) solves the face system
    ``A_S'A_S x_S = A_S'c - (v_S + (gamma + nu)*theta_S)/kappa`` from the
    face's QR factor ``A_S = QR``, never forming ``A_S'A_S``
    (:meth:`Face.solve`).  The factor is bordered when a column joins ``S``
    and downdated when columns leave it: only the columns after the first
    that leaves are factored again.  If a sign breaks, the pivot moves to
    the point of lowest objective (in ``C``) among the zero crossings of
    the segment and the face solution, and drops the coordinates that reach
    zero.  Where ``A_S`` has no full column rank, the objective is linear
    along a null direction of ``A_S``, and the pivot steps along it,
    downhill, until a coordinate reaches zero.  Once the face is solved
    with its signs held, the pivot tests every column outside ``S`` against
    ``|g_j| <= gamma + nu + opts.tol``, with ``g = A'(Ax - P_Q(Ax)) + v``,
    and adds the worst violator with the sign ``-sign(g_j)``; with none
    left the solve ends ``CONVERGED``, where the face and its
    ``(kappa, nu)`` both hold.  The record's ``grad_residual`` is the
    largest violation of the optimality conditions there.

    ``face``, a :class:`Face` of ``spec.base.A``, is changed in place: the
    solve starts on its factor where its columns are ``supp(x0)`` (see
    :meth:`Face.start`), and leaves it on the face it ends on.  Without one
    the solve factors ``A_S`` anew.

    Reads ``opts.outer_max`` (the pivot cap, ending ``MAX_ITERATIONS``) and
    ``opts.tol`` only; needs no ``||A||``.  It also ends ``MAX_ITERATIONS``,
    with a message, where a face's minimizer has ``Ax`` in ``Q`` (no
    ``kappa > 0`` solves its condition) and where a null direction reaches
    the l1 ball's boundary first.  A non-finite face solve ends it
    ``DIVERGED``, as does a null direction along which no coordinate
    reaches zero: the objective is unbounded below there, which
    ``|v_j| <= gamma`` (so every DCA step's ``v``) rules out but for
    rounding.
    """
    if opts is None:
        opts = InnerOptions()
    P = spec.base
    A, c, radius, v, gamma = P.A, P.Q.center, P.Q.radius, spec.v, P.gamma
    bound = P.C.radius if isinstance(P.C, L1Ball) else None
    x, message = start_point(P, x0)
    if face is None:
        face = Face(A)
    face.start(x)
    violation, kappa, nu = 0.0, 1.0, 0.0

    def face_step(x_S):
        """The pivot's move on the face: the new ``x_S`` and whether the signs held, or a Stop."""
        nonlocal kappa, nu
        S, theta = face.S, face.theta
        lin = v[S] + gamma * theta
        if face.null is not None:
            d, A_S = face.null, A[:, S]
            r = A_S.dot(x_S)
            r -= P.Q.project(r)
            slope = (A_S.T.dot(r) + lin).dot(d)
            if slope > 0.0 or (slope == 0.0 and not np.any(theta * d < 0.0)):
                d = -d
            hits = np.flatnonzero(theta * d < 0.0)
            t = -x_S[hits] / d[hits]
            reach = t.min() if hits.size else np.inf
            if bound is not None and reach * theta.dot(d) > bound - theta.dot(x_S):
                return Stop(Status.MAX_ITERATIONS, "a null direction reaches the l1 ball's boundary")
            if not hits.size:
                return Stop(Status.DIVERGED, "no coordinate of a null direction reaches zero")
            x_S = x_S + t.min() * d
            x_S[hits[t == t.min()]] = 0.0
            return x_S, False
        y, kappa, nu = face.solve(c, radius, lin, kappa, bound)
        if y is None:
            return Stop(Status.MAX_ITERATIONS, "Ax lands in Q")
        broken = np.flatnonzero(theta * y < 0.0)
        if not broken.size:
            return y, True
        crossings = x_S[broken] / (x_S[broken] - y[broken])
        ts = np.append(np.unique(crossings), 1.0)
        points = x_S + ts[:, None] * (y - x_S)
        residuals = points.dot(A[:, S].T)
        residuals -= c
        fit = np.square(residuals).sum(1)
        if radius:
            fit = np.square(np.maximum(np.sqrt(fit) - radius, 0.0))
        l1 = np.abs(points).sum(1)
        values = 0.5 * fit + points.dot(v[S]) + gamma * l1
        if bound is not None:
            # The first crossing lies in the ball but for rounding.
            values[l1 > bound * (1.0 + S.size * _EPS)] = np.inf
        best = int(np.argmin(values))
        x_S = points[best]
        x_S[broken[crossings == ts[best]]] = 0.0
        return x_S, False

    def step(k, x):
        nonlocal violation, nu
        x_next = x.copy()
        held, nu = True, 0.0
        if face.S.size:
            moved = face_step(x[face.S])
            if isinstance(moved, Stop):
                return None, 0.0, moved
            x_S, held = moved
            x_next[face.S] = x_S
            if not held:
                kept = x_S != 0.0
                if not kept.all():
                    face.drop(kept)
                face.theta = np.sign(x_S[kept])
        move = norm(x_next - x)
        if not held:
            return x_next, move, None
        S = face.S
        g = spec.smooth_gradient(x_next)
        excess = np.abs(g)
        excess -= gamma + nu
        excess[S] = -np.inf
        j = int(np.argmax(excess))
        violation = max(float(excess[j]), float(np.max(np.abs(g[S] + (gamma + nu) * face.theta), initial=0.0)), 0.0)
        if excess[j] <= opts.tol:
            return x_next, move, Stop(Status.CONVERGED)
        face.grow(j, -np.sign(g[j]))
        return x_next, move, None

    return _run_inner(spec, x, step, opts, message, lambda move: violation)
