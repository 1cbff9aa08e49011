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
  ``step_fraction``) whose prox of the constrained l1 term is computed by a
  short inner Douglas-Rachford loop, exact after one iteration on every set
  but an off-centre ball.  :mod:`sfpsolve.dca` uses it by default wherever
  the exact solve below does not apply.

Both converge to the same minimizer of the convex subproblem; they serve as
mutual cross-checks in the test suite.

With ``C = R^n`` and a point target ``Q = {b}`` (a ball of radius 0) the
subproblem is a Lasso with a linear term, and :func:`_solve_point_lasso`
solves it exactly by feature-sign search, an active-set method.
:mod:`sfpsolve.dca` uses it by default there.  It is not an
``INNER_SOLVERS`` entry: a named inner solver runs on every problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linops import as_vector, check_count, check_positive, inflated_op_norm, norm, squared_op_norm
from .problem import ProblemSpec, SolveResult, Status, Stop, iterate, sfp_residual_value, start_point
from .prox import fista_momentum, soft_threshold
from .sets import projected_shrink_is_prox

_EPS = float(np.finfo(float).eps)

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
    """Parameters shared by both subproblem solvers.

    ``kappa`` is the Douglas-Rachford scale of :func:`solve_fb_in_dr` and
    defaults to the subproblem's l1 weight.  ``tau`` is the DR relaxation in
    (0, 2) and ``lambda_relax`` the relaxation in (0, 1] of
    :func:`solve_fb_in_dr`'s inner forward-backward steps.
    ``step_fraction`` is the fraction of the step bound actually used:
    ``1/||A||^2`` for :func:`solve_dr_in_fb`'s accelerated steps and
    ``2/(kappa*||A||^2)`` for :func:`solve_fb_in_dr`'s inner steps.  The
    inner budget per outer step grows as ``min(budget_base + k,
    budget_cap)``.  :func:`solve_dr_in_fb` reads neither ``kappa`` nor
    ``lambda_relax``; its prox is exact after one DR iteration unless ``C``
    is a ball of positive radius with a nonzero centre, so ``tau`` and the
    budget ramp matter there only on such a ball.

    ``tol`` is measured on the iterate displacement divided by the solver's
    step scale (the gradient step for the forward-backward outer loop, the
    DR scale for the other), which makes it a first-order-error quantity:
    stopping at ``tol`` leaves a subproblem optimality residual of that
    order regardless of ``||A||``.  Each solve records only its last iterate.

    Only ``outer_max``, as its pivot cap, and ``tol``, as the slack of its
    column test ``|g_j| <= gamma + tol``, reach the exact solve
    :func:`_solve_point_lasso`.
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

    return _run_inner(spec, y_half, step, kappa, opts, message)


def _run_inner(spec, x, step, scale, opts, message) -> SolveResult:
    """Drive an inner solver to ``move <= opts.tol * scale``; its residual column is ``move / scale``."""

    def monitor(k, x, move):
        return {
            "objective": spec.objective(x),
            "grad_residual": move / scale,
            "sfp_residual": sfp_residual_value(spec.base, x),
        }

    return iterate(x, step, monitor, opts.outer_max, opts.tol * scale, record_trace=False, message=message)


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
    """Accelerated forward-backward outer loop with Douglas-Rachford inner iterations.

    Each outer step is a prox-gradient step of size
    ``opts.step_fraction/||A||^2`` on the smooth fidelity-plus-linear block,
    taken at the extrapolated point ``y = x_k + beta_k*(x_k - x_{k-1})``
    of FISTA with gradient restart (see :func:`~sfpsolve.prox.fista_momentum`).
    The prox of the constrained l1 block is approximated by up to ``M_k``
    Douglas-Rachford iterations with an early exit at its fixed point.  The
    first DR half point is ``P_C(soft_threshold(a, thresh))``, which is the
    exact prox unless ``C`` is a ball of positive radius with a nonzero
    centre (see :func:`~sfpsolve.sets.projected_shrink_is_prox`); on every
    other set ``M_k = 1``.  The iterates ``x_k`` stay in ``C``; ``y`` need
    not.  Ignores ``kappa`` and ``lambda_relax``.
    """
    if opts is None:
        opts = InnerOptions()
    P = spec.base
    gstep = opts.step_fraction / squared_op_norm(spec._a_norm())
    thresh = gstep * P.gamma
    exact = projected_shrink_is_prox(P.C)

    x, message = start_point(P, x0)
    y, theta = x, 1.0

    def step(k, x):
        nonlocal y, theta
        # w = y - gstep*g in place, then the prox of the l1 block at w.
        w = spec.smooth_gradient(y)
        w *= gstep
        np.subtract(y, w, out=w)
        budget = 1 if exact else opts.budget(k - 1)
        x_next, _ = _constrained_l1_prox_dr(w, thresh, P.C, budget, opts.tau)
        move = x_next - x
        theta, beta = fista_momentum(theta, (y - x_next).dot(move))
        y = x_next + beta * move if beta else x_next
        return x_next, norm(move), None

    return _run_inner(spec, x, step, gstep, opts, message)


def _factor_face(A_S: np.ndarray):
    """``(Q, R^{-1})`` of the reduced QR factorization ``A_S = QR``.

    Where ``A_S`` has no full column rank (a diagonal entry of ``R`` is
    negligible, or ``A_S`` has more columns than rows) returns ``(None, d)``
    instead, with ``A_S d = 0`` to rounding: ``d`` writes the first such
    column in terms of the columns before it.
    """
    m, s = A_S.shape
    Q, R = np.linalg.qr(A_S)
    diag = np.abs(np.diagonal(R))
    small = np.flatnonzero(diag <= max(m, s) * _EPS * diag.max())
    i = small[0] if small.size else min(m, s)
    if i < s:
        d = np.zeros(s)
        if i:
            d[:i] = np.linalg.solve(R[:i, :i], R[:i, i])
        d[i] = -1.0
        return None, d
    return Q, np.linalg.inv(R)


def _grow_face(Q: np.ndarray, R_inv: np.ndarray, a: np.ndarray):
    """:func:`_factor_face` of ``[A_S, a]`` from that of ``A_S``, by Gram-Schmidt run twice.

    Bordering ``R^{-1}`` costs ``O(s^2)``, against ``O(m*s^2)`` for a new
    factorization.  Where ``a`` lies in the span of ``Q`` the null
    direction is ``[R^{-1} Q'a, -1]``.
    """
    m, s = Q.shape
    r = Q.T.dot(a)
    w = a - Q.dot(r)
    r2 = Q.T.dot(w)
    w -= Q.dot(r2)
    r += r2
    rho = norm(w)
    if rho <= max(m, s + 1) * _EPS * norm(a):
        return None, np.append(R_inv.dot(r), -1.0)
    grown = np.zeros((s + 1, s + 1))
    grown[:s, :s] = R_inv
    grown[:s, s] = R_inv.dot(r)
    grown[:s, s] /= -rho
    grown[s, s] = 1.0 / rho
    return np.column_stack((Q, w / rho)), grown


def _solve_point_lasso(
    spec: SubproblemSpec, x0, opts: InnerOptions | None = None
) -> SolveResult:
    """Exact solve of the subproblem on ``C = R^n`` with a point target ``Q = {b}``.

    The subproblem is the Lasso ``0.5*||Ax - b||^2 + <v, x> + gamma*||x||_1``,
    solved by feature-sign search (Lee, Battle, Raina & Ng, NIPS 2006) from
    ``x0``: the support ``S = supp(x0)`` and the signs ``theta = sign(x0)``
    fix a face, on which one iteration (a pivot) solves
    ``A_S'A_S x_S = A_S'b - v_S - gamma*theta_S`` as
    ``x_S = R^{-1}(Q'b - R^{-T}(v_S + gamma*theta_S))`` from a QR
    factorization ``A_S = QR``, never forming ``A_S'A_S``.  The
    factorization is kept while ``S`` only grows (:func:`_grow_face`) and
    made again after a coordinate leaves ``S``.  If a sign breaks, the pivot
    moves to the point of lowest objective among the zero crossings of the
    segment and the face solution, and drops the coordinates that reach
    zero.  Where ``A_S`` has no full column rank, the objective is linear
    along a null direction of ``A_S``, and the pivot steps along it,
    downhill, until a coordinate reaches zero.  Once the face is solved with
    its signs held, the pivot tests every column outside ``S`` against
    ``|g_j| <= gamma + opts.tol``, with ``g = A'(Ax - b) + v``, and adds the
    worst violator with the sign ``-sign(g_j)``; with none left the solve
    ends ``CONVERGED``.  The record's ``grad_residual`` is the largest
    violation of the optimality conditions there.  Reads ``opts.outer_max``
    (the pivot cap, ending ``MAX_ITERATIONS``) and ``opts.tol`` only; needs
    no ``||A||``.  A non-finite face solve ends it ``DIVERGED``, as does a
    null direction along which no coordinate reaches zero: the objective is
    unbounded below there, which ``|v_j| <= gamma`` (so every DCA step's
    ``v``) rules out but for rounding.
    """
    if opts is None:
        opts = InnerOptions()
    P = spec.base
    A, b, v, gamma = P.A, P.Q.center, spec.v, P.gamma
    x, message = start_point(P, x0)
    S = np.flatnonzero(x)
    theta = np.sign(x[S])
    # _factor_face of A[:, S]: (Q, R^{-1}), or (None, d) with d a null
    # direction of A_S; None until the next pivot factors A[:, S] anew.
    face = None
    violation = 0.0

    def face_step(x_S, Q, R_inv):
        """The pivot's move on the face ``(S, theta)``: the new ``x_S``, and whether the signs held."""
        c = v[S] + gamma * theta
        if Q is None:
            d, A_S = R_inv, A[:, S]
            slope = (A_S.T.dot(A_S.dot(x_S) - b) + c).dot(d)
            if slope > 0.0 or (slope == 0.0 and not np.any(theta * d < 0.0)):
                d = -d
            hits = np.flatnonzero(theta * d < 0.0)
            if not hits.size:
                return None, False
            t = -x_S[hits] / d[hits]
            x_S = x_S + t.min() * d
            x_S[hits[t == t.min()]] = 0.0
            return x_S, False
        y = R_inv.dot(Q.T.dot(b) - R_inv.T.dot(c))
        broken = np.flatnonzero(theta * y < 0.0)
        if not broken.size:
            return y, True
        crossings = x_S[broken] / (x_S[broken] - y[broken])
        ts = np.append(np.unique(crossings), 1.0)
        points = x_S + ts[:, None] * (y - x_S)
        residuals = points.dot(A[:, S].T)
        residuals -= b
        values = 0.5 * np.square(residuals).sum(1) + points.dot(v[S]) + gamma * np.abs(points).sum(1)
        best = int(np.argmin(values))
        x_S = points[best]
        x_S[broken[crossings == ts[best]]] = 0.0
        return x_S, False

    def step(k, x):
        nonlocal S, theta, face, violation
        x_next = x.copy()
        held = True
        if S.size:
            if face is None:
                face = _factor_face(A[:, S])
            x_S, held = face_step(x[S], *face)
            if x_S is None:
                return None, 0.0, Stop(Status.DIVERGED, "no coordinate of a null direction reaches zero")
            x_next[S] = x_S
            if not held:
                kept = x_S != 0.0
                if not kept.all():
                    S, face = S[kept], None
                theta = np.sign(x_S[kept])
        move = norm(x_next - x)
        if not held:
            return x_next, move, None
        g = spec.smooth_gradient(x_next)
        excess = np.abs(g)
        excess -= gamma
        excess[S] = -np.inf
        j = int(np.argmax(excess))
        violation = max(float(excess[j]), float(np.max(np.abs(g[S] + gamma * theta), initial=0.0)), 0.0)
        if excess[j] <= opts.tol:
            return x_next, move, Stop(Status.CONVERGED)
        if face is not None:
            face = _grow_face(*face, A[:, j])
        S = np.append(S, j)
        theta = np.append(theta, -np.sign(g[j]))
        return x_next, move, None

    def monitor(k, x, move):
        return {
            "objective": spec.objective(x),
            "grad_residual": violation,
            "sfp_residual": sfp_residual_value(P, x),
        }

    return iterate(x, step, monitor, opts.outer_max, record_trace=False, message=message)


INNER_SOLVERS = {
    "fb-in-dr": solve_fb_in_dr,
    "dr-in-fb": solve_dr_in_fb,
}
