"""Difference-of-convex outer loop for the l1-l2 regularized problem.

The objective splits as (convex fidelity + gamma*||.||_1 + indicator of C)
minus the concave part gamma*||.||_2.  Each step linearizes the concave part
at the current iterate (subgradient ``x/||x||_2``, zero at the origin) and
minimizes the resulting convex majorizer with one of the subproblem solvers
from :mod:`sfpsolve.inner`: exactly on C = R^n with a point target, and
with ``dr-in-fb`` elsewhere, unless another is named.  The objective
sequence is monotonically non-increasing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .inner import INNER_SOLVERS, InnerOptions, SubproblemSpec, _solve_point_lasso
from .linops import check_count, check_positive, norm
from .problem import (
    ProblemSpec,
    SolveResult,
    Status,
    Stop,
    columns_and_gradient,
    iterate,
    start_point,
)
from .sets import Ball, FullSpace, L1Ball, NonnegativeOrthant

__all__ = ["DcaOptions", "dca_step", "solve_dca"]

_DISCARDED = "inner result discarded: no majorizer improvement"
_FELL_BACK = "exact inner solve fell back to dr-in-fb"


@dataclass
class DcaOptions:
    """Outer-loop controls.

    ``inner_solver`` names an ``INNER_SOLVERS`` entry, which then solves
    every subproblem.  The default, ``None``, solves exactly where ``C`` is
    ``R^n`` and ``Q`` a point (a ball of radius 0, such as a singleton), by
    feature-sign search (:func:`sfpsolve.inner._solve_point_lasso`), and
    with ``dr-in-fb`` on every other problem.  ``zero_tol`` decides when an
    iterate counts as the zero vector for the concave-part subgradient;
    ``None`` resolves to ``1e-12 * (1 + ||x0||)``.
    The inner tolerance is tightened to ``min(inner.tol, step_tol / 10)`` so
    the descent property survives inexact subproblem solves.
    """

    inner_solver: str | None = None
    inner: InnerOptions = field(default_factory=InnerOptions)
    max_outer: int = 1000
    step_tol: float = 1e-5
    zero_tol: float | None = None

    def __post_init__(self):
        if self.inner_solver is not None and self.inner_solver not in INNER_SOLVERS:
            raise ValueError(
                f"unknown inner solver {self.inner_solver!r}; "
                f"choose from {sorted(INNER_SOLVERS)}"
            )
        check_count(self.max_outer, "max_outer")
        check_positive(self.step_tol, "step_tol")
        if self.zero_tol is not None:
            check_positive(self.zero_tol, "zero_tol", zero=True)

    def resolve_zero_tol(self, x: np.ndarray) -> float:
        if self.zero_tol is not None:
            return self.zero_tol
        return 1e-12 * (1.0 + float(np.linalg.norm(x)))


def _resolved_inner(opts: DcaOptions) -> InnerOptions:
    tol = min(opts.inner.tol, opts.step_tol / 10.0)
    return replace(opts.inner, tol=tol)


def _exact_applies(P: ProblemSpec, opts: DcaOptions) -> bool:
    """Whether :func:`dca_step` solves on ``P`` exactly: the default solver, ``C = R^n`` and a point ``Q``."""
    return (
        opts.inner_solver is None
        and isinstance(P.C, FullSpace)
        and isinstance(P.Q, Ball)
        and P.Q.radius == 0.0
    )


def _l1_ball_multiplier(g: np.ndarray, x: np.ndarray, gamma: float) -> float:
    """The l1 ball's multiplier ``nu`` read off the support of ``x``, where ``g`` is the smooth gradient.

    Where the subproblem's KKT conditions hold on ``supp(x)``, each support
    coordinate has ``-g_i*sign(x_i) = gamma + nu``; the least of these,
    clipped at 0, is the estimate.  It is 0 at the origin, inside the ball.
    """
    support = np.flatnonzero(x)
    if not support.size:
        return 0.0
    return max(0.0, float(np.min(-g[support] * np.sign(x[support]))) - gamma)


def _working_set_solve(spec: SubproblemSpec, x_k: np.ndarray, solve, opts: InnerOptions):
    """Solve ``spec`` in rounds on working sets of columns, as :func:`dca_step` describes.

    Returns None where the step solves on all columns instead.  ``opts`` is
    the resolved inner options, whose ``tol`` the column test adds to gamma.
    """
    P = spec.base
    orthant, ball = isinstance(P.C, NonnegativeOrthant), isinstance(P.C, L1Ball)
    if not (orthant or ball or isinstance(P.C, FullSpace)):
        return None
    W = np.flatnonzero(x_k)
    if 2 * W.size >= P.m:
        return None
    x, rounds, nu = x_k, [], 0.0
    while True:
        g = spec.smooth_gradient(x)
        if ball and rounds:
            nu = _l1_ball_multiplier(g, x, P.gamma)
        excess = -g if orthant else np.abs(g)
        excess -= P.gamma + nu + opts.tol
        excess[W] = 0.0
        violators = np.flatnonzero(excess > 0.0)
        if rounds and not violators.size:
            break
        worst = violators[np.argsort(-excess[violators], kind="stable")[: max(10, W.size)]]
        W = np.union1d(W, worst)
        block = P.A[:, W]
        if not W.size or 2 * W.size >= P.m or not block.any():
            return None
        C_W = L1Ball(P.C.radius, W.size) if ball else type(P.C)(W.size)
        restricted = SubproblemSpec(base=ProblemSpec(block, C_W, P.Q, P.gamma), v=spec.v[W])
        rounds.append(solve(restricted, x[W], opts))
        x = np.zeros_like(x_k)
        x[W] = rounds[-1].x
    statuses = {r.status for r in rounds}
    status = next((s for s in (Status.DIVERGED, Status.MAX_ITERATIONS) if s in statuses), rounds[-1].status)
    record = replace(rounds[-1].trace[-1], k=sum(r.iterations for r in rounds))
    message = "; ".join(dict.fromkeys(r.message for r in rounds if r.message))
    return SolveResult(x=x, status=status, trace=[record], message=message)


def dca_step(
    P: ProblemSpec,
    x_k,
    opts: DcaOptions | None = None,
    *,
    _op_norm: float | None = None,
) -> SolveResult:
    """One majorize-minimize step from ``x_k``.

    Builds the subproblem with linear term ``v = -gamma * x_k / ||x_k||_2``
    (``v = 0`` when ``||x_k|| <= opts.zero_tol``, resolved at ``x_k``) and
    solves it warm-started at ``x_k``.  With the default ``inner_solver``
    on C = R^n and a point target ``Q = {b}``, the subproblem is a Lasso,
    solved exactly on all columns by feature-sign search: pivots from
    ``supp(x_k)`` and ``sign(x_k)``, each a face solve through a QR
    factorization of ``A_S``, until no column violates
    ``|g_j| <= gamma + tol``, capped at ``inner.outer_max`` pivots.  If
    that solve does not converge (at the cap, or on a non-finite face
    solve), the step falls back to ``dr-in-fb`` from ``x_k``, as below, and
    its message names the fallback.

    Otherwise, on C = R^n, the orthant and an l1 ball the subproblem is
    solved on a working set of columns: ``supp(x_k)`` plus the worst
    violators of the per-column optimality test ``|g_j| <= gamma + tol``
    (``g_j >= -(gamma + tol)`` on the orthant, ``|g_j| <= gamma + nu + tol``
    on the ball ``||x||_1 <= t``), where ``g = A'(Ax - P_Q(Ax)) + v``,
    ``tol = min(inner.tol, step_tol/10)`` and ``nu`` is the ball's
    multiplier: 0 at ``x_k``, and ``max(0, min -g_i*sign(x_i) - gamma)``
    over the support of each round's result.  Each round runs the inner
    solver on ``A[:, W]`` (on the ball, the l1 ball of radius ``t`` in
    ``|W|`` coordinates) with a step from the exact ``||A[:, W]||``, then
    tests every column outside ``W`` at the embedded point and adds up to
    ``max(10, |W|)`` of the worst violators, until none is left.  On the
    100 x 256 desk instances with k = 10, a ``dr-in-fb`` step ran 1-4 rounds
    of 10-41 columns on R^n and 1-3 rounds of 10-40 columns on an l1 ball.  The
    returned iterations sum over the rounds, and the status is
    ``MAX_ITERATIONS`` if any round ran out of ``outer_max``.  The
    subproblem is solved on all columns instead, as one solve from ``x_k``,
    when ``C`` is another set (a ball or a box), when ``W`` is empty or its
    columns are all zero, or when ``W`` reaches ``m/2`` columns (tested on
    ``supp(x_k)`` before any other work): with supports near ``m`` columns
    the rounds cost more than one full solve.

    If the inner result fails to improve the majorizer, the step
    returns ``x_k`` unchanged, which keeps the outer objective sequence
    non-increasing unconditionally.
    """
    if opts is None:
        opts = DcaOptions()
    x_k = np.asarray(x_k, dtype=float)
    zero_tol = opts.resolve_zero_tol(x_k)
    norm_x = norm(x_k)
    if norm_x <= zero_tol:
        v = np.zeros_like(x_k)
    else:
        v = -P.gamma * (x_k / norm_x)
    spec = SubproblemSpec(base=P, v=v, _op_norm=_op_norm)
    inner_opts, inner, note = _resolved_inner(opts), None, ""
    if _exact_applies(P, opts):
        inner = _solve_point_lasso(spec, x_k, inner_opts)
        if inner.status is not Status.CONVERGED:
            note = f"{_FELL_BACK}: {inner.message or 'pivots reached outer_max'}"
            inner = None
    if inner is None:
        solve = INNER_SOLVERS[opts.inner_solver or "dr-in-fb"]
        inner = _working_set_solve(spec, x_k, solve, inner_opts)
        if inner is None:
            inner = solve(spec, x_k, inner_opts)
        inner.message = "; ".join(m for m in (note, inner.message) if m)
    # Majorizer safeguard: the subproblem objective dominates the true
    # objective and touches it at x_k, so refusing a non-improving inner
    # result preserves monotone descent.
    if spec.objective(inner.x) > spec.objective(x_k):
        inner.x = x_k.copy()
        inner.message = "; ".join(m for m in (inner.message, _DISCARDED) if m)
    return inner


def solve_dca(P: ProblemSpec, x0, opts: DcaOptions | None = None) -> SolveResult:
    """Run the outer loop from ``x0`` (projected onto ``C`` if needed).

    Each step is a :func:`dca_step`.  With the default ``inner_solver``, on
    C = R^n with a point target it solves its subproblem exactly by
    feature-sign search, on all columns and with no ``||A||``; where that
    solve does not converge (at ``inner.outer_max`` pivots, or on a
    non-finite face solve) it falls back to ``dr-in-fb``.  Otherwise, on C = R^n, the orthant and an
    l1 ball it solves its subproblem in rounds on a working set of columns:
    ``supp(x_k)`` plus the worst violators of ``|g_j| <= gamma + tol``
    (``g_j >= -(gamma + tol)`` on the orthant; on the ball, ``gamma + nu +
    tol`` with ``nu`` its multiplier, read off each round's support), each
    round with the step of the exact norm of its m x |W| block, until no
    column outside the set violates the test.  It solves on all columns
    instead on any other ``C``, when the set is empty or its columns are
    all zero, and when the set reaches ``m/2`` columns.  ``||A||`` is read
    once, from the problem's cache, for the full-size solves; it is read on
    every problem, the exact path's included.

    Stops when the step norm drops to ``step_tol`` (``CONVERGED``), when two
    consecutive iterates are both zero and ``C`` contains the origin
    (``ZERO_STATIONARY``: the origin is a fixed point of the scheme, and the
    step moves to it, so the run records the origin it returns), or at
    ``max_outer`` iterations.  A step whose inner result the majorizer
    safeguard discards ends the run as ``MAX_ITERATIONS`` at the last
    recorded iterate, unless the inner solve converged at its first
    iteration, or was the exact solve (not its fallback): then ``x_k`` is a
    fixed point to the inner tolerance, since the exact result passes the
    column test, so rounding made the refusal; the step moves 0 and the run
    ends ``CONVERGED`` at ``x_k``.  Status and iterate are
    :func:`problem.iterate`'s; the message adds the steps whose exact solve
    fell back to ``dr-in-fb``, the steps whose inner solve (any of its
    rounds) ran out of ``outer_max`` and the discarded step.  A step's inner
    iterations sum over its rounds; the exact solve's are pivots.
    """
    if opts is None:
        opts = DcaOptions()
    x, message = start_point(P, x0)
    # One threshold for the run, resolved at its start and handed to every step.
    opts = replace(opts, zero_tol=opts.resolve_zero_tol(x))
    # ||A|| from the problem's cache (computed at most once per problem),
    # handed to every step's inner solver.
    op_norm = P.op_norm
    exact = _exact_applies(P, opts)
    capped, discarded, fell_back = [], [], []

    def step(k, x):
        inner = dca_step(P, x, opts, _op_norm=op_norm)
        if inner.status is Status.MAX_ITERATIONS:
            capped.append(k)
        if _FELL_BACK in inner.message:
            fell_back.append(k)
        if _DISCARDED in inner.message:
            if inner.status is Status.CONVERGED and (
                inner.iterations == 1 or exact and _FELL_BACK not in inner.message
            ):
                # x's own first inner step moved within the inner tolerance,
                # or the exact solve's result passed the optimality test: x
                # is a DCA fixed point to the inner tolerance and rounding
                # made the refusal, so the run converges at x.
                return inner.x, 0.0, None
            # The step returned x unchanged, and a retry from x would repeat
            # the same inner solve: the run has stalled, not converged.
            discarded.append(k)
            return None, 0.0, Stop(Status.MAX_ITERATIONS)
        x_next = inner.x
        if max(norm(x), norm(x_next)) <= opts.zero_tol and P.C.contains(np.zeros_like(x)):
            return np.zeros_like(x), norm(x), Stop(Status.ZERO_STATIONARY)
        return x_next, norm(x_next - x), None

    def monitor(k, x, move):
        return {**columns_and_gradient(P, x, P.C.contains(x))[0], "l1_norm": float(np.abs(x).sum())}

    result = iterate(x, step, monitor, opts.max_outer, opts.step_tol, message=message)
    notes = [
        f"{what} at steps {', '.join(map(str, steps))}"
        for what, steps in (
            ("exact inner solve fell back", fell_back),
            ("inner solve hit outer_max", capped),
            ("inner result discarded", discarded),
        )
        if steps
    ]
    result.message = "; ".join(m for m in (result.message, *notes) if m)
    return result
