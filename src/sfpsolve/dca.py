"""Difference-of-convex outer loop for the l1-l2 regularized problem.

The objective splits as (convex fidelity + gamma*||.||_1 + indicator of C)
minus the concave part gamma*||.||_2.  Each step linearizes the concave part
at the current iterate (subgradient ``x/||x||_2``, zero at the origin) and
minimizes the resulting convex majorizer: exactly (:mod:`sfpsolve.face`) on
C = R^n or an l1 ball with a point or ball target, and with the
:mod:`sfpsolve.inner` solver ``dr-in-fb`` on all columns elsewhere, unless
another is named.  The objective sequence is monotonically non-increasing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .face import Face, _solve_point_lasso
from .inner import INNER_SOLVERS, InnerOptions, SubproblemSpec
from .linops import check_count, check_positive, norm
from .problem import (
    ProblemSpec,
    SolveResult,
    Status,
    Stop,
    columns_and_gradient,
    iterate,
    overflow_stop,
    start_point,
)
from .sets import Ball, FullSpace, L1Ball

__all__ = ["DcaOptions", "dca_step", "solve_dca"]

_DISCARDED = "inner result discarded: no majorizer improvement"
_FELL_BACK = "exact inner solve fell back to dr-in-fb"


@dataclass
class DcaOptions:
    """Outer-loop controls.

    ``inner_solver`` names an ``INNER_SOLVERS`` entry, which then solves
    every subproblem on all columns.  The default, ``None``, solves exactly
    where ``C`` is ``R^n`` or an l1 ball and ``Q`` a ball of any radius (a
    point, such as a singleton, included), by feature-sign search
    (:func:`sfpsolve.face._solve_point_lasso`), and with ``dr-in-fb`` on
    every other problem.  ``zero_tol`` decides when an iterate counts as the
    zero vector for the concave-part subgradient; ``None`` resolves to
    ``1e-12 * (1 + ||x0||)``, with a norm that does not overflow where
    ``||x0||^2`` does.
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
        # linops.norm rescales where ||x||^2 overflows; its first try warns.
        with np.errstate(over="ignore"):
            return 1e-12 * (1.0 + norm(x))


def _resolved_inner(opts: DcaOptions) -> InnerOptions:
    tol = min(opts.inner.tol, opts.step_tol / 10.0)
    return replace(opts.inner, tol=tol)


def _exact_applies(P: ProblemSpec, opts: DcaOptions) -> bool:
    """Whether :func:`dca_step` solves ``P`` exactly: the default solver, C = R^n or an l1 ball, a ball Q."""
    return opts.inner_solver is None and isinstance(P.C, (FullSpace, L1Ball)) and isinstance(P.Q, Ball)


def dca_step(
    P: ProblemSpec,
    x_k,
    opts: DcaOptions | None = None,
    *,
    _op_norm: float | None = None,
    _face: Face | None = None,
) -> SolveResult:
    """One majorize-minimize step from ``x_k``.

    Builds the subproblem with linear term ``v = -gamma * x_k / ||x_k||_2``
    (``v = 0`` when ``||x_k|| <= opts.zero_tol``, resolved at ``x_k``) and
    solves it warm-started at ``x_k``.  With the default ``inner_solver``
    on C = R^n or an l1 ball ``||x||_1 <= t``, with a ball target
    ``Q = B(c, R)`` (``R = 0``, a point, included), the subproblem is solved
    exactly on all columns by feature-sign search: pivots from
    ``supp(x_k)`` and ``sign(x_k)``, each a face solve through the QR
    factor of ``A_S`` at the face's fidelity scale
    ``kappa = 1 - R/||Ax - c||`` and, where the l1 ball binds, its
    multiplier ``nu``, until no column violates
    ``|g_j| <= gamma + nu + tol`` (``g = A'(Ax - P_Q(Ax)) + v``,
    ``tol = min(inner.tol, step_tol/10)``), capped at ``inner.outer_max``
    pivots.  The factor is bordered when a column joins the face and
    downdated when columns leave it (:class:`~sfpsolve.face.Face`).  If
    that solve does not converge (at the cap, where a face's minimizer has
    ``Ax`` in ``Q``, on a non-finite face solve, or on a null direction it
    cannot follow), the step falls back to ``dr-in-fb`` on all columns
    from ``x_k``, and its message names the fallback and its reason.  On
    every other problem the step makes one ``dr-in-fb`` solve on all
    columns from ``x_k``; a named ``inner_solver`` makes that one solve on
    every problem.

    If the inner result fails to improve the majorizer, the step
    returns ``x_k`` unchanged, which keeps the outer objective sequence
    non-increasing unconditionally.  A finite ``x_k`` whose squared norm
    overflows a float is returned ``DIVERGED`` at once
    (:func:`~sfpsolve.problem.overflow_stop`).

    ``_face``, from :func:`solve_dca`, is the face the last step's exact
    solve converged on.  The exact solve starts on its factor where its
    columns are ``supp(x_k)``, with ``theta = sign(x_k)`` read anew, and
    leaves in it the face it ends on.  A fallback or a discarded result
    empties it, so the next step factors its face anew.  A bare step
    factors its own.
    """
    if opts is None:
        opts = DcaOptions()
    x_k = np.asarray(x_k, dtype=float)
    stop = overflow_stop(x_k)
    if stop is not None:
        return SolveResult(x=x_k.copy(), status=stop.status, message=stop.message)
    zero_tol = opts.resolve_zero_tol(x_k)
    norm_x = norm(x_k)
    if norm_x <= zero_tol:
        v = np.zeros_like(x_k)
    else:
        v = -P.gamma * (x_k / norm_x)
    spec = SubproblemSpec(base=P, v=v, _op_norm=_op_norm)
    inner_opts, inner, note = _resolved_inner(opts), None, ""
    if _exact_applies(P, opts):
        inner = _solve_point_lasso(spec, x_k, inner_opts, _face)
        if inner.status is not Status.CONVERGED:
            note = f"{_FELL_BACK}: {inner.message or 'pivots reached outer_max'}"
            inner = None
    if inner is None:
        inner = INNER_SOLVERS[opts.inner_solver or "dr-in-fb"](spec, x_k, inner_opts)
        inner.message = "; ".join(m for m in (note, inner.message) if m)
    # Majorizer safeguard: the subproblem objective dominates the true
    # objective and touches it at x_k, so refusing a non-improving inner
    # result preserves monotone descent.
    stands = spec.objective(inner.x) <= spec.objective(x_k)
    if not stands:
        inner.x = x_k.copy()
        inner.message = "; ".join(m for m in (inner.message, _DISCARDED) if m)
    if _face is not None and (note or not stands):
        # Only the face of an exact result that stands goes on to the next step.
        _face.clear()
    return inner


def solve_dca(P: ProblemSpec, x0, opts: DcaOptions | None = None) -> SolveResult:
    """Run the outer loop from ``x0`` (projected onto ``C`` if needed).

    Each step is a :func:`dca_step`.  With the default ``inner_solver``,
    on C = R^n or an l1 ball with a point or ball target, it solves its
    subproblem exactly by feature-sign search, on all columns and with no
    ``||A||``; where that solve does not converge it falls back to
    ``dr-in-fb``.  Each exact solve hands the QR factor of the face it
    converged on to the next step, which starts on that face, since its
    columns are ``supp(x_k)``: a run factors a whole face only at its
    first step, after a fallback, or where the column that leaves a face
    is its first.  Every other step makes one inner solve on all columns.
    ``||A||`` is read once, from the problem's cache, for those solves; it
    is read on every problem, the exact path's included.

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
    fell back to ``dr-in-fb``, the steps whose inner solve ran out of
    ``outer_max`` and the discarded step.  The exact solve's inner
    iterations are pivots.
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
    # The face each exact solve converges on, which the next step starts on.
    face = Face(P.A) if exact else None
    capped, discarded, fell_back = [], [], []

    def step(k, x):
        inner = dca_step(P, x, opts, _op_norm=op_norm, _face=face)
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
