"""Problem specification, the regularized objective and stationarity residuals.

A problem instance bundles the measurement matrix ``A``, the constraint set
``C`` in the domain, the target set ``Q`` in the range and the regularization
weight ``gamma``.  The objective shared by all solvers is

    0.5*||Ax - P_Q(Ax)||^2 + gamma*(||x||_1 - ||x||_2)   for x in C,

and +inf outside ``C``.
"""

from __future__ import annotations

import enum
import functools
import math
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .linops import as_matrix, as_vector, check_positive, inflated_op_norm, norm, sfp_gradient
from .prox import l1_l2, soft_threshold
from .sets import ConvexSet, _finite_bounds

__all__ = [
    "ConfigurationError",
    "ProblemSpec",
    "Status",
    "IterateRecord",
    "SolveResult",
    "gamma_objective",
    "sfp_residual_value",
    "stationarity_residual",
    "has_exact_residual",
]


class ConfigurationError(Exception):
    """A solver was configured with options or sets it does not support."""


class Status(enum.Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"
    ZERO_STATIONARY = "zero_stationary"
    DIVERGED = "diverged"
    # A certificate proves that the problem has no solution (see baselines.level_set_bound).
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class ProblemSpec:
    """One split-feasibility instance with l1-l2 regularization."""

    A: np.ndarray
    C: ConvexSet
    Q: ConvexSet
    gamma: float

    def __post_init__(self):
        A = as_matrix(self.A).copy()
        A.setflags(write=False)
        object.__setattr__(self, "A", A)
        if not np.any(A):
            raise ValueError("A must have a nonzero entry")
        if self.C.dim != A.shape[1]:
            raise ValueError(
                f"C lives in R^{self.C.dim} but A has {A.shape[1]} columns"
            )
        if self.Q.dim != A.shape[0]:
            raise ValueError(
                f"Q lives in R^{self.Q.dim} but A has {A.shape[0]} rows"
            )
        check_positive(self.gamma, "gamma")

    @functools.cached_property
    def op_norm(self) -> float:
        """``||A||_2``, computed on first use and kept: ``A`` is a read-only copy.

        Every solver that needs it reads it here, so solvers run on the same
        problem share one SVD.  It is not computed in ``__post_init__``, so
        building a problem that no step bound needs costs no SVD.
        """
        return inflated_op_norm(self.A)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


@dataclass
class IterateRecord:
    """Per-iteration trace entry.

    ``objective`` is the solver's own objective (the regularized objective for
    the l1-l2 methods, the plain feasibility residual for the projection
    baselines); ``sfp_residual`` is always ``0.5*||Ax - P_Q(Ax)||^2`` so traces
    are comparable across solvers.
    """

    k: int
    objective: float
    step_norm: float
    grad_residual: float
    elapsed_ms: float
    sfp_residual: float = float("nan")
    l1_norm: float | None = None


@dataclass
class SolveResult:
    x: np.ndarray
    status: Status
    trace: list[IterateRecord] = field(default_factory=list)
    message: str = ""

    @property
    def iterations(self) -> int:
        return self.trace[-1].k if self.trace else 0

    @property
    def converged(self) -> bool:
        return self.status in (Status.CONVERGED, Status.ZERO_STATIONARY)

    def objectives(self) -> np.ndarray:
        return np.array([r.objective for r in self.trace])


class Stop(NamedTuple):
    """A stop that a solver's step decides itself (see :func:`iterate`).

    Only for what the driver cannot see: ``INFEASIBLE``, the backtracking cap,
    a discarded DCA step and ``ZERO_STATIONARY``.
    """

    status: Status
    message: str = ""


def start_point(P: ProblemSpec, x0, project: bool = True) -> tuple[np.ndarray, str]:
    """Check ``x0`` against ``P`` and return a copy, projected onto ``C`` if needed.

    The second value is the message a solve reports when ``x0`` was moved;
    ``project=False`` skips the membership test for solvers that do not
    require a start in ``C``.
    """
    x = as_vector(x0, "x0")
    if x.shape[0] != P.n:
        raise ValueError("x0 must match the column dimension of A")
    if not project or P.C.contains(x):
        return x.copy(), ""
    return P.C.project(x), "x0 projected onto C before start"


def overflow_stop(x: np.ndarray) -> Stop | None:
    """``DIVERGED`` where ``x`` is finite but ``x.x`` overflows a float, else None.

    The one rule for a start that large: :func:`iterate` ends such a run at
    iteration 0 (after the start's own record, if any), a bare
    :func:`~sfpsolve.dca.dca_step` returns such an ``x_k`` with this
    status, and :func:`~sfpsolve.minefuku.mf_direction`, which returns no
    status, raises ValueError with its message.
    """
    with np.errstate(over="ignore"):
        square = x.dot(x)
    if square == math.inf and np.isfinite(x).all():
        return Stop(Status.DIVERGED, "the start's squared norm overflows a float")
    return None


def iterate(
    x: np.ndarray,
    step: Callable[[int, np.ndarray], tuple[np.ndarray | None, float, Stop | None]],
    monitor: Callable[[int, np.ndarray, float], dict],
    max_iter: int,
    step_tol: float | None = None,
    *,
    stationarity_tol: float | None = None,
    record_trace: bool = True,
    message: str = "",
) -> SolveResult:
    """Run ``x <- step(k, x)`` for ``k = 1..max_iter``, tracing the iterates.

    ``step`` returns ``(x_next, move, stop)``.  ``x_next = None`` ends the run
    with ``stop`` and no record; otherwise ``x_next`` is recorded with the
    columns ``monitor(k, x_next, move)`` returns, and the run ends with
    ``stop`` if given, else as ``CONVERGED`` once ``move <= step_tol`` or
    the record's ``grad_residual <= stationarity_tol``, else as
    ``MAX_ITERATIONS``.  An ``x_next`` that is not finite, or whose
    recorded step norm or columns are not, is not recorded: the run ends as
    ``DIVERGED`` with the last recorded iterate; numpy's overflow and
    invalid-value warnings are silenced for the run, since this test reports
    them.  With ``record_trace`` the start is recorded as ``k = 0``, and its
    record is tested too, before any step: a non-finite column ends the run
    as ``DIVERGED`` and a stationary one as ``CONVERGED`` at iteration 0,
    with that record as the trace.  Without it only the last iterate is
    recorded, so the stationarity test, which reads each record, does not
    apply; that record is kept as the run's only one, and a non-finite
    column in it still ends the run as ``DIVERGED``.  A finite start whose
    squared norm overflows ends the run as ``DIVERGED`` at iteration 0 too
    (:func:`overflow_stop`).  A stop's message is joined to ``message``.
    The returned status and iterate are final: solvers only add to the
    message.
    """
    t0 = time.perf_counter()

    def record(k: int, x: np.ndarray, move: float) -> tuple[IterateRecord, Stop | None]:
        """The record of ``x`` and the stop it calls for: a non-finite column first."""
        elapsed_ms = (time.perf_counter() - t0) * 1e3 if k else 0.0
        columns = {"step_norm": move, **monitor(k, x, move)}
        rec = IterateRecord(k=k, elapsed_ms=elapsed_ms, **columns)
        for name, value in columns.items():
            if not math.isfinite(value):
                return rec, Stop(Status.DIVERGED, f"non-finite {name} at iteration {k}")
        if stationarity_tol is not None and rec.grad_residual <= stationarity_tol:
            return rec, Stop(Status.CONVERGED)
        return rec, None

    with np.errstate(over="ignore", invalid="ignore"):
        trace, stop, last_k, last_move = [], None, 0, 0.0
        if record_trace:
            rec, stop = record(0, x, 0.0)
            trace.append(rec)
        stop = stop or overflow_stop(x)
        for k in range(1, max_iter + 1) if stop is None else ():
            x_next, move, stop = step(k, x)
            # A NaN or infinite entry makes x.x NaN or inf, so only a finite
            # x whose x.x overflows needs the entrywise test.
            if x_next is not None and not math.isfinite(x_next.dot(x_next)):
                if not np.isfinite(x_next).all():
                    x_next, stop = None, Stop(Status.DIVERGED, f"non-finite iterate at iteration {k}")
            if x_next is not None and record_trace:
                rec, verdict = record(k, x_next, move)
                if verdict is not None and verdict.status is Status.DIVERGED:
                    x_next, stop = None, verdict
                else:
                    trace.append(rec)
                    stop = stop or verdict
            if x_next is not None:
                x, last_k, last_move = x_next, k, move
                if stop is None and step_tol is not None and move <= step_tol:
                    stop = Stop(Status.CONVERGED)
            if stop is not None:
                break
        if not record_trace:
            rec, verdict = record(last_k, x, last_move)
            trace.append(rec)
            if verdict is not None and verdict.status is Status.DIVERGED:
                stop = verdict
    if stop is None:
        stop = Stop(Status.MAX_ITERATIONS)
    message = "; ".join(m for m in (message, stop.message) if m)
    return SolveResult(x=x, status=stop.status, trace=trace, message=message)


def sfp_residual_value(P: ProblemSpec, x, *, _Ax=None) -> float:
    """The unregularized feasibility residual ``0.5*||Ax - P_Q(Ax)||^2``.

    ``_Ax``, when given, is ``P.A @ x``, computed once by the caller.
    """
    Ax = P.A.dot(x) if _Ax is None else _Ax
    r = Ax - P.Q.project(Ax)
    np.square(r, out=r)
    return 0.5 * float(r.sum())


def gamma_objective(P: ProblemSpec, x) -> float:
    """Regularized objective; +inf when ``x`` is not in ``C`` within tolerance."""
    if not P.C.contains(x):
        return float("inf")
    return sfp_residual_value(P, x) + P.gamma * l1_l2(x)


def has_exact_residual(C: ConvexSet) -> bool:
    """Whether :func:`stationarity_residual` is exact (separable ``C``)."""
    return _finite_bounds(C) is not None


def _smooth_gradient(P: ProblemSpec, x: np.ndarray, *, _Ax=None) -> np.ndarray:
    """Gradient of the smooth part, with the zero subgradient chosen at 0."""
    g = sfp_gradient(P.A, P.Q, x, _Ax=_Ax)
    norm_x = norm(x)
    if norm_x > 0.0:
        g -= P.gamma * (x / norm_x)
    return g


def stationarity_residual(P: ProblemSpec, x, *, _Ax=None) -> float:
    """Distance of the first-order optimality inclusion from being satisfied.

    A point is stationary when ``-g(x)`` lies in ``gamma*d||x||_1 + N_C(x)``
    with ``g(x) = A'(Ax - P_Q(Ax)) - gamma*x/||x||_2`` (zero subgradient of
    the l2 norm at the origin).  For separable ``C`` (full space, orthant,
    box) the Minkowski sum is an interval per coordinate and the Euclidean
    distance is computed exactly.  For the remaining sets the value is the
    fixed-point proxy ``||x - P_C(soft_threshold(x - g(x), gamma))||``, not
    a distance (see :func:`has_exact_residual`).  On the l1 ball and a ball
    centred at the origin the proxy equals
    ``||x - prox_{gamma*||.||_1 + i_C}(x - g(x))||``, which is zero iff ``x``
    is stationary; on an off-centre ball or a singleton it is a monitoring
    quantity only.

    A coordinate counts as zero in the l1 subdifferential when
    ``|x_i| <= 1e-8 * (1 + max|x_i|)``, and a bound as active in ``N_C``
    within ``1e-9``.  ``_Ax``, when given, is ``P.A @ x``, computed once by
    the caller.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[0] != P.n:
        raise ValueError("dimension mismatch between x and problem")
    return _stationarity_from_gradient(P, x, _smooth_gradient(P, x, _Ax=_Ax))


def _stationarity_from_gradient(
    P: ProblemSpec, x: np.ndarray, g: np.ndarray, *, _mag: np.ndarray | None = None
) -> float:
    """:func:`stationarity_residual` at ``x`` given the smooth gradient ``g`` there.

    ``_mag``, when given, is ``np.abs(x)``, computed once by the caller.
    """
    bounds = _finite_bounds(P.C)
    if bounds is None:
        step = P.C.project(soft_threshold(x - g, P.gamma))
        return norm(x - step)

    lower, upper = bounds
    gamma = P.gamma
    mag = np.abs(x) if _mag is None else _mag
    nonzero = mag > 1e-8 * (1.0 + float(np.maximum.reduce(mag)))
    # -g_i is measured against gamma*d|x_i|: the point gamma*sign(x_i), or
    # the interval [-gamma, gamma] at a zero coordinate.  w_i = g_i + that
    # point (g_i at zero) is positive when -g_i lies below it, negative above.
    dist = np.abs(g)
    dist -= gamma
    np.maximum(dist, 0.0, out=dist)
    i = nonzero.nonzero()[0]
    w_i = g[i] + gamma * np.sign(x[i])
    dist[i] = np.abs(w_i)
    if lower is not None or upper is not None:
        # An active bound adds its normal cone, a half-line that absorbs the
        # distance on its side.  Only a finite bound can be active.
        w = g.copy()
        w[i] = w_i
        absorbed = np.zeros(x.shape, dtype=bool)
        if lower is not None:
            absorbed |= (x <= lower + 1e-9) & (w > 0.0)
        if upper is not None:
            absorbed |= (x >= upper - 1e-9) & (w < 0.0)
        dist[absorbed] = 0.0
    return norm(dist)


def columns_and_gradient(
    P: ProblemSpec, x: np.ndarray, in_C: bool
) -> tuple[dict, np.ndarray, np.ndarray]:
    """Trace columns of the l1-l2 solvers at ``x``, the smooth gradient there and ``Ax``.

    ``in_C`` is the caller's test of ``x`` in ``C``.  One product with ``A``
    and one with ``A.T`` serve all columns, and one ``|x|`` and one
    ``||x||_2`` serve the objective, the gradient and the stationarity
    residual; each column is computed with the operations of
    :func:`gamma_objective`, :func:`stationarity_residual` and
    :func:`sfp_residual_value`, so it is the float those return at ``x``.
    """
    Ax = P.A.dot(x)
    r = Ax - P.Q.project(Ax)
    sfp = 0.5 * float((r**2).sum())
    g = P.A.T.dot(r)
    mag = np.abs(x)
    norm_x = norm(x)
    if norm_x > 0.0:
        g -= P.gamma * (x / norm_x)
    # float(mag.sum() - norm_x) is prox.l1_l2(x).
    objective = sfp + P.gamma * float(mag.sum() - norm_x) if in_C else float("inf")
    columns = {
        "objective": objective,
        "grad_residual": _stationarity_from_gradient(P, x, g, _mag=mag),
        "sfp_residual": sfp,
    }
    return columns, g, Ax
