"""Problem specification, the regularized objective and stationarity residuals.

A problem instance bundles the measurement matrix ``A``, the constraint set
``C`` in the domain, the target set ``Q`` in the range and the regularization
weight ``gamma``.  The objective shared by all solvers is

    0.5*||Ax - P_Q(Ax)||^2 + gamma*(||x||_1 - ||x||_2)   for x in C,

and +inf outside ``C``.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .linops import as_matrix, as_vector, sfp_gradient
from .prox import l1_l2, soft_threshold
from .sets import ConvexSet, interval_bounds

__all__ = [
    "ConfigurationError",
    "ProblemSpec",
    "Status",
    "IterateRecord",
    "SolveResult",
    "Stop",
    "start_point",
    "iterate",
    "gamma_objective",
    "sfp_residual_value",
    "stationarity_residual",
    "objective_columns",
    "columns_and_gradient",
    "has_exact_residual",
]


class ConfigurationError(Exception):
    """A solver was configured with options or sets it does not support."""


class Status(enum.Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"
    ZERO_STATIONARY = "zero_stationary"
    DIVERGED = "diverged"


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
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")

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
    residual_is_proxy: bool = False
    message: str = ""

    @property
    def iterations(self) -> int:
        return self.trace[-1].k if self.trace else 0

    @property
    def converged(self) -> bool:
        return self.status in (Status.CONVERGED, Status.ZERO_STATIONARY)

    def objectives(self) -> np.ndarray:
        return np.array([r.objective for r in self.trace])

    def step_norms(self) -> np.ndarray:
        return np.array([r.step_norm for r in self.trace])


class Stop(NamedTuple):
    """A stop that a solver's step decides itself (see :func:`iterate`)."""

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
    if not project or P.C.contains(x, 1e-9):
        return x.copy(), ""
    return P.C.project(x), "x0 projected onto C before start"


def iterate(
    x: np.ndarray,
    step: Callable[[int, np.ndarray], tuple[np.ndarray | None, float, Stop | None]],
    monitor: Callable[[int, np.ndarray, float], dict],
    max_iter: int,
    step_tol: float | None = None,
    *,
    record_start: bool = True,
    record_trace: bool = True,
    message: str = "",
    residual_is_proxy: bool = False,
) -> SolveResult:
    """Run ``x <- step(k, x)`` for ``k = 1..max_iter``, tracing the iterates.

    ``step`` returns ``(x_next, move, stop)``.  ``x_next = None`` ends the run
    with ``stop`` and no record; otherwise ``x_next`` is recorded with the
    columns ``monitor(k, x_next, move)`` returns, and the run ends with
    ``stop`` if given, else as ``CONVERGED`` once ``move <= step_tol``, else
    as ``MAX_ITERATIONS``.  An ``x_next`` that is not finite, or whose
    recorded step norm or columns are not, is not recorded: the run ends as
    ``DIVERGED`` with the last recorded iterate; numpy's overflow and
    invalid-value warnings are silenced for the run, since this test reports
    them.  The start is recorded as ``k = 0`` if ``record_start``; without
    ``record_trace`` only the last iterate is.  A stop's message is joined
    to ``message``.
    """
    t0 = time.perf_counter()

    def record(k: int, x: np.ndarray, move: float) -> tuple[IterateRecord, str]:
        """The record of ``x`` and the name of its first non-finite column, or ``""``."""
        elapsed_ms = (time.perf_counter() - t0) * 1e3 if k else 0.0
        columns = {"step_norm": move, **monitor(k, x, move)}
        bad = next((name for name, value in columns.items() if not math.isfinite(value)), "")
        return IterateRecord(k=k, elapsed_ms=elapsed_ms, **columns), bad

    with np.errstate(over="ignore", invalid="ignore"):
        trace = [record(0, x, 0.0)[0]] if record_start else []
        status, last_k, last_move = Status.MAX_ITERATIONS, 0, 0.0
        for k in range(1, max_iter + 1):
            x_next, move, stop = step(k, x)
            if x_next is not None and not np.all(np.isfinite(x_next)):
                x_next, stop = None, Stop(Status.DIVERGED, f"non-finite iterate at iteration {k}")
            if x_next is not None and record_trace:
                rec, bad = record(k, x_next, move)
                if bad:
                    x_next, stop = None, Stop(Status.DIVERGED, f"non-finite {bad} at iteration {k}")
                else:
                    trace.append(rec)
            if x_next is not None:
                x, last_k, last_move = x_next, k, move
                if stop is None and step_tol is not None and move <= step_tol:
                    stop = Stop(Status.CONVERGED)
            if stop is not None:
                status = stop.status
                message = "; ".join(m for m in (message, stop.message) if m)
                break
        if not record_trace:
            trace.append(record(last_k, x, last_move)[0])
    return SolveResult(
        x=x, status=status, trace=trace, residual_is_proxy=residual_is_proxy, message=message
    )



def sfp_residual_value(P: ProblemSpec, x) -> float:
    """The unregularized feasibility residual ``0.5*||Ax - P_Q(Ax)||^2``."""
    Ax = P.A @ x
    return 0.5 * float(np.sum((Ax - P.Q.project(Ax)) ** 2))


def gamma_objective(P: ProblemSpec, x, member_tol: float = 1e-9) -> float:
    """Regularized objective; +inf when ``x`` is not in ``C`` within tolerance."""
    if not P.C.contains(x, member_tol):
        return float("inf")
    return sfp_residual_value(P, x) + P.gamma * l1_l2(x)


def has_exact_residual(C: ConvexSet) -> bool:
    """Whether :func:`stationarity_residual` is exact (separable ``C``)."""
    return interval_bounds(C) is not None


def _smooth_gradient(P: ProblemSpec, x: np.ndarray) -> np.ndarray:
    """Gradient of the smooth part, with the zero subgradient chosen at 0."""
    g = sfp_gradient(P.A, P.Q, x)
    norm_x = float(np.linalg.norm(x))
    if norm_x > 0.0:
        g = g - P.gamma * (x / norm_x)
    return g


def stationarity_residual(
    P: ProblemSpec,
    x,
    coord_zero_tol: float | None = None,
    active_tol: float = 1e-9,
) -> float:
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

    ``coord_zero_tol`` controls which coordinates count as zero when picking
    the l1 subdifferential (default ``1e-8 * (1 + max|x_i|)``); ``active_tol``
    does the same for bound activity in ``N_C``.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[0] != P.n:
        raise ValueError("dimension mismatch between x and problem")
    return _stationarity_from_gradient(P, x, _smooth_gradient(P, x), coord_zero_tol, active_tol)


def _stationarity_from_gradient(
    P: ProblemSpec,
    x: np.ndarray,
    g: np.ndarray,
    coord_zero_tol: float | None = None,
    active_tol: float = 1e-9,
) -> float:
    """:func:`stationarity_residual` at ``x`` given the smooth gradient ``g`` there."""
    target = -g
    bounds = interval_bounds(P.C)
    if bounds is None:
        step = P.C.project(soft_threshold(x - g, P.gamma))
        return float(np.linalg.norm(x - step))

    lower, upper = bounds
    if coord_zero_tol is None:
        coord_zero_tol = 1e-8 * (1.0 + float(np.max(np.abs(x))))
    gamma = P.gamma
    nonzero = np.abs(x) > coord_zero_tol
    sub_lo = np.where(nonzero, gamma * np.sign(x), -gamma)
    sub_hi = np.where(nonzero, gamma * np.sign(x), gamma)

    at_lower = x <= lower + active_tol
    at_upper = x >= upper - active_tol
    cone_lo = np.where(at_lower, -np.inf, 0.0)
    cone_hi = np.where(at_upper, np.inf, 0.0)

    lo = sub_lo + cone_lo
    hi = sub_hi + cone_hi
    dist = np.maximum(lo - target, 0.0) + np.maximum(target - hi, 0.0)
    return float(np.linalg.norm(dist))


def columns_and_gradient(P: ProblemSpec, x) -> tuple[dict, np.ndarray]:
    """Trace columns of the l1-l2 solvers at ``x`` and the smooth gradient there.

    One product with ``A`` and one with ``A.T`` serve all of them.  Each
    column is computed with the operations of :func:`gamma_objective`,
    :func:`stationarity_residual` and :func:`sfp_residual_value`, so it is
    the same float those functions return at ``x``.
    """
    x = np.asarray(x, dtype=float)
    Ax = P.A @ x
    r = Ax - P.Q.project(Ax)
    sfp = 0.5 * float(np.sum(r**2))
    g = P.A.T @ r
    norm_x = float(np.linalg.norm(x))
    if norm_x > 0.0:
        g = g - P.gamma * (x / norm_x)
    objective = sfp + P.gamma * l1_l2(x) if P.C.contains(x, 1e-9) else float("inf")
    columns = {
        "objective": objective,
        "grad_residual": _stationarity_from_gradient(P, x, g),
        "sfp_residual": sfp,
    }
    return columns, g


def objective_columns(P: ProblemSpec, x) -> dict:
    """Trace columns of the l1-l2 solvers at ``x`` (see :func:`iterate`)."""
    return columns_and_gradient(P, x)[0]
