"""Difference-of-convex outer loop for the l1-l2 regularized problem.

The objective splits as (convex fidelity + gamma*||.||_1 + indicator of C)
minus the concave part gamma*||.||_2.  Each step linearizes the concave part
at the current iterate (subgradient ``x/||x||_2``, zero at the origin) and
minimizes the resulting convex majorizer with one of the subproblem solvers
from :mod:`sfpsolve.inner`.  The objective sequence is monotonically
non-increasing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .inner import INNER_SOLVERS, InnerOptions, SubproblemSpec
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

__all__ = ["DcaOptions", "dca_step", "solve_dca"]

_DISCARDED = "inner result discarded: no majorizer improvement"


@dataclass
class DcaOptions:
    """Outer-loop controls.

    ``zero_tol`` decides when an iterate counts as the zero vector for the
    concave-part subgradient; ``None`` resolves to ``1e-12 * (1 + ||x0||)``.
    The inner tolerance is tightened to ``min(inner.tol, step_tol / 10)`` so
    the descent property survives inexact subproblem solves.
    """

    inner_solver: str = "dr-in-fb"
    inner: InnerOptions = field(default_factory=InnerOptions)
    max_outer: int = 1000
    step_tol: float = 1e-5
    zero_tol: float | None = None

    def __post_init__(self):
        if self.inner_solver not in INNER_SOLVERS:
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


def dca_step(
    P: ProblemSpec,
    x_k,
    opts: DcaOptions | None = None,
    zero_tol: float | None = None,
    *,
    _op_norm: float | None = None,
) -> SolveResult:
    """One majorize-minimize step from ``x_k``.

    Builds the subproblem with linear term ``v = -gamma * x_k / ||x_k||_2``
    (``v = 0`` when ``||x_k|| <= zero_tol``) and solves it warm-started at
    ``x_k``.  If the inexact inner solve fails to improve the majorizer, the
    step returns ``x_k`` unchanged, which keeps the outer objective sequence
    non-increasing unconditionally.
    """
    if opts is None:
        opts = DcaOptions()
    x_k = np.asarray(x_k, dtype=float)
    if zero_tol is None:
        zero_tol = opts.resolve_zero_tol(x_k)
    norm_x = norm(x_k)
    if norm_x <= zero_tol:
        v = np.zeros_like(x_k)
    else:
        v = -P.gamma * (x_k / norm_x)
    spec = SubproblemSpec(base=P, v=v, _op_norm=_op_norm)
    inner = INNER_SOLVERS[opts.inner_solver](spec, x_k, _resolved_inner(opts))
    # Majorizer safeguard: the subproblem objective dominates the true
    # objective and touches it at x_k, so refusing a non-improving inner
    # result preserves monotone descent.
    if spec.objective(inner.x) > spec.objective(x_k):
        inner.x = x_k.copy()
        inner.message = "; ".join(m for m in (inner.message, _DISCARDED) if m)
    return inner


def solve_dca(P: ProblemSpec, x0, opts: DcaOptions | None = None) -> SolveResult:
    """Run the outer loop from ``x0`` (projected onto ``C`` if needed).

    Stops when the step norm drops to ``step_tol`` (``CONVERGED``), when two
    consecutive iterates are both zero and ``C`` contains the origin
    (``ZERO_STATIONARY``: the origin is a fixed point of the scheme, and the
    step moves to it, so the run records the origin it returns), or at
    ``max_outer`` iterations.  A step whose inner result the majorizer
    safeguard discards ends the run as ``MAX_ITERATIONS`` at the last
    recorded iterate, unless the inner solve converged at its first
    iteration: then ``x_k`` is a fixed point to the inner tolerance, the
    step moves 0 and the run ends ``CONVERGED`` at ``x_k``.  Status and
    iterate are :func:`problem.iterate`'s; the message adds the steps whose
    inner solve ran out of ``outer_max`` and the discarded step.
    """
    if opts is None:
        opts = DcaOptions()
    x, message = start_point(P, x0)
    zero_tol = opts.resolve_zero_tol(x)
    # ||A|| from the problem's cache (computed at most once per problem),
    # handed to every step's inner solver.
    op_norm = P.op_norm
    capped, discarded = [], []

    def step(k, x):
        inner = dca_step(P, x, opts, zero_tol=zero_tol, _op_norm=op_norm)
        if inner.status is Status.MAX_ITERATIONS:
            capped.append(k)
        if _DISCARDED in inner.message:
            if inner.status is Status.CONVERGED and inner.iterations == 1:
                # x's own first inner step moved within the inner tolerance,
                # so x is a DCA fixed point to it and rounding made the
                # refusal: the run converges at x.
                return inner.x, 0.0, None
            # The step returned x unchanged, and a retry from x would repeat
            # the same inner solve: the run has stalled, not converged.
            discarded.append(k)
            return None, 0.0, Stop(Status.MAX_ITERATIONS)
        x_next = inner.x
        if max(norm(x), norm(x_next)) <= zero_tol and P.C.contains(np.zeros_like(x)):
            return np.zeros_like(x), norm(x), Stop(Status.ZERO_STATIONARY)
        return x_next, norm(x_next - x), None

    def monitor(k, x, move):
        return {**columns_and_gradient(P, x, P.C.contains(x))[0], "l1_norm": float(np.abs(x).sum())}

    result = iterate(x, step, monitor, opts.max_outer, opts.step_tol, message=message)
    notes = [
        f"{what} at steps {', '.join(map(str, steps))}"
        for what, steps in (("inner solve hit outer_max", capped), ("inner result discarded", discarded))
        if steps
    ]
    result.message = "; ".join(m for m in (result.message, *notes) if m)
    return result
