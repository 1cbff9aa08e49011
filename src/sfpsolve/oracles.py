"""Brute-force grid minimizers used to cross-check closed forms and solvers.

Everything here works from objective values only; none of it reuses the
closed-form operators it is meant to validate.  The grid searches are slow by
design and intended for low-dimensional spot checks (n <= 3).
"""

from __future__ import annotations

import numpy as np

from .linops import as_vector, check_count, check_positive
from .sets import Ball, Box, ConvexSet, FullSpace, L1Ball, NonnegativeOrthant

__all__ = [
    "prox_l1_l2_grid_min",
    "grid_minimize",
    "feasible_mask",
    "prox_check",
]


def _grid_values(lows, highs, step):
    axes = []
    for lo, hi in zip(lows, highs):
        if hi <= lo:
            axes.append(np.array([lo]))
        else:
            count = int(np.floor((hi - lo) / step)) + 1
            ax = lo + step * np.arange(count)
            if ax[-1] < hi:
                ax = np.append(ax, hi)
            axes.append(ax)
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh])


def prox_l1_l2_grid_min(y, lam: float, step: float = 1e-3):
    """Grid minimum of ``lam*(||v||_1-||v||_2) + 0.5*||v-y||^2``.

    Exhaustive enumeration at pitch ``step``.  Two elementary facts shrink
    the search region without assuming anything about the minimizer's closed
    form:

    * flipping ``v_i`` to the sign of ``y_i`` never increases the objective
      (the regularizer is sign-invariant, the quadratic term improves), and
    * shrinking ``|v_i|`` down to ``|y_i|`` strictly decreases the objective
      whenever ``|v_i| > |y_i|``.

    So it suffices to scan magnitudes ``0 <= |v_i| <= |y_i|`` with the signs
    of ``y``; coordinates with ``y_i == 0`` stay zero (any other value can
    only raise the objective).  The grid is evaluated in slabs along the
    first axis to bound memory.  Grids beyond 1e9 points are refused; use a
    coarser step or smaller inputs.  ``step`` must be positive and finite.
    """
    check_positive(step, "step")
    y = as_vector(y, "y")
    lam = float(lam)
    mags = np.abs(y)

    # In magnitude coordinates t_i = |v_i| the reduced objective separates
    # into per-axis parts plus the norm coupling:
    #   sum_i [lam*t_i + 0.5*(t_i - |y_i|)^2]  -  lam*sqrt(sum_i t_i^2).
    axes = []
    for m in mags:
        if m <= 0.0:
            axes.append(np.array([0.0]))
            continue
        count = int(np.floor(m / step)) + 1
        ax = step * np.arange(count)
        if ax[-1] < m:
            ax = np.append(ax, m)
        axes.append(ax)
    total = np.prod([float(a.size) for a in axes])
    if total > 1e9:
        raise ValueError(
            f"grid of {total:.2g} points is too large; coarsen step or shrink y"
        )
    part = [lam * ax + 0.5 * (ax - m) ** 2 for ax, m in zip(axes, mags)]
    sq = [ax**2 for ax in axes]
    if len(axes) == 1:
        return float(np.min(part[0] - lam * np.sqrt(sq[0])))
    # Outer-sum the separable parts of all-but-the-first axis once, then
    # stream slabs of the first axis to bound memory.
    rest_part = part[-1]
    rest_sq = sq[-1]
    for p, s in zip(part[1:-1][::-1], sq[1:-1][::-1]):
        rest_part = p[:, None] + rest_part[None, ...].reshape(1, -1)
        rest_part = rest_part.ravel()
        rest_sq = (s[:, None] + rest_sq[None, ...].reshape(1, -1)).ravel()
    chunk = max(1, int(8e6 // max(1, rest_part.size)))
    best = np.inf
    for start in range(0, part[0].size, chunk):
        p0 = part[0][start : start + chunk]
        s0 = sq[0][start : start + chunk]
        vals = p0[:, None] + rest_part[None, :] - lam * np.sqrt(
            s0[:, None] + rest_sq[None, :]
        )
        best = min(best, float(np.min(vals)))
    return best


def feasible_mask(C: ConvexSet, V: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Vectorized membership test for the columns of ``V``."""
    if isinstance(C, FullSpace):
        return np.ones(V.shape[1], dtype=bool)
    if isinstance(C, NonnegativeOrthant):
        return np.all(V >= -tol, axis=0)
    if isinstance(C, Box):
        return np.all((V >= C.lower[:, None] - tol) & (V <= C.upper[:, None] + tol), axis=0)
    if isinstance(C, Ball):
        return np.sum((V - C.center[:, None]) ** 2, axis=0) <= (C.radius + tol) ** 2
    if isinstance(C, L1Ball):
        return np.sum(np.abs(V), axis=0) <= C.radius + tol
    raise ValueError(f"no vectorized membership test for {type(C).__name__}")


def grid_minimize(objective, C: ConvexSet, lows, highs, step: float):
    """Minimize ``objective`` over the grid points of ``[lows, highs]`` in ``C``.

    ``objective`` must accept a ``(n, N)`` array of column points and return
    ``N`` values.  Returns ``(point, value)`` for the best feasible point.
    ``step`` must be positive and finite.
    """
    check_positive(step, "step")
    lows = as_vector(lows, "lows")
    highs = as_vector(highs, "highs")
    V = _grid_values(lows, highs, step)
    mask = feasible_mask(C, V)
    if not np.any(mask):
        raise ValueError("grid contains no feasible point")
    V = V[:, mask]
    vals = np.asarray(objective(V), dtype=float)
    i = int(np.argmin(vals))
    return V[:, i].copy(), float(vals[i])


def prox_check(count: int = 500, seed: int = 0, step: float = 1e-3):
    """Compare the closed-form l1-l2 prox against the grid oracle.

    Draws 2-D and 3-D inputs covering all three threshold regimes and returns
    the largest absolute objective gap ``|prox_objective - grid_minimum|``
    observed.  A correct closed form keeps the signed gap at or slightly
    below zero (the grid only approximates the true minimum from above), so
    the absolute gap stays within the grid resolution.  The 3-D inputs use a
    smaller amplitude so the exhaustive grid stays affordable at the default
    step.  The generator is keyed with ``seed`` modulo 2**64.
    """
    from .prox import prox_l1_l2_objective, prox_l1_minus_l2

    check_count(count, "count")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed & 0xFFFFFFFFFFFFFFFF)))
    worst = 0.0
    for i in range(count):
        three_d = i % 5 == 4
        if three_d:
            y = rng.uniform(-0.35, 0.35, size=3)
        else:
            y = rng.uniform(-1.2, 1.2, size=2)
        if not np.any(y):
            y[0] = 0.3
        y_inf = float(np.max(np.abs(y)))
        regime = i % 3
        if regime == 0:
            lam = rng.uniform(0.15, 0.9) * y_inf
        elif regime == 1:
            lam = y_inf
        else:
            lam = y_inf * rng.uniform(1.05, 1.6)
        v = prox_l1_minus_l2(y, lam)
        gap = prox_l1_l2_objective(y, lam, v) - prox_l1_l2_grid_min(y, lam, step)
        worst = max(worst, abs(gap))
    return worst
