"""Closed convex sets with exact Euclidean projection oracles.

Six set families are supported: the full space, the nonnegative orthant,
singletons, Euclidean balls, boxes and l1 balls.  Every set is an immutable
value with a ``project`` method returning the unique nearest point; all the
solvers in this package interact with sets only through ``project`` and
``contains``.
"""

from __future__ import annotations

import numpy as np

from .linops import as_vector, check_count, check_positive, norm, read_vector

__all__ = [
    "ConvexSet",
    "FullSpace",
    "NonnegativeOrthant",
    "Singleton",
    "Ball",
    "Box",
    "L1Ball",
    "parse_set",
]

DEFAULT_MEMBER_TOL = 1e-9


class ConvexSet:
    """Base class; concrete sets implement :meth:`project`."""

    dim: int

    def project(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def contains(self, x, tol: float = DEFAULT_MEMBER_TOL) -> bool:
        """True iff ``x`` is within ``tol`` (Euclidean) of the set."""
        if tol < 0:
            raise ValueError("tol must be nonnegative")
        return norm(x - self.project(x)) <= tol

    def _check(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(
                f"dimension mismatch: set lives in R^{self.dim}, point has shape {x.shape}"
            )
        return x


class FullSpace(ConvexSet):
    """All of R^n; projection is the identity."""

    def __init__(self, dim: int):
        check_count(dim, "dim")
        self.dim = int(dim)

    def project(self, x):
        return self._check(x)

    def __repr__(self):
        return f"FullSpace({self.dim})"


class NonnegativeOrthant(ConvexSet):
    """The cone ``x >= 0``; projection clamps negative entries to zero."""

    def __init__(self, dim: int):
        check_count(dim, "dim")
        self.dim = int(dim)

    def project(self, x):
        return np.maximum(self._check(x), 0.0)

    def __repr__(self):
        return f"NonnegativeOrthant({self.dim})"


class Ball(ConvexSet):
    """Euclidean ball of radius ``radius`` around ``center``.

    A zero radius is allowed: that ball is the singleton ``{center}``.
    """

    def __init__(self, center, radius: float):
        check_positive(radius, "radius", zero=True)
        self.center = as_vector(center, "center").copy()
        self.center.setflags(write=False)
        self.radius = float(radius)
        self.dim = self.center.shape[0]

    def project(self, x):
        x = self._check(x)
        d = x - self.center
        dist = norm(d)
        if dist <= self.radius:
            return x.copy()
        return self.center + (self.radius / dist) * d

    def __repr__(self):
        return f"Ball(dim={self.dim}, radius={self.radius})"


class Singleton(Ball):
    """A single point: the ball of radius 0 around it, with a constant projection."""

    def __init__(self, point):
        super().__init__(as_vector(point, "point"), 0.0)
        self.point = self.center

    def project(self, x):
        self._check(x)
        return self.point.copy()

    def __repr__(self):
        return f"Singleton(dim={self.dim})"


class Box(ConvexSet):
    """Componentwise bounds ``lower <= x <= upper``."""

    def __init__(self, lower, upper):
        self.lower = as_vector(lower, "lower").copy()
        self.upper = as_vector(upper, "upper").copy()
        if self.lower.shape != self.upper.shape:
            raise ValueError("lower and upper must have the same length")
        if np.any(self.lower > self.upper):
            raise ValueError("box requires lower <= upper componentwise")
        self.lower.setflags(write=False)
        self.upper.setflags(write=False)
        self.dim = self.lower.shape[0]

    def project(self, x):
        return np.clip(self._check(x), self.lower, self.upper)

    def __repr__(self):
        return f"Box(dim={self.dim})"


class L1Ball(ConvexSet):
    """The set ``||x||_1 <= radius`` with the exact sort-based projection."""

    def __init__(self, radius: float, dim: int):
        check_positive(radius, "radius")
        check_count(dim, "dim")
        self.radius = float(radius)
        self.dim = int(dim)
        self._counts = np.arange(1.0, self.dim + 1.0)

    def project(self, x):
        x = self._check(x)
        mag = np.abs(x)
        if mag.sum() <= self.radius:
            return x.copy()
        # Project |x| onto the simplex {u >= 0, sum(u) = radius}, then restore
        # signs.  Sort-and-threshold is exact in O(n log n).
        u = mag.copy()
        u.sort()
        u = u[::-1]
        cumsum = u.cumsum()
        cumsum -= self.radius
        # Index 0 passes in exact arithmetic (radius > 0); it can fail in
        # floating point when the radius is below the rounding unit of u[0]
        # or an entry is not finite.  rho = 0 then gives theta = u[0]: zero
        # for finite input, a non-finite result otherwise.
        passing = (u > cumsum / self._counts).nonzero()[0]
        rho = passing[-1] if passing.size else 0
        theta = cumsum[rho] / (rho + 1.0)
        mag -= theta
        np.maximum(mag, 0.0, out=mag)
        mag *= np.sign(x)
        return mag

    def __repr__(self):
        return f"L1Ball(radius={self.radius}, dim={self.dim})"


def _finite_bounds(S: ConvexSet):
    """The finite componentwise bounds of a separable set, else None.

    Separable sets (full space, orthant, box) admit exact per-coordinate
    normal-cone arithmetic.  For them the value is ``(lower, upper)``, each a
    scalar or an array that is finite in every coordinate, or None where
    that side is infinite in every coordinate (no separable set mixes the two).
    """
    if isinstance(S, FullSpace):
        return None, None
    if isinstance(S, NonnegativeOrthant):
        return 0.0, None
    if isinstance(S, Box):
        return S.lower, S.upper
    return None


def parse_set(text: str) -> ConvexSet:
    """Build a set from its command-line grammar.

    Recognized forms::

        fullspace:<n>
        orthant:<n>
        singleton:<vectorfile>
        ball:<vectorfile>:<eps>
        box:<lowerfile>:<upperfile>
        l1ball:<t>:<n>
    """
    parts = text.split(":")
    kind = parts[0].lower()
    try:
        if kind == "fullspace" and len(parts) == 2:
            return FullSpace(int(parts[1]))
        if kind == "orthant" and len(parts) == 2:
            return NonnegativeOrthant(int(parts[1]))
        if kind == "singleton" and len(parts) == 2:
            return Singleton(read_vector(parts[1]))
        if kind == "ball" and len(parts) == 3:
            return Ball(read_vector(parts[1]), float(parts[2]))
        if kind == "box" and len(parts) == 3:
            return Box(read_vector(parts[1]), read_vector(parts[2]))
        if kind == "l1ball" and len(parts) == 3:
            return L1Ball(float(parts[1]), int(parts[2]))
    except (OSError, ValueError) as exc:
        raise ValueError(f"invalid set specification {text!r}: {exc}") from exc
    raise ValueError(
        f"invalid set specification {text!r}: expected fullspace:n, orthant:n, "
        "singleton:<vec>, ball:<vec>:<eps>, box:<vec>:<vec> or l1ball:<t>:<n>"
    )
