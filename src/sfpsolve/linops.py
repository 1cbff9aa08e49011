"""Dense linear algebra kernels shared by every solver.

Matrices are plain 2-D float64 ``numpy`` arrays (row-major), vectors are
1-D arrays.  :func:`as_vector` and :func:`as_matrix` reject non-finite
entries where data enters the program; kernels called inside iterations,
such as :func:`sfp_gradient`, check no entries.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_matrix",
    "as_vector",
    "apply",
    "apply_transpose",
    "sfp_gradient",
    "op_norm_estimate",
    "inflated_op_norm",
    "read_matrix",
    "write_matrix",
    "read_vector",
    "write_vector",
]

# Relative safety margin added on top of the power-iteration estimate before
# it is used in a step-size bound.  The estimate is a lower bound of the true
# spectral norm, so step sizes derived from the inflated value stay strictly
# inside their admissible interval.
NORM_SAFETY = 1e-6


def as_vector(x, name: str = "x") -> np.ndarray:
    """Coerce ``x`` to a finite 1-D float array, raising ValueError otherwise."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_matrix(A, name: str = "A") -> np.ndarray:
    """Coerce ``A`` to a finite 2-D float array, raising ValueError otherwise."""
    arr = np.asarray(A, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def apply(A, x) -> np.ndarray:
    """Return ``A @ x`` with dimension checking."""
    A = as_matrix(A)
    x = as_vector(x)
    if x.shape[0] != A.shape[1]:
        raise ValueError(
            f"dimension mismatch: A is {A.shape[0]}x{A.shape[1]}, x has length {x.shape[0]}"
        )
    return A @ x


def apply_transpose(A, y) -> np.ndarray:
    """Return ``A.T @ y`` with dimension checking."""
    A = as_matrix(A)
    y = as_vector(y, "y")
    if y.shape[0] != A.shape[0]:
        raise ValueError(
            f"dimension mismatch: A is {A.shape[0]}x{A.shape[1]}, y has length {y.shape[0]}"
        )
    return A.T @ y


def sfp_gradient(A, Q, x) -> np.ndarray:
    """Gradient of ``0.5 * ||Ax - P_Q(Ax)||^2`` at ``x``.

    Equals ``A.T @ (Ax - P_Q(Ax))``.  ``Q`` is any object exposing a
    ``project`` method (see :mod:`sfpsolve.sets`).  The gradient is
    ``||A||^2``-Lipschitz because ``I - P_Q`` is nonexpansive.
    """
    Ax = A @ x
    return A.T @ (Ax - Q.project(Ax))


def op_norm_estimate(A, max_iters: int = 200, tol: float = 1e-8) -> float:
    """Estimate the spectral norm of ``A`` by power iteration on ``A.T @ A``.

    Uses a deterministic start vector (normalized all-ones) so repeated calls
    return identical values.  The returned value is ``||A v||`` for a unit
    vector ``v``, hence never exceeds the true norm; iteration stops once the
    estimate changes by less than ``tol`` or ``max_iters`` is reached.  A zero
    matrix yields 0.0.
    """
    A = as_matrix(A)
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = A.shape[1]
    if n == 0 or A.shape[0] == 0:
        return 0.0
    v = np.full(n, 1.0 / np.sqrt(n))
    estimate = 0.0
    for _ in range(max_iters):
        w = A.T @ (A @ v)
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            return 0.0
        v = w / norm_w
        new_estimate = float(np.linalg.norm(A @ v))
        if abs(new_estimate - estimate) <= tol * max(1.0, new_estimate):
            return new_estimate
        estimate = new_estimate
    return estimate


def inflated_op_norm(A, max_iters: int = 200, tol: float = 1e-8) -> float:
    """Spectral-norm estimate inflated by a small safety factor.

    Step-size bounds of the form ``c / ||A||^2`` should be computed from this
    value rather than the raw estimate.
    """
    return op_norm_estimate(A, max_iters=max_iters, tol=tol) * (1.0 + NORM_SAFETY)


# ---------------------------------------------------------------------------
# Text formats.  Matrix: first line "rows cols", then one line per row.
# Vector: first line "n", second line the n entries.
# ---------------------------------------------------------------------------


def read_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: expected 'rows cols' header")
        rows, cols = int(header[0]), int(header[1])
        if rows < 1 or cols < 1:
            raise ValueError(f"{path}: dimensions must be positive")
        data = np.loadtxt(fh, dtype=float, ndmin=2)
    if data.shape != (rows, cols):
        raise ValueError(
            f"{path}: header says {rows}x{cols} but body has shape {data.shape}"
        )
    return as_matrix(data, name=str(path))


def write_matrix(path, A) -> None:
    A = as_matrix(A)
    rows, cols = A.shape
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{rows} {cols}\n")
        for row in A:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def read_vector(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 1:
            raise ValueError(f"{path}: expected a single length header")
        n = int(header[0])
        if n < 1:
            raise ValueError(f"{path}: length must be positive")
        values = fh.read().split()
    if len(values) != n:
        raise ValueError(f"{path}: header says {n} entries, found {len(values)}")
    return as_vector([float(v) for v in values], name=str(path))


def write_vector(path, x) -> None:
    x = as_vector(x)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{x.shape[0]}\n")
        fh.write(" ".join(f"{v:.17g}" for v in x) + "\n")
