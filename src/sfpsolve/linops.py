"""Dense linear algebra kernels shared by every solver.

Matrices are plain 2-D float64 ``numpy`` arrays (row-major), vectors are
1-D arrays.  :func:`as_vector` and :func:`as_matrix` reject non-finite
entries where data enters the program, as :func:`check_positive` and
:func:`check_count` reject bad scalar fields of the options, specs and
sets; kernels called inside iterations, such as :func:`sfp_gradient`,
check no entries.  Products with ``A`` are written ``A.dot(x)`` and
``A.T.dot(r)``: the same gemv, and bits, as ``@`` without its matmul dispatch.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

_TINY = float(np.finfo(float).tiny)

__all__ = [
    "sfp_gradient",
    "inflated_op_norm",
    "read_matrix",
    "write_matrix",
    "read_vector",
    "write_vector",
]


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


def check_positive(value, name: str, *, zero: bool = False) -> None:
    """Raise ValueError unless ``value`` is finite and above 0 (at least 0 with ``zero``)."""
    if not (math.isfinite(value) and (value >= 0 if zero else value > 0)):
        sign = "nonnegative" if zero else "positive"
        raise ValueError(f"{name} must be {sign} and finite, got {value!r}")


def check_count(value, name: str, low: int | None = 1) -> None:
    """Raise ValueError unless ``value`` is an integer (numpy's too) of at least ``low``.

    ``low=None`` admits every integer.
    """
    if not (isinstance(value, numbers.Integral) and (low is None or value >= low)):
        bound = "" if low is None else f" >= {low}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")


def sfp_gradient(A, Q, x, *, _Ax=None) -> np.ndarray:
    """Gradient of ``0.5 * ||Ax - P_Q(Ax)||^2`` at ``x``.

    Equals ``A.T @ (Ax - P_Q(Ax))``, computed through ``ndarray.dot`` (the
    same bits, less dispatch).  ``Q`` is any object exposing a
    ``project`` method (see :mod:`sfpsolve.sets`).  The gradient is
    ``||A||^2``-Lipschitz because ``I - P_Q`` is nonexpansive.  ``_Ax``,
    when given, is ``A @ x``, computed once by the caller.
    """
    Ax = A.dot(x) if _Ax is None else _Ax
    return A.T.dot(Ax - Q.project(Ax))


def norm(v: np.ndarray) -> float:
    """``float(np.linalg.norm(v))`` for a 1-D float array, without its dispatch.

    numpy computes that norm as ``sqrt(v.dot(v))`` on a contiguous copy, so
    this is the same float; a strided view would take a different summation
    path in ``dot``, hence the copy here too.  Where ``v.dot(v)`` overflows
    for a finite ``v`` (entries above about 1.34e154) the two differ: this
    returns ``scale*||v/scale||`` with ``scale = max|v|``, which is inf only
    when the norm itself exceeds the largest float.
    """
    if not v.flags.c_contiguous:
        v = np.ascontiguousarray(v)
    value = math.sqrt(v.dot(v))
    if value == math.inf and np.isfinite(v).all():
        scale = float(np.abs(v).max())
        v = v / scale
        return scale * math.sqrt(v.dot(v))
    return value


def inflated_op_norm(A) -> float:
    """Exact spectral norm ``||A||_2`` (the largest singular value) of ``A``.

    Every step-size bound of the form ``c / ||A||^2`` is computed from this
    value.  It is exact, so the bounds need no safety margin.
    """
    return float(np.linalg.norm(A, 2))


def squared_op_norm(op_norm: float) -> float:
    """``op_norm**2`` for a step bound; ValueError unless it is a normal float."""
    try:
        square = op_norm**2
    except OverflowError:
        raise ValueError(
            f"||A|| = {op_norm:.6g} is too large: ||A||^2 overflows a float"
        ) from None
    if square < _TINY:
        # A step bound c/||A||^2 would overflow or divide by zero.
        raise ValueError(f"||A|| = {op_norm:.6g} is too small: ||A||^2 underflows a float")
    return square


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
