import math

import numpy as np
import pytest

from sfpsolve.baselines import CqOptions, McqOptions
from sfpsolve.dca import DcaOptions
from sfpsolve.fbsplit import FbOptions
from sfpsolve.harness import BenchConfig, RandomSpec, SparseSpec
from sfpsolve.inner import InnerOptions
from sfpsolve.linops import (
    as_matrix,
    as_vector,
    check_count,
    check_positive,
    inflated_op_norm,
    read_matrix,
    read_vector,
    sfp_gradient,
    write_matrix,
    write_vector,
)
from sfpsolve.minefuku import MfOptions
from sfpsolve.sets import Ball, FullSpace, L1Ball, NonnegativeOrthant, Singleton


def test_adjoint_identity_sampled():
    rng = np.random.default_rng(1)
    for _ in range(50):
        A = rng.standard_normal((6, 4))
        x = rng.standard_normal(4)
        y = rng.standard_normal(6)
        lhs = float((A @ x) @ y)
        rhs = float(x @ (A.T @ y))
        assert abs(lhs - rhs) <= 1e-10 * (1 + np.linalg.norm(x) * np.linalg.norm(y))


def test_sfp_gradient_zero_when_feasible():
    # Ax already in Q: the projection fixes it and the residual vanishes.
    A = np.array([[1.0, 0.0], [0.0, 2.0]])
    Q = Ball(np.zeros(2), 10.0)
    assert np.linalg.norm(sfp_gradient(A, Q, [0.5, 0.5])) == 0.0


def test_sfp_gradient_singleton_identity():
    b = np.array([1.0, -2.0, 0.5])
    x = np.array([0.3, 0.4, -0.1])
    g = sfp_gradient(np.eye(3), Singleton(b), x)
    assert np.allclose(g, x - b, atol=1e-15)


def central_difference(f, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


@pytest.mark.parametrize("qkind", ["singleton", "ball"])
def test_sfp_gradient_matches_finite_differences(qkind):
    rng = np.random.default_rng(7)
    A = rng.standard_normal((5, 4))
    b = rng.standard_normal(5)
    Q = Singleton(b) if qkind == "singleton" else Ball(b, 0.5)
    x = rng.standard_normal(4)

    def f(v):
        Av = A @ v
        return 0.5 * np.sum((Av - Q.project(Av)) ** 2)

    g = sfp_gradient(A, Q, x)
    fd = central_difference(f, x)
    assert np.linalg.norm(g - fd) <= 1e-5 * (1 + np.linalg.norm(g))


def test_sfp_gradient_lipschitz():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((6, 5))
    Q = Ball(rng.standard_normal(6), 1.0)
    bound = inflated_op_norm(A) ** 2
    for _ in range(30):
        x1 = rng.standard_normal(5)
        x2 = rng.standard_normal(5)
        lhs = np.linalg.norm(sfp_gradient(A, Q, x1) - sfp_gradient(A, Q, x2))
        assert lhs <= bound * np.linalg.norm(x1 - x2) + 1e-12


def test_op_norm_is_the_largest_singular_value():
    rng = np.random.default_rng(11)
    matrices = [rng.standard_normal(shape) for shape in [(10, 6), (7, 5), (100, 256)]]
    # Two nearly equal singular values: an iterative estimate converges slowly here.
    matrices.append(np.diag([0.999, 1.0]))
    for A in matrices:
        sigma = np.linalg.svd(A, compute_uv=False)[0]
        assert inflated_op_norm(A) == pytest.approx(sigma, rel=1e-12, abs=0.0)


def test_matrix_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    A = rng.standard_normal((4, 7))
    path = tmp_path / "a.mat"
    write_matrix(path, A)
    assert np.array_equal(read_matrix(path), A)


def test_vector_roundtrip(tmp_path):
    v = np.array([1.5, -2.25, 1e-17, 3.0])
    path = tmp_path / "v.vec"
    write_vector(path, v)
    assert np.array_equal(read_vector(path), v)


def test_read_matrix_shape_mismatch(tmp_path):
    path = tmp_path / "bad.mat"
    path.write_text("2 2\n1 2\n")
    with pytest.raises(ValueError):
        read_matrix(path)


def test_read_vector_length_mismatch(tmp_path):
    path = tmp_path / "bad.vec"
    path.write_text("3\n1 2\n")
    with pytest.raises(ValueError):
        read_vector(path)


@pytest.mark.parametrize(
    "read, text, message",
    [
        (read_matrix, "3\n1 2 3\n", "expected 'rows cols' header"),
        (read_matrix, "0 2\n", "dimensions must be positive"),
        (read_vector, "1 2\n3\n", "expected a single length header"),
        (read_vector, "0\n", "length must be positive"),
    ],
)
def test_readers_reject_bad_headers(tmp_path, read, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        read(path)


def test_as_vector_and_as_matrix_check_the_dimension():
    with pytest.raises(ValueError, match=r"^x must be one-dimensional, got shape \(1, 2\)$"):
        as_vector([[1.0, 2.0]])
    with pytest.raises(ValueError, match=r"^A must be two-dimensional, got shape \(2,\)$"):
        as_matrix([1.0, 2.0])


def test_check_positive_keeps_each_range():
    for value in (1e-300, 1, 2.5, np.float64(3.0)):
        check_positive(value, "v")
        check_positive(value, "v", zero=True)
    check_positive(0.0, "v", zero=True)
    for value, zero in [(0.0, False), (-0.0, False), (-1e-300, True), (math.nan, True),
                        (math.inf, True), (-math.inf, True)]:
        with pytest.raises(ValueError, match="^v must be "):
            check_positive(value, "v", zero=zero)


def test_check_count_takes_integers_only():
    check_count(1, "k")
    check_count(np.int64(4), "k", 4)
    check_count(-7, "k", low=None)
    for value, low in [(0, 1), (3, 4), (np.int32(0), 1), (2.0, 1), (2.5, None), (math.nan, None),
                       (math.inf, 1), ("3", 1)]:
        with pytest.raises(ValueError, match="^k must be an integer"):
            check_count(value, "k", low)


# Every integer field of the options, specs and sets, with the arguments its
# class needs besides it.
_SPEC = {"seed": 0, "m": 4, "n": 8}
INTEGER_FIELDS = [
    (CqOptions, {}, "max_iter"),
    (McqOptions, {"t": 1.0}, "max_iter"),
    (McqOptions, {"t": 1.0}, "backtrack_cap"),
    (FbOptions, {}, "max_iter"),
    (MfOptions, {}, "golden_evals"),
    (MfOptions, {}, "max_iter"),
    (DcaOptions, {}, "max_outer"),
    (InnerOptions, {}, "budget_base"),
    (InnerOptions, {}, "budget_cap"),
    (InnerOptions, {}, "outer_max"),
    *[(RandomSpec, {**_SPEC, "trials": 1}, f) for f in ("seed", "m", "n", "trials")],
    *[(SparseSpec, {**_SPEC, "sparsity": 2, "noise_variance": 0.0, "gamma": 0.5}, f)
      for f in ("seed", "m", "n", "sparsity")],
    (BenchConfig, {"kind": "sparse"}, "trials"),
    (FullSpace, {}, "dim"),
    (NonnegativeOrthant, {}, "dim"),
    (L1Ball, {"radius": 1.0}, "dim"),
]


@pytest.mark.parametrize("cls, args, field", INTEGER_FIELDS,
                         ids=[f"{cls.__name__}.{field}" for cls, _, field in INTEGER_FIELDS])
@pytest.mark.parametrize("value", [2.5, math.nan, math.inf])
def test_integer_fields_reject_non_integers_at_construction(cls, args, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        cls(**{**args, field: value})
