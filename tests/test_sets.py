import math

import numpy as np
import pytest

from sfpsolve.linops import write_vector
from sfpsolve.sets import (
    Ball,
    Box,
    FullSpace,
    L1Ball,
    NonnegativeOrthant,
    Singleton,
    parse_set,
)

ALL_SETS = [
    FullSpace(4),
    NonnegativeOrthant(4),
    Singleton(np.array([0.5, -1.0, 2.0, 0.0])),
    Ball(np.array([1.0, 0.0, 0.0, -1.0]), 1.5),
    Box(np.array([-1.0, 0.0, -2.0, 0.5]), np.array([1.0, 0.5, 2.0, 0.5])),
    L1Ball(2.0, 4),
]


def l1_project_bisection(x, radius):
    """Independent l1-ball projection: bisection on the shrink threshold."""
    x = np.asarray(x, dtype=float)
    if np.abs(x).sum() <= radius:
        return x.copy()
    lo, hi = 0.0, float(np.abs(x).max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.maximum(np.abs(x) - mid, 0.0).sum() > radius:
            lo = mid
        else:
            hi = mid
    theta = 0.5 * (lo + hi)
    return np.sign(x) * np.maximum(np.abs(x) - theta, 0.0)


def test_singleton_projection_constant():
    S = Singleton(np.array([1.0, 2.0]))
    assert np.array_equal(S.project([9.0, -9.0]), [1.0, 2.0])


def test_ball_radial_scaling():
    S = Ball(np.zeros(2), 1.0)
    assert np.allclose(S.project([3.0, 4.0]), [0.6, 0.8], atol=1e-15)


def test_orthant_clamp():
    S = NonnegativeOrthant(2)
    assert np.array_equal(S.project([2.0, -3.0]), [2.0, 0.0])


def test_l1ball_known_points():
    S = L1Ball(1.0, 2)
    assert np.allclose(S.project([2.0, 0.0]), [1.0, 0.0], atol=1e-12)
    assert np.allclose(S.project([1.0, 1.0]), [0.5, 0.5], atol=1e-12)


def test_l1ball_known_points_against_grid():
    # Dense scan of ||v - x|| over the feasible grid confirms the two
    # closed-form answers above.
    S = L1Ball(1.0, 2)
    ax = np.arange(-1.0, 1.0 + 1e-9, 1e-3)
    V1, V2 = np.meshgrid(ax, ax, indexing="ij")
    mask = np.abs(V1) + np.abs(V2) <= 1.0 + 1e-12
    for x, expected in [([2.0, 0.0], [1.0, 0.0]), ([1.0, 1.0], [0.5, 0.5])]:
        d2 = (V1 - x[0]) ** 2 + (V2 - x[1]) ** 2
        d2[~mask] = np.inf
        i, j = np.unravel_index(np.argmin(d2), d2.shape)
        assert np.linalg.norm(np.array([ax[i], ax[j]]) - expected) <= 2e-3
        assert np.linalg.norm(S.project(x) - expected) <= 1e-12


def test_l1ball_matches_bisection_oracle():
    rng = np.random.default_rng(2)
    S = L1Ball(1.7, 6)
    for _ in range(100):
        x = rng.standard_normal(6) * rng.uniform(0.2, 4.0)
        assert np.linalg.norm(S.project(x) - l1_project_bisection(x, 1.7)) <= 1e-10


@pytest.mark.parametrize(
    "radius, x",
    [
        (1.0, [1e17, 1e17]),  # u[0] - radius rounds to u[0]
        (1e-20, [1.0, 1.0, 0.0]),
        (1.0, [1e308, 1e308, 1.0]),  # the l1 norm overflows
    ],
)
def test_l1ball_projection_is_in_the_ball_when_no_sort_index_passes(radius, x):
    # In floating point not even index 0 passes the threshold test here.
    with np.errstate(over="ignore"):
        p = L1Ball(radius, len(x)).project(x)
    assert np.all(np.isfinite(p)) and np.sum(np.abs(p)) <= radius


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_l1ball_projection_of_a_non_finite_entry_is_non_finite(bad):
    with np.errstate(invalid="ignore"):
        p = L1Ball(1.0, 3).project([bad, 1.0, 0.0])
    assert not np.all(np.isfinite(p))


def test_ball_zero_radius_acts_as_singleton():
    S = Ball(np.array([1.0, -1.0]), 0.0)
    assert np.array_equal(S.project([5.0, 5.0]), [1.0, -1.0])


def test_is_member_examples():
    assert Ball(np.zeros(2), 1.0).contains([0.5, 0.0], 0.0)
    b = np.array([1.0, 2.0])
    assert Singleton(b).contains(b, 0.0)
    box = Box(np.zeros(2), np.ones(2))
    assert box.contains([1.0005, 0.5], 1e-3)
    assert not box.contains([1.0005, 0.5], 1e-6)
    with pytest.raises(ValueError, match="tol must be nonnegative"):
        box.contains([0.5, 0.5], -1e-9)


def test_singleton_repr_names_the_dimension():
    assert repr(Singleton(np.array([1.0, 2.0, 3.0]))) == "Singleton(dim=3)"


@pytest.mark.parametrize("S", ALL_SETS, ids=lambda s: type(s).__name__)
def test_projection_idempotent(S):
    rng = np.random.default_rng(4)
    for _ in range(100):
        x = rng.standard_normal(S.dim) * 3.0
        p = S.project(x)
        assert np.linalg.norm(S.project(p) - p) <= 1e-12
        assert S.contains(p, 1e-9)


@pytest.mark.parametrize("S", ALL_SETS, ids=lambda s: type(s).__name__)
def test_projection_nonexpansive(S):
    rng = np.random.default_rng(5)
    for _ in range(100):
        x = rng.standard_normal(S.dim) * 3.0
        y = rng.standard_normal(S.dim) * 3.0
        lhs = np.linalg.norm(S.project(x) - S.project(y))
        assert lhs <= np.linalg.norm(x - y) + 1e-12


@pytest.mark.parametrize("S", ALL_SETS, ids=lambda s: type(s).__name__)
def test_projection_variational_inequality(S):
    rng = np.random.default_rng(6)
    for _ in range(50):
        x = rng.standard_normal(S.dim) * 3.0
        p = S.project(x)
        z = S.project(rng.standard_normal(S.dim) * 3.0)  # a point of S
        assert float((x - p) @ (z - p)) <= 1e-9


@pytest.mark.parametrize("S", [NonnegativeOrthant(5), FullSpace(5)], ids=["orthant", "fullspace"])
def test_cone_projection_homogeneous(S):
    rng = np.random.default_rng(8)
    for _ in range(100):
        x = rng.standard_normal(5) * 2.0
        alpha = rng.uniform(0.1, 10.0)
        assert np.linalg.norm(S.project(alpha * x) - alpha * S.project(x)) <= 1e-12


def test_invalid_constructions():
    with pytest.raises(ValueError):
        Ball(np.zeros(2), -1.0)
    with pytest.raises(ValueError):
        Box([1.0, 0.0], [0.0, 1.0])
    with pytest.raises(ValueError, match="same length"):
        Box([0.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        L1Ball(0.0, 3)
    with pytest.raises(ValueError):
        FullSpace(0)


@pytest.mark.parametrize("radius", [math.nan, math.inf])
@pytest.mark.parametrize("make", [lambda r: Ball(np.zeros(2), r), lambda r: L1Ball(r, 2)],
                         ids=["Ball", "L1Ball"])
def test_radii_reject_nan_and_inf(make, radius):
    with pytest.raises(ValueError, match="radius"):
        make(radius)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError, match="dimension mismatch"):
        FullSpace(3).project([1.0, 2.0])


def test_parse_set_grammar(tmp_path):
    assert isinstance(parse_set("fullspace:3"), FullSpace)
    assert isinstance(parse_set("orthant:2"), NonnegativeOrthant)
    assert isinstance(parse_set("l1ball:1.5:4"), L1Ball)
    vec = tmp_path / "b.vec"
    write_vector(vec, np.array([1.0, 2.0]))
    s = parse_set(f"singleton:{vec}")
    assert isinstance(s, Singleton) and s.dim == 2
    ball = parse_set(f"ball:{vec}:0.5")
    assert isinstance(ball, Ball) and ball.radius == 0.5
    box = parse_set(f"box:{vec}:{vec}")
    assert isinstance(box, Box)


@pytest.mark.parametrize("bad", ["cube:3", "ball:nope.vec:1", "l1ball:2", "fullspace:x"])
def test_parse_set_rejects(bad):
    with pytest.raises(ValueError, match="invalid set specification"):
        parse_set(bad)
