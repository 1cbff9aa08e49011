import numpy as np
import pytest

from sfpsolve.oracles import grid_minimize, prox_l1_l2_grid_min
from sfpsolve.prox import (
    fista_momentum,
    l1_l2,
    prox_l1_l2_objective,
    prox_l1_minus_l2,
    soft_threshold,
)
from sfpsolve.sets import Box


def test_fista_momentum_follows_beck_teboulle_and_restarts_on_a_turn():
    golden = (1.0 + 5.0**0.5) / 2.0
    # theta = 1 gives no momentum; each next theta solves t'^2 - t' = t^2.
    assert fista_momentum(1.0, -1.0) == (golden, 0.0)
    theta, beta = fista_momentum(golden, 0.0)
    assert theta * theta - theta == pytest.approx(golden * golden)
    assert beta == (golden - 1.0) / theta
    # A step that turns against the last move restarts at theta = 1.
    assert fista_momentum(50.0, 1e-300) == fista_momentum(1.0, -1.0)


def test_soft_threshold_componentwise():
    assert np.array_equal(soft_threshold([3.0, -0.5, 0.0], 1.0), [2.0, 0.0, 0.0])


def test_soft_threshold_zero_lambda_is_identity():
    x = np.array([1.0, -2.0, 0.3])
    assert np.array_equal(soft_threshold(x, 0.0), x)


def test_soft_threshold_rejects_negative_lambda():
    with pytest.raises(ValueError):
        soft_threshold([1.0], -0.1)


def test_soft_threshold_rejects_nan_lambda():
    with pytest.raises(ValueError):
        soft_threshold(np.array([1.0, -3.0]), float("nan"))


def test_soft_threshold_against_1d_grid():
    # argmin of |v| + (v-1)^2/1.4 over a fine grid sits at the shrunk value.
    grid = np.arange(-2.0, 2.0, 1e-4)
    vals = np.abs(grid) + (grid - 1.0) ** 2 / 1.4
    best = grid[np.argmin(vals)]
    assert abs(best - 0.3) <= 1e-3
    assert soft_threshold(np.array([1.0]), 0.7)[0] == pytest.approx(0.3, abs=1e-12)


def test_soft_threshold_is_prox_of_l1():
    # Fixed-point subgradient check: 0 in lam*d|v_i| + (v_i - x_i).
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.standard_normal(6) * 2
        lam = rng.uniform(0.01, 1.5)
        v = soft_threshold(x, lam)
        for vi, xi in zip(v, x):
            if vi != 0.0:
                assert abs(lam * np.sign(vi) + vi - xi) <= 1e-12
            else:
                assert abs(xi) <= lam + 1e-12


def test_prox_case_below_threshold():
    # soft-threshold (2,0) has norm 2, rescaled by (1+2)/2.
    assert np.allclose(prox_l1_minus_l2([3.0, 1.0], 1.0), [3.0, 0.0], atol=1e-15)


def test_prox_case_at_threshold():
    v = prox_l1_minus_l2([2.0, 1.0], 2.0)
    assert np.array_equal(v, [2.0, 0.0])
    # conditions characterizing the solution set at lam == max|y|
    y = np.array([2.0, 1.0])
    assert v[1] == 0.0  # |y_2| < lam forces zero
    assert np.linalg.norm(v) == pytest.approx(2.0)
    assert np.all(v * y >= 0)


def test_prox_case_above_threshold():
    v = prox_l1_minus_l2([1.0, 0.5], 2.0)
    assert np.array_equal(v, [1.0, 0.0])
    assert np.count_nonzero(v) == 1
    assert np.linalg.norm(v) == pytest.approx(1.0)


def test_prox_zero_input():
    assert np.array_equal(prox_l1_minus_l2(np.zeros(3), 0.7), np.zeros(3))


def test_prox_rejects_nonpositive_lambda():
    with pytest.raises(ValueError):
        prox_l1_minus_l2([1.0], 0.0)
    with pytest.raises(ValueError):
        prox_l1_minus_l2([1.0], -1.0)


def test_prox_rejects_nan_lambda():
    with pytest.raises(ValueError):
        prox_l1_minus_l2(np.array([1.0, -3.0]), float("nan"))


def test_prox_tie_resolves_to_lowest_index():
    v = prox_l1_minus_l2([1.0, -1.0], 2.0)
    assert np.array_equal(v, [1.0, 0.0])


@pytest.mark.parametrize(
    "y,lam",
    [
        ([3.0, 1.0], 1.0),
        ([2.0, 1.0], 2.0),
        ([1.0, 0.5], 2.0),
        ([0.9, -0.4], 0.5),
        ([-0.8, 0.3, 0.2], 0.6),
    ],
)
def test_prox_objective_meets_grid_oracle(y, lam):
    y = np.asarray(y, dtype=float)
    v = prox_l1_minus_l2(y, lam)
    obj = prox_l1_l2_objective(y, lam, v)
    grid = prox_l1_l2_grid_min(y, lam, step=1e-3)
    assert obj <= grid + 5e-3
    assert obj >= grid - 5e-3


@pytest.mark.parametrize("step", [0.0, -1.0, np.nan, np.inf])
def test_grid_oracles_refuse_a_bad_step(step):
    # Before the check: OverflowError at 0, IndexError at -1, a ValueError
    # about converting NaN to an integer, and at inf an empty grid for
    # grid_minimize and an inf minimum for prox_l1_l2_grid_min.
    with pytest.raises(ValueError, match="step must be positive and finite"):
        prox_l1_l2_grid_min([0.8, -0.3], 0.5, step=step)
    with pytest.raises(ValueError, match="step must be positive and finite"):
        grid_minimize(lambda V: (V**2).sum(axis=0), Box([-1.0, -1.0], [1.0, 1.0]),
                      [-1.0, -1.0], [1.0, 1.0], step)


def test_prox_invariants_sampled():
    rng = np.random.default_rng(9)
    for i in range(200):
        n = 2 + (i % 3)
        y = rng.uniform(-2.0, 2.0, n)
        if not np.any(y):
            continue
        y_inf = np.max(np.abs(y))
        lam = [0.5 * y_inf, y_inf, 1.5 * y_inf][i % 3]
        if lam <= 0:
            continue
        v = prox_l1_minus_l2(y, lam)
        # regularizer nonnegative, zero exactly on 1-sparse or zero vectors
        r = l1_l2(v)
        assert r >= -1e-12
        if np.count_nonzero(v) <= 1:
            assert abs(r) <= 1e-12
        else:
            assert r > 0
        # sign consistency with the input
        assert np.all(v * y >= -1e-15)
        # below the threshold the support matches the soft-threshold support
        if lam < y_inf:
            s = soft_threshold(y, lam)
            assert np.array_equal(v != 0, s != 0)


def test_l1_l2_zero_iff_sparse():
    assert l1_l2(np.zeros(4)) == 0.0
    assert l1_l2(np.array([0.0, -2.5, 0.0])) == 0.0
    assert l1_l2(np.array([1.0, 1.0])) > 0.0


def test_prox_below_threshold_survives_norm_underflow():
    # ||s||_2^2 underflows to 0 at this scale; the prox is positively
    # homogeneous, prox_{c*lam*r}(c*y) = c * prox_{lam*r}(y).
    y, lam, c = np.array([1.0, 0.0]), 0.5, 1e-200
    v = prox_l1_minus_l2(c * y, c * lam)
    expected = c * prox_l1_minus_l2(y, lam)
    assert np.allclose(v, expected, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("seed", range(4))
def test_prox_soft_threshold_regime_survives_norm_overflow(seed):
    # ||s||_2^2 overflows at this scale; the prox is positively homogeneous.
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(6)
    lam, c = 0.5 * float(np.max(np.abs(y))), 1e200
    v = prox_l1_minus_l2(c * y, c * lam)
    expected = c * prox_l1_minus_l2(y, lam)
    assert np.allclose(v, expected, rtol=1e-14, atol=0.0)


def test_prox_soft_threshold_regime_survives_a_norm_above_the_largest_float():
    # ||s||_2 itself exceeds the largest float, while every entry of the prox
    # is finite; positive homogeneity gives the expected value.
    y, lam, c = np.array([1.7e8, 1.7e8, -1e8]), 1e7, 1e300
    v = prox_l1_minus_l2(c * y, c * lam)
    assert np.all(np.isfinite(v))
    assert np.allclose(v, c * prox_l1_minus_l2(y, lam), rtol=1e-14, atol=0.0)
