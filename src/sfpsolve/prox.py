"""Proximal operators: soft-thresholding and the prox of ``||x||_1 - ||x||_2``.

The difference regularizer ``r(x) = ||x||_1 - ||x||_2`` is nonnegative and
vanishes exactly on 1-sparse vectors and zero, which is why it promotes
sparsity more aggressively than the l1 norm alone.  Its scaled prox

    prox_{lam*r}(y) = argmin_v  lam*r(v) + 0.5*||v - y||^2

has a closed form that splits into three regimes according to how ``lam``
compares with ``||y||_inf``.

:func:`fista_momentum` is the momentum rule of the accelerated
proximal-gradient loops built on these operators.
"""

from __future__ import annotations

import math

import numpy as np

from .linops import as_vector, norm

__all__ = ["l1_l2", "soft_threshold", "prox_l1_minus_l2", "prox_l1_l2_objective"]

_SQRT_TINY = math.sqrt(float(np.finfo(float).tiny))  # sqrt(v.v) underflows below
# v.v < len(v) * ||v||_inf^2 stays below a quarter of the largest float, so it
# cannot overflow, while ||v||_inf is below this and len(v) < 2**62.
_INF_NORM_SAFE = math.sqrt(float(np.finfo(float).max)) / 2.0**32


def l1_l2(x) -> float:
    """Value of the regularizer ``||x||_1 - ||x||_2`` (always >= 0)."""
    x = np.asarray(x, dtype=float)
    return float(np.abs(x).sum() - norm(x))


def soft_threshold(x, lam: float) -> np.ndarray:
    """Componentwise shrinkage ``sign(x_i) * max(|x_i| - lam, 0)``.

    This is the prox of ``lam * ||.||_1``.  ``lam`` must be nonnegative;
    ``lam = 0`` is the identity.
    """
    if not lam >= 0:  # also rejects NaN
        raise ValueError("soft-threshold parameter must be nonnegative")
    x = np.asarray(x, dtype=float)
    # The in-place tail reuses |x|.  np.abs returns a fresh array for input
    # of rank 1 or more, but a scalar for a 0-d array, so there an explicit
    # out keeps the result an array.
    out = np.abs(x) if x.ndim else np.abs(x, out=np.empty_like(x))
    out -= lam
    np.maximum(out, 0.0, out=out)
    out *= np.sign(x)
    return out


def prox_l1_minus_l2(y, lam: float) -> np.ndarray:
    """One element of ``prox_{lam * (||.||_1 - ||.||_2)}(y)``.

    The prox set can be multi-valued; the selection here is deterministic:

    * ``lam < ||y||_inf``: scaled soft-threshold,
      ``((lam + ||s||_2) / ||s||_2) * s`` with ``s = soft_threshold(y, lam)``.
    * ``lam == ||y||_inf``: the 1-sparse vector with magnitude ``lam`` and the
      sign of ``y`` at the lowest index attaining ``||y||_inf``.
    * ``lam > ||y||_inf`` and ``y != 0``: the 1-sparse vector with magnitude
      ``||y||_inf`` at the lowest max-magnitude index, sign matching ``y``.
    * ``y == 0``: the zero vector.

    Ties at the max magnitude always resolve to the lowest index so repeated
    runs are bit-identical.
    """
    if not lam > 0:  # also rejects NaN
        raise ValueError("prox scale must be positive")
    y = np.asarray(y, dtype=float)
    mag = np.abs(y)
    y_inf = float(np.maximum.reduce(mag)) if y.size else 0.0
    if y_inf == 0.0:
        return np.zeros_like(y)
    if lam < y_inf:
        s = soft_threshold(y, lam)
        # ||s||_inf < ||y||_inf, so s.s can overflow only if this fails.
        s_norm = norm(s) if y_inf < _INF_NORM_SAFE else math.inf
        if _SQRT_TINY <= s_norm < math.inf:
            s *= (lam + s_norm) / s_norm
        else:
            # s.s underflowed or could overflow; s != 0 since lam < ||y||_inf.
            # ||s|| = scale*n1 itself can exceed the largest float, so the
            # factor is formed from the scaled norm.
            scale = float(np.abs(s).max())
            n1 = norm(s / scale)
            s *= (lam / scale + n1) / n1
        return s
    # 1-sparse regimes: magnitude lam when lam == ||y||_inf, else ||y||_inf.
    magnitude = lam if lam == y_inf else y_inf
    # .flat indexes a 0-d array as well as a vector.
    i = int(mag.argmax())
    out = np.zeros_like(y)
    out.flat[i] = magnitude * (1.0 if y.flat[i] > 0 else -1.0)
    return out


def prox_l1_l2_objective(y, lam: float, v) -> float:
    """Objective ``lam*r(v) + 0.5*||v - y||^2`` that the prox minimizes."""
    y = as_vector(y, "y")
    v = as_vector(v, "v")
    return lam * l1_l2(v) + 0.5 * float(np.sum((v - y) ** 2))


def fista_momentum(theta: float, turn: float) -> tuple[float, float]:
    """FISTA's next ``theta`` and extrapolation weight ``beta``, with gradient restart.

    ``turn = (y - x_next).(x_next - x)``, where ``y`` is the point the
    prox-gradient step from ``x`` to ``x_next`` was taken at.  A positive
    ``turn`` means the step runs against the last move, and ``theta``
    restarts at 1 (O'Donoghue & Candes, Found. Comput. Math. 15, 2015).
    The next step is taken at ``x_next + beta*(x_next - x)`` (Beck &
    Teboulle, SIAM J. Imaging Sci. 2, 2009); ``beta`` is 0 after a restart.
    """
    if turn > 0.0:
        theta = 1.0
    theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
    return theta_next, (theta - 1.0) / theta_next
