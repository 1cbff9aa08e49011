"""Proximal operators: soft-thresholding and the prox of ``||x||_1 - ||x||_2``.

The difference regularizer ``r(x) = ||x||_1 - ||x||_2`` is nonnegative and
vanishes exactly on 1-sparse vectors and zero, which is why it promotes
sparsity more aggressively than the l1 norm alone.  Its scaled prox

    prox_{lam*r}(y) = argmin_v  lam*r(v) + 0.5*||v - y||^2

has a closed form that splits into three regimes according to how ``lam``
compares with ``||y||_inf``.
"""

from __future__ import annotations

import numpy as np

from .linops import as_vector

__all__ = ["l1_l2", "soft_threshold", "prox_l1_minus_l2", "prox_l1_l2_objective"]


def l1_l2(x) -> float:
    """Value of the regularizer ``||x||_1 - ||x||_2`` (always >= 0)."""
    x = np.asarray(x, dtype=float)
    return float(np.sum(np.abs(x)) - np.linalg.norm(x))


def soft_threshold(x, lam: float) -> np.ndarray:
    """Componentwise shrinkage ``sign(x_i) * max(|x_i| - lam, 0)``.

    This is the prox of ``lam * ||.||_1``.  ``lam`` must be nonnegative;
    ``lam = 0`` is the identity.
    """
    if lam < 0:
        raise ValueError("soft-threshold parameter must be nonnegative")
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)


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
    if lam <= 0:
        raise ValueError("prox scale must be positive")
    y = np.asarray(y, dtype=float)
    y_inf = float(np.max(np.abs(y))) if y.size else 0.0
    if y_inf == 0.0:
        return np.zeros_like(y)
    if lam < y_inf:
        s = soft_threshold(y, lam)
        s_norm = float(np.linalg.norm(s))
        return ((lam + s_norm) / s_norm) * s
    # 1-sparse regimes: magnitude lam when lam == ||y||_inf, else ||y||_inf.
    magnitude = lam if lam == y_inf else y_inf
    i = int(np.argmax(np.abs(y)))
    out = np.zeros_like(y)
    out[i] = magnitude * (1.0 if y[i] > 0 else -1.0)
    return out


def prox_l1_l2_objective(y, lam: float, v) -> float:
    """Objective ``lam*r(v) + 0.5*||v - y||^2`` that the prox minimizes."""
    y = as_vector(y, "y")
    v = as_vector(v, "v")
    return lam * l1_l2(v) + 0.5 * float(np.sum((v - y) ** 2))
