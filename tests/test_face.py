import numpy as np
import pytest

from sfpsolve import dca
from sfpsolve.dca import dca_step, solve_dca
from sfpsolve.face import Face
from sfpsolve.harness import SparseSpec, gen_sparse_recovery
from sfpsolve.problem import ProblemSpec, SolveResult, Status
from sfpsolve.sets import Ball, FullSpace, L1Ball

DESK = SparseSpec(seed=0, m=100, n=256, sparsity=10, noise_variance=1e-4, gamma=0.6)


def _face_on(A, S):
    x = np.zeros(A.shape[1])
    x[S] = 1.0
    face = Face(A)
    face.start(x)
    return face


def _signed(Q, R_inv):
    """``(Q, R^{-1})`` with ``R``'s diagonal made positive, which makes the factor unique."""
    signs = np.sign(np.diagonal(R_inv))
    return Q * signs, R_inv * signs


def _grown(A, order):
    """A face grown column by column in ``order``, as the exact solve grows one."""
    face = Face(A)
    for j in order:
        face.grow(j, 1.0)
    return face


@pytest.mark.parametrize(
    "dropped", [[0], [7], [2, 5, 6], [1, 3]], ids=["first", "last", "scattered", "two"]
)
def test_a_downdated_factor_equals_a_fresh_one(dropped):
    rng = np.random.default_rng(4)
    A = rng.standard_normal((12, 30))
    order = [9, 3, 17, 0, 25, 11, 6, 20]
    face = _grown(A, order)
    kept = np.ones(len(order), dtype=bool)
    kept[dropped] = False
    face.drop(kept)
    S = np.array(order)[kept]
    assert np.array_equal(face.S, S) and face.null is None
    Q, R = np.linalg.qr(A[:, S])
    fresh_Q, fresh_R_inv = _signed(Q, np.linalg.inv(R))
    down_Q, down_R_inv = _signed(face.Q, face.R_inv)
    assert np.max(np.abs(down_Q - fresh_Q)) <= 1e-12
    assert np.max(np.abs(down_R_inv - fresh_R_inv)) <= 1e-12 * np.max(np.abs(fresh_R_inv))


@pytest.mark.parametrize(
    "m, order, dropped",
    [
        # Column 4 is a combination of columns 1 and 2; a drop before it or
        # after it leaves the dependence in the trailing block.
        (8, [0, 1, 2, 4, 3, 5], [0]),
        (8, [0, 1, 2, 4, 3, 5], [5]),
        (8, [0, 1, 2, 4, 3, 5], [4]),
        # Five columns in R^3: any four are still more than m.
        (3, [0, 1, 2, 3, 4], [1]),
        (3, [0, 1, 2, 3, 4], [4]),
    ],
    ids=["dependent-drop-first", "dependent-drop-last", "dependent-drop-between", "wide-drop-second", "wide-drop-last"],
)
def test_a_rank_deficient_trailing_block_gives_a_null_direction(m, order, dropped):
    rng = np.random.default_rng(2)
    A = rng.standard_normal((m, 6))
    if m > 5:
        A[:, 4] = 0.7 * A[:, 1] - 1.3 * A[:, 2]
    face = _grown(A, order)
    assert face.null is not None
    kept = np.ones(len(order), dtype=bool)
    kept[dropped] = False
    face.drop(kept)
    d = face.null
    assert d is not None
    assert np.linalg.norm(A[:, face.S] @ d) <= 1e-12 * np.linalg.norm(d)
    # The same verdict as a fresh factorization of the same columns.
    assert _face_on(A, face.S).null is not None


def test_a_drop_keeps_full_rank_where_a_fresh_factor_does():
    # Dropping the dependent column itself leaves independent columns.
    rng = np.random.default_rng(2)
    A = rng.standard_normal((8, 6))
    A[:, 4] = 0.7 * A[:, 1] - 1.3 * A[:, 2]
    face = _grown(A, [0, 1, 2, 4, 3, 5])
    face.drop(np.array([True, True, True, False, True, True]))
    assert face.null is None and _face_on(A, face.S).null is None
    assert np.allclose(face.Q @ np.linalg.inv(face.R_inv), A[:, face.S], rtol=0, atol=1e-12)


def _record_fresh_factors(monkeypatch):
    """Record ``(step, why)`` for every factorization of a whole face, ``why`` the start or the drop position."""
    fresh, where = [], {"step": 0, "why": "start"}
    real_step, real_factor, real_drop = dca.dca_step, Face._factor, Face.drop

    def counting_step(*args, **kwargs):
        where["step"] += 1
        return real_step(*args, **kwargs)

    def dropping(self, kept):
        where["why"] = f"drop at {int(np.argmin(kept))}"
        try:
            real_drop(self, kept)
        finally:
            where["why"] = "start"

    def factoring(self, k):
        if k == 0 and self.S.size:
            fresh.append((where["step"], where["why"]))
        real_factor(self, k)

    monkeypatch.setattr(dca, "dca_step", counting_step)
    monkeypatch.setattr(Face, "drop", dropping)
    monkeypatch.setattr(Face, "_factor", factoring)
    return fresh, where


def test_solve_dca_factors_a_whole_face_only_at_its_first_step_or_after_a_drop_at_0(monkeypatch):
    inst = gen_sparse_recovery(DESK, 0)
    fresh, where = _record_fresh_factors(monkeypatch)
    r = solve_dca(inst.problem, inst.x0)
    assert r.status is Status.CONVERGED and r.message == "" and where["step"] >= 3
    assert all(step == 1 or why == "drop at 0" for step, why in fresh), fresh


def _desk_after_one_step(C=None, Q=None):
    inst = gen_sparse_recovery(DESK, 0)
    P = inst.problem
    if C is not None:
        P = ProblemSpec(A=P.A, C=C, Q=Q, gamma=P.gamma)
    face = Face(P.A)
    x_1 = dca_step(P, inst.x0, _face=face).x
    return P, x_1, face


@pytest.mark.parametrize("target", ["point", "noise-ball-in-l1-ball"])
def test_a_carried_face_gives_the_step_of_a_fresh_one(target, monkeypatch):
    if target == "point":
        P, x_1, face = _desk_after_one_step()
    else:
        inst = gen_sparse_recovery(DESK, 0)
        P, x_1, face = _desk_after_one_step(
            L1Ball(inst.t_level, inst.problem.n), Ball(inst.problem.Q.center, 0.1)
        )
    assert np.array_equal(np.sort(face.S), np.flatnonzero(x_1))
    fresh = dca_step(P, x_1)
    fresh_factors, _ = _record_fresh_factors(monkeypatch)
    carried = dca_step(P, x_1, _face=face)
    assert not fresh_factors
    assert carried.status is fresh.status is Status.CONVERGED
    assert carried.iterations == fresh.iterations
    assert np.max(np.abs(carried.x - fresh.x)) <= 1e-12 * np.max(np.abs(fresh.x))


def test_a_face_on_other_columns_than_supp_x_k_is_not_used(monkeypatch):
    P, x_1, face = _desk_after_one_step()
    x = x_1.copy()
    x[np.flatnonzero(x_1)[0]] = 0.0
    fresh = dca_step(P, x)
    fresh_factors, _ = _record_fresh_factors(monkeypatch)
    step = dca_step(P, x, _face=face)
    assert fresh_factors == [(0, "start")]
    assert step.x.tobytes() == fresh.x.tobytes() and step.iterations == fresh.iterations


def test_a_face_from_a_fallback_is_cleared():
    # x_k = (1, 0) gives a face whose minimizer has Ax in Q: the step falls back.
    P = ProblemSpec(A=np.eye(2), C=FullSpace(2), Q=Ball([1.0, 0.0], 0.5), gamma=0.5)
    face = Face(P.A)
    step = dca_step(P, [1.0, 0.0], _face=face)
    assert step.message.startswith("exact inner solve fell back")
    assert face.S.size == 0 and face.Q.shape == (2, 0)


def test_a_face_from_a_discarded_step_is_cleared(monkeypatch):
    # An exact result above the majorizer at x_k is refused, and so is its face.
    P = ProblemSpec(A=np.eye(3), C=FullSpace(3), Q=Ball([1.0, -2.0, 0.5], 0.0), gamma=0.5)
    x_k = np.array([0.3, -1.2, 0.0])

    def worse(spec, x0, opts, face):
        face.start(x0)
        return SolveResult(x=-3.0 * x0, status=Status.CONVERGED)

    monkeypatch.setattr(dca, "_solve_point_lasso", worse)
    face = Face(P.A)
    step = dca_step(P, x_k, _face=face)
    assert step.message.endswith("inner result discarded: no majorizer improvement")
    assert np.array_equal(step.x, x_k)
    assert face.S.size == 0
