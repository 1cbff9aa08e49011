"""Workload definitions, the solver table and the per-solve correctness checks.

Every workload is a fixed number of trials drawn from the workload seed with
the package's own generators; each trial runs the five public solvers back to
back with the benchmark harness settings (``sfpsolve.harness``): 1000
iterations, step tolerance 1e-5, the ``mcq`` level set to the instance's
``t_level`` and ``fb`` on the ``C = R^n`` variant when ``C`` is not the full
space.

Solvers are looked up on the ``sfpsolve`` package at call time, so an
installed tracer sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import sfpsolve

SOLVERS = ("dca", "fb", "mf", "cq", "mcq")
QUALITY_SOLVERS = ("dca", "fb", "mf")
MAX_ITER = 1000
STEP_TOL = 1e-5
GAMMA = 0.6

SPARSE_SHAPE = dict(m=100, n=256, sparsity=10, noise_variance=1e-4)
RANDOM_SHAPE = dict(m=40, n=100)

# Trials per pass, sized so one pass takes 30-50 s on a 2-vCPU x86-64 host.
TRIALS = {
    "sparse-fullspace": 24,
    "sparse-l1ball": 14,
    "random-orthant": 8,
}
WORKLOADS = tuple(TRIALS)

# Steps of the reference kernel timed before each trial (see reference_kernel).
REFERENCE_ITERS = 600

MEMBER_TOL = 1e-9
# Relative slack for round-off when comparing objective values.
OBJECTIVE_RTOL = 1e-12


@dataclass(frozen=True)
class Case:
    """One trial: the generated instance and the problem each solver gets."""

    trial: int
    instance: sfpsolve.Instance
    problems: dict


def _sparse_instance(seed: int, trial: int) -> sfpsolve.Instance:
    spec = sfpsolve.SparseSpec(seed=seed, gamma=GAMMA, **SPARSE_SHAPE)
    return sfpsolve.gen_sparse_recovery(spec, trial)


def _l1ball_instance(seed: int, trial: int) -> sfpsolve.Instance:
    """The sparse-fullspace instance with C = l1 ball, Q = noise ball around b."""
    inst = _sparse_instance(seed, trial)
    P = inst.problem
    radius = float(np.sqrt(P.m * SPARSE_SHAPE["noise_variance"]))
    problem = sfpsolve.ProblemSpec(
        A=P.A,
        C=sfpsolve.L1Ball(inst.t_level, P.n),
        Q=sfpsolve.Ball(P.Q.point, radius),
        gamma=P.gamma,
    )
    return sfpsolve.Instance(
        problem=problem, x_true=inst.x_true, x0=inst.x0, t_level=inst.t_level
    )


def _random_instance(seed: int, trial: int) -> sfpsolve.Instance:
    spec = sfpsolve.RandomSpec(seed=seed, trials=TRIALS["random-orthant"], **RANDOM_SHAPE)
    return sfpsolve.gen_random_problem(spec, trial, gamma=GAMMA)


_GENERATORS = {
    "sparse-fullspace": _sparse_instance,
    "sparse-l1ball": _l1ball_instance,
    "random-orthant": _random_instance,
}


def make_cases(workload: str, seed: int) -> list[Case]:
    """Generate every trial of ``workload`` and build each solver's problem."""
    cases = []
    for trial in range(TRIALS[workload]):
        inst = _GENERATORS[workload](seed, trial)
        P = inst.problem
        fb_problem = P
        if not isinstance(P.C, sfpsolve.FullSpace):
            fb_problem = sfpsolve.ProblemSpec(
                A=P.A, C=sfpsolve.FullSpace(P.n), Q=P.Q, gamma=P.gamma
            )
        problems = {solver: P for solver in SOLVERS}
        problems["fb"] = fb_problem
        cases.append(Case(trial=trial, instance=inst, problems=problems))
    return cases


def solve(solver: str, case: Case) -> sfpsolve.SolveResult:
    """Run one public entry point with the harness settings."""
    P = case.problems[solver]
    x0 = case.instance.x0
    if solver == "dca":
        return sfpsolve.solve_dca(P, x0, sfpsolve.DcaOptions(max_outer=MAX_ITER, step_tol=STEP_TOL))
    if solver == "fb":
        return sfpsolve.solve_fb(P, x0, sfpsolve.FbOptions(max_iter=MAX_ITER, step_tol=STEP_TOL))
    if solver == "mf":
        return sfpsolve.solve_mf(P, x0, sfpsolve.MfOptions(max_iter=MAX_ITER, step_tol=STEP_TOL))
    if solver == "cq":
        return sfpsolve.solve_cq(P, x0, sfpsolve.CqOptions(max_iter=MAX_ITER, step_tol=STEP_TOL))
    return sfpsolve.solve_mcq(
        P,
        x0,
        sfpsolve.McqOptions(t=case.instance.t_level, max_iter=MAX_ITER, step_tol=STEP_TOL),
    )


def reference_kernel(case: Case) -> None:
    """Fixed plain-numpy work on the trial's own matrix, timed to track the host.

    ``REFERENCE_ITERS`` steps of the shape of one forward-backward iteration
    as the package does it today: a finiteness check of ``A``, a product with
    ``A`` and one with ``A.T``, and a soft-threshold.  It calls no sfpsolve
    code, so a change to the package does not change its cost.
    """
    A = case.problems["dca"].A
    b = np.ones(A.shape[0])
    step = 1.0 / float(np.sum(A * A))
    x = np.zeros(A.shape[1])
    for _ in range(REFERENCE_ITERS):
        if not np.all(np.isfinite(A)):
            raise ValueError("A contains non-finite entries")
        y = x - step * (A.T @ (A @ x - b))
        x = np.sign(y) * np.maximum(np.abs(y) - step, 0.0)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= OBJECTIVE_RTOL * max(1.0, abs(b))


def check(solver: str, case: Case, result: sfpsolve.SolveResult) -> list[str]:
    """Return the reasons ``result`` is wrong (empty when every check holds)."""
    P = case.problems[solver]
    x = np.asarray(result.x)
    if x.shape != (P.n,):
        return [f"x has shape {x.shape}, expected ({P.n},)"]
    if not np.all(np.isfinite(x)):
        return ["x has non-finite entries"]
    problems = []
    if solver in ("dca", "mf", "cq") and not P.C.contains(x, MEMBER_TOL):
        problems.append(f"x is not in C within {MEMBER_TOL:g}")
    if solver in ("dca", "mf"):
        obj = result.objectives()
        rises = np.diff(obj) > OBJECTIVE_RTOL * np.maximum(1.0, np.abs(obj[:-1]))
        if np.any(rises):
            k = int(np.argmax(rises)) + 1
            problems.append(f"objective rises at record {k}: {obj[k - 1]!r} -> {obj[k]!r}")
        recomputed = sfpsolve.gamma_objective(P, x)
        if not _close(float(obj[-1]), recomputed):
            problems.append(
                f"last trace objective {obj[-1]!r} != gamma_objective(P, x) {recomputed!r}"
            )
    return problems


def quality(solver: str, case: Case, result: sfpsolve.SolveResult) -> tuple[float, float]:
    """(relative l2 error against the truth, objective on the problem solved)."""
    rel = sfpsolve.recovery_metrics(result.x, case.instance.x_true, result.iterations, 0.0)
    return rel.rel_l2_error, sfpsolve.gamma_objective(case.problems[solver], result.x)


def digest_update(h, solver: str, case: Case, result) -> None:
    """Feed the deterministic outputs of one solve into ``h``."""
    h.update(f"{case.trial}:{solver}:".encode())
    if isinstance(result, BaseException):
        h.update(f"raised {type(result).__name__}: {result}".encode())
        return
    h.update(f"{result.status.value}:{result.iterations}:{result.message}".encode())
    h.update(np.ascontiguousarray(result.x, dtype=float).tobytes())
    h.update(result.objectives().tobytes())
