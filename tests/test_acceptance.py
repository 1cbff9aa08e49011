"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its key measurements (run with ``pytest -s`` to see the
lines as they complete).

The suite is deterministic: every random draw flows from fixed seeds, so
reruns reproduce the exact same numbers.
"""

import os
import time

import numpy as np
import pytest

from sfpsolve.baselines import CqOptions, solve_cq
from sfpsolve.cli import main as cli_main
from sfpsolve.dca import DcaOptions, solve_dca
from sfpsolve.fbsplit import FbOptions, solve_fb
from sfpsolve.harness import (
    BenchConfig,
    RandomSpec,
    SparseSpec,
    gen_random_problem,
    gen_sparse_recovery,
    run_benchmark,
)
from sfpsolve.inner import InnerOptions, SubproblemSpec, solve_dr_in_fb, solve_fb_in_dr
from sfpsolve.linops import inflated_op_norm
from sfpsolve.minefuku import MfOptions, solve_mf
from sfpsolve.oracles import grid_minimize, prox_check
from sfpsolve.problem import ProblemSpec, Status, stationarity_residual
from sfpsolve.sets import (
    Ball,
    Box,
    FullSpace,
    L1Ball,
    NonnegativeOrthant,
    Singleton,
)

SUITE_SEED = 1


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}")


# ---------------------------------------------------------------------------
# shared runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def dca_random_runs():
    """20 consistent-system instances (m=40, n=100) solved with the DC loop."""
    spec = RandomSpec(seed=SUITE_SEED, m=40, n=100, trials=20)
    t0 = time.perf_counter()
    runs = []
    for trial in range(20):
        inst = gen_random_problem(spec, trial)
        runs.append((inst, solve_dca(inst.problem, inst.x0, DcaOptions())))
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def sparse_bench(tmp_path_factory):
    """The desk-scale recovery benchmark over all five algorithms."""
    out_dir = tmp_path_factory.mktemp("bench")
    cfg = BenchConfig(
        kind="sparse",
        seed=SUITE_SEED,
        m=100,
        n=256,
        trials=20,
        gamma=0.6,
        sparsity=10,
        noise_variance=1e-4,
        algos=("dca", "fb", "mf", "cq", "mcq"),
        out_dir=str(out_dir),
        max_iter=1000,
        step_tol=1e-5,
    )
    t0 = time.perf_counter()
    rows = run_benchmark(cfg)
    return rows, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_prox_fidelity():
    t0 = time.perf_counter()
    gap = prox_check(count=500, seed=0, step=1e-3)
    elapsed = time.perf_counter() - t0
    ok = gap <= 5e-3 and elapsed < 30.0
    report(1, ok, f"max |objective gap| {gap:.2e} over 500 inputs in {elapsed:.1f}s")
    assert gap <= 5e-3
    assert elapsed < 30.0


def test_criterion_2_dca_descent(dca_random_runs):
    runs, elapsed = dca_random_runs
    worst = -np.inf
    for _, result in runs:
        diffs = np.diff(result.objectives())
        if diffs.size:
            worst = max(worst, float(np.max(diffs)))
    ok = worst <= 1e-6 and elapsed < 120.0
    report(2, ok, f"worst objective increase {worst:.2e} over 20 runs in {elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed < 120.0


def test_criterion_3_fb_descent_and_step_bound():
    t0 = time.perf_counter()
    spec = SparseSpec(seed=SUITE_SEED, m=40, n=100, sparsity=8, noise_variance=1e-4, gamma=0.6)
    worst = -np.inf
    for trial in range(20):
        inst = gen_sparse_recovery(spec, trial)
        result = solve_fb(inst.problem, inst.x0, FbOptions())
        worst = max(worst, float(np.max(np.diff(result.objectives()))))
    descent_ok = worst <= 1e-10

    violations = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        m, n = rng.integers(2, 5), rng.integers(2, 5)
        A = rng.standard_normal((m, n)) * rng.uniform(0.5, 3)
        P = ProblemSpec(
            A=A,
            C=FullSpace(n),
            Q=Singleton(rng.standard_normal(m) * rng.uniform(0.5, 3)),
            gamma=rng.uniform(0.2, 2.0),
        )
        bound = P.gamma / inflated_op_norm(P.A) ** 2
        r = solve_fb(
            P, rng.standard_normal(n),
            FbOptions(step=1.5 * bound, allow_unsafe_step=True, max_iter=200),
        )
        if np.any(np.diff(r.objectives()) > 1e-10):
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = descent_ok and violations > 0
    report(
        3,
        ok,
        f"safe-step worst increase {worst:.2e}; oversized step broke descent on "
        f"{violations}/100 small instances ({elapsed:.1f}s)",
    )
    assert descent_ok
    assert violations > 0


def test_criterion_4_sparse_recovery(sparse_bench):
    rows, elapsed = sparse_bench
    by_algo = {}
    for row in rows:
        by_algo.setdefault(row["algo"], []).append(row["rel_l2_error"])
    rates = {a: float(np.mean(np.array(v) < 1e-2)) for a, v in by_algo.items()}
    medians = {a: float(np.median(v)) for a, v in by_algo.items()}
    regularized_ok = all(rates[a] >= 0.8 for a in ("dca", "fb", "mf"))
    ordering_ok = all(medians["cq"] > medians[a] for a in ("dca", "fb", "mf"))
    ok = regularized_ok and ordering_ok and elapsed < 600.0
    report(
        4,
        ok,
        "recovery rates "
        + ", ".join(f"{a}={rates[a]*100:.0f}%" for a in ("dca", "fb", "mf"))
        + f"; medians cq={medians['cq']:.2e} vs best={min(medians[a] for a in ('dca','fb','mf')):.2e} "
        f"({elapsed:.0f}s)",
    )
    assert regularized_ok
    assert ordering_ok
    assert elapsed < 600.0


def test_criterion_5_inner_solver_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    opts = InnerOptions(tol=1e-6, outer_max=30000)
    worst_pair = 0.0
    for _ in range(10):
        A = rng.standard_normal((12, 20))
        x_true = np.zeros(20)
        x_true[rng.choice(20, 4, replace=False)] = rng.choice([-1.0, 1.0], 4)
        P = ProblemSpec(A=A, C=FullSpace(20), Q=Singleton(A @ x_true), gamma=0.5)
        sub = SubproblemSpec(base=P, v=0.3 * rng.standard_normal(20))
        oa = sub.objective(solve_fb_in_dr(sub, np.zeros(20), opts).x)
        ob = sub.objective(solve_dr_in_fb(sub, np.zeros(20), opts).x)
        worst_pair = max(worst_pair, abs(oa - ob))

    worst_grid = 0.0
    for _ in range(3):
        A = rng.standard_normal((3, 2))
        b = A @ rng.uniform(0.0, 0.8, 2)
        P = ProblemSpec(A=A, C=NonnegativeOrthant(2), Q=Singleton(b), gamma=0.4)
        sub = SubproblemSpec(base=P, v=0.2 * rng.standard_normal(2))

        def objective_batch(V, A=A, b=b, sub=sub):
            AV = A @ V
            fit = 0.5 * np.sum((AV - b[:, None]) ** 2, axis=0)
            return fit + sub.v @ V + 0.4 * np.sum(np.abs(V), axis=0)

        _, grid_val = grid_minimize(objective_batch, P.C, [0.0, 0.0], [2.0, 2.0], 1e-3)
        for solver in (solve_fb_in_dr, solve_dr_in_fb):
            val = sub.objective(solver(sub, np.zeros(2), opts).x)
            worst_grid = max(worst_grid, abs(val - grid_val))
    elapsed = time.perf_counter() - t0
    ok = worst_pair <= 1e-5 and worst_grid <= 1e-3 and elapsed < 120.0
    report(
        5,
        ok,
        f"pairwise objective gap {worst_pair:.2e} (10 instances); grid gap "
        f"{worst_grid:.2e} (2-D) in {elapsed:.1f}s",
    )
    assert worst_pair <= 1e-5
    assert worst_grid <= 1e-3
    assert elapsed < 120.0


def test_criterion_6_cq_consistency():
    spec = RandomSpec(seed=5, m=40, n=100, trials=20)
    worst = 0.0
    for trial in range(20):
        inst = gen_random_problem(spec, trial)
        result = solve_cq(inst.problem, inst.x0, CqOptions(step_tol=0.0, max_iter=1000))
        worst = max(worst, min(rec.sfp_residual for rec in result.trace))
    ok = worst <= 1e-10
    report(6, ok, f"worst final residual {worst:.2e} over 20 consistent instances")
    assert worst <= 1e-10


def test_criterion_7_stationarity_certificates(dca_random_runs):
    runs, _ = dca_random_runs
    dca_opts = DcaOptions()
    worst_dca = 0.0
    converged = 0
    for inst, result in runs:
        if result.status == Status.CONVERGED:
            converged += 1
            worst_dca = max(worst_dca, stationarity_residual(inst.problem, result.x))
    dca_ok = converged > 0 and worst_dca <= 10 * dca_opts.step_tol

    spec = SparseSpec(seed=SUITE_SEED, m=60, n=128, sparsity=6, noise_variance=1e-4, gamma=0.6)
    mf_opts = MfOptions()
    worst_mf_margin = 0.0
    mf_converged = 0
    for trial in range(5):
        inst = gen_sparse_recovery(spec, trial)
        result = solve_mf(inst.problem, inst.x0, mf_opts)
        if result.status == Status.CONVERGED:
            mf_converged += 1
            tol = mf_opts.resolve_stationarity_tol(inst.problem)
            res = stationarity_residual(inst.problem, result.x)
            worst_mf_margin = max(worst_mf_margin, res / (10 * tol))
    mf_ok = mf_converged > 0 and worst_mf_margin <= 1.0
    ok = dca_ok and mf_ok
    report(
        7,
        ok,
        f"DCA residual {worst_dca:.2e} <= {10 * dca_opts.step_tol:.0e} over "
        f"{converged} converged runs; MF residual at {worst_mf_margin:.2f}x its "
        f"budget over {mf_converged} converged runs",
    )
    assert dca_ok
    assert mf_ok


def test_criterion_8_asymptotic_regularity(dca_random_runs):
    runs, _ = dca_random_runs
    singleton_ok = all(r.trace[-1].step_norm <= 1e-5 for _, r in runs)

    # cone-target instances: the scheme reaches the origin (which solves the
    # problem exactly since the cone absorbs it) and the steps vanish
    rng = np.random.default_rng(17)
    cone_ok = True
    worst_cone = 0.0
    for _ in range(5):
        m, n = 30, 60
        A = rng.standard_normal((m, n))
        P = ProblemSpec(A=A, C=FullSpace(n), Q=NonnegativeOrthant(m), gamma=0.6)
        result = solve_dca(P, rng.standard_normal(n), DcaOptions())
        final_step = result.trace[-1].step_norm
        worst_cone = max(worst_cone, final_step)
        cone_ok = cone_ok and final_step <= 1e-5 and result.converged
    ok = singleton_ok and cone_ok
    report(
        8,
        ok,
        f"singleton-target final steps all <= 1e-5 ({len(runs)} runs); "
        f"cone-target worst final step {worst_cone:.2e} (5 runs)",
    )
    assert singleton_ok
    assert cone_ok


def test_criterion_9_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    sets = [
        FullSpace(5),
        NonnegativeOrthant(5),
        Singleton(rng.standard_normal(5)),
        Ball(rng.standard_normal(5), 1.2),
        Box(-np.ones(5), np.ones(5)),
        L1Ball(1.5, 5),
    ]
    checks = {
        "idempotence": 0,
        "nonexpansive": 0,
        "variational": 0,
        "homogeneity": 0,
        "subgradient": 0,
        "adjoint": 0,
    }
    for i in range(1000):
        S = sets[i % len(sets)]
        x = rng.standard_normal(5) * 3
        y = rng.standard_normal(5) * 3
        p = S.project(x)
        assert np.linalg.norm(S.project(p) - p) <= 1e-12
        checks["idempotence"] += 1
        assert np.linalg.norm(p - S.project(y)) <= np.linalg.norm(x - y) + 1e-12
        checks["nonexpansive"] += 1
        z = S.project(rng.standard_normal(5) * 3)
        assert float((x - p) @ (z - p)) <= 1e-9
        checks["variational"] += 1

    from sfpsolve.baselines import select_subgradient

    for i in range(1000):
        cone = NonnegativeOrthant(5) if i % 2 == 0 else FullSpace(5)
        x = rng.standard_normal(5) * 2
        alpha = rng.uniform(0.01, 20.0)
        lhs = cone.project(alpha * x)
        assert np.linalg.norm(lhs - alpha * cone.project(x)) <= 1e-12 * (1 + alpha)
        checks["homogeneity"] += 1

        u = rng.standard_normal(5) * 2
        u[rng.integers(5)] = 0.0
        xi = select_subgradient(u)
        w = rng.standard_normal(5) * 3
        assert np.sum(np.abs(w)) >= np.sum(np.abs(u)) + float(xi @ (w - u)) - 1e-12
        checks["subgradient"] += 1

        A = rng.standard_normal((4, 5))
        v = rng.standard_normal(5)
        w2 = rng.standard_normal(4)
        gap = abs(float((A @ v) @ w2) - float(v @ (A.T @ w2)))
        assert gap <= 1e-10 * (1 + np.linalg.norm(v) * np.linalg.norm(w2))
        checks["adjoint"] += 1
    elapsed = time.perf_counter() - t0
    ok = all(v == 1000 for v in checks.values())
    report(9, ok, f"1000 samples per property, all held ({elapsed:.1f}s)")
    assert ok


def test_criterion_10_benchmark_determinism(tmp_path, capsys):
    cfg_text = (
        "seed=3\nm=20\nn=40\nk=3\ntrials=2\ngamma=0.6\nnoise_variance=0.0001\n"
        "algos=fb,cq,mcq\nmax_iter=300\ntraces=true\n"
    )
    outputs = []
    for run in range(2):
        out_dir = tmp_path / f"run{run}"
        cfg = tmp_path / f"cfg{run}.txt"
        cfg.write_text(cfg_text + f"out_dir={out_dir}\n")
        assert cli_main(["bench-sparse", "--config", str(cfg)]) == 0
        files = {}
        for name in sorted(os.listdir(out_dir)):
            with open(out_dir / name) as fh:
                rows = [line.rstrip("\n").split(",") for line in fh]
            # timing is the trailing column of summary and trace files
            if name.startswith(("summary", "trace")):
                rows = [r[:-1] for r in rows]
            files[name] = rows
        outputs.append(files)
    capsys.readouterr()
    same_names = sorted(outputs[0]) == sorted(outputs[1])
    identical = same_names and all(outputs[0][k] == outputs[1][k] for k in outputs[0])
    report(
        10,
        identical,
        f"{len(outputs[0])} output files byte-identical after dropping timing columns",
    )
    assert identical
