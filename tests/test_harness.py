import csv
import dataclasses
import math
import os

import numpy as np
import pytest

from sfpsolve import baselines, harness, problem
from sfpsolve.baselines import solve_cq
from sfpsolve.harness import (
    BenchConfig,
    RandomSpec,
    SparseSpec,
    gen_random_problem,
    gen_sparse_recovery,
    parse_bench_config,
    recovery_metrics,
    run_benchmark,
    write_atomic,
)
from sfpsolve.linops import inflated_op_norm
from sfpsolve.problem import ProblemSpec
from sfpsolve.sets import Ball, FullSpace, NonnegativeOrthant, Singleton


def test_random_problem_deterministic():
    spec = RandomSpec(seed=123, m=6, n=9, trials=3)
    a = gen_random_problem(spec, 1)
    b = gen_random_problem(spec, 1)
    assert np.array_equal(a.problem.A, b.problem.A)
    assert np.array_equal(a.problem.Q.point, b.problem.Q.point)
    assert np.array_equal(a.x_true, b.x_true)


def test_random_problem_trials_differ():
    spec = RandomSpec(seed=123, m=6, n=9, trials=3)
    a = gen_random_problem(spec, 0)
    b = gen_random_problem(spec, 1)
    assert not np.array_equal(a.problem.A, b.problem.A)


def test_random_problem_is_consistent():
    spec = RandomSpec(seed=4, m=5, n=8, trials=1)
    inst = gen_random_problem(spec, 0)
    assert isinstance(inst.problem.C, NonnegativeOrthant)
    assert isinstance(inst.problem.Q, Singleton)
    assert np.all(inst.x_true >= 0)
    assert np.allclose(inst.problem.A @ inst.x_true, inst.problem.Q.point)
    assert np.array_equal(inst.x0, np.zeros(8))


def test_random_problem_trial_out_of_range():
    spec = RandomSpec(seed=0, m=2, n=2, trials=2)
    with pytest.raises(ValueError, match="out of range"):
        gen_random_problem(spec, 2)


_SMALL_RANDOM = RandomSpec(seed=0, m=2, n=2, trials=4)
_SMALL_SPARSE = SparseSpec(seed=0, m=2, n=2, sparsity=1, noise_variance=0.0, gamma=0.6)


@pytest.mark.parametrize(
    "generate, spec, trial",
    [
        (gen_random_problem, _SMALL_RANDOM, 2.5),
        (gen_sparse_recovery, _SMALL_SPARSE, 2.5),
        (gen_sparse_recovery, _SMALL_SPARSE, -1),
    ],
    ids=["random-2.5", "sparse-2.5", "sparse-minus-1"],
)
def test_generators_reject_a_trial_that_is_not_a_count(generate, spec, trial):
    # Philox was keyed with np.uint64(trial): 2.5 gave trial 2's instance and
    # -1 an OverflowError.
    with pytest.raises(ValueError, match=f"trial must be an integer >= 0, got {trial}"):
        generate(spec, trial)


def test_generators_reject_a_trial_beyond_the_philox_key():
    # Philox is keyed with the trial as one 64-bit word: 2**64 raised an
    # OverflowError, and masking it would give trial 0's instance.
    with pytest.raises(ValueError, match=r"trial must be below 2\*\*64, got 18446744073709551616"):
        gen_sparse_recovery(_SMALL_SPARSE, 2**64)
    # The largest trial keeps its instance: A is the first draw of Philox keyed (seed, trial).
    top = 2**64 - 1
    rng = np.random.Generator(np.random.Philox(key=np.array([0, top], dtype=np.uint64)))
    assert np.array_equal(gen_sparse_recovery(_SMALL_SPARSE, top).problem.A, rng.standard_normal((2, 2)))


def test_sparse_recovery_structure():
    spec = SparseSpec(seed=9, m=20, n=50, sparsity=5, noise_variance=1e-4, gamma=0.6)
    inst = gen_sparse_recovery(spec, 0)
    assert isinstance(inst.problem.C, FullSpace)
    assert np.count_nonzero(inst.x_true) == 5
    assert set(np.unique(np.abs(inst.x_true[inst.x_true != 0]))) == {1.0}
    assert inst.t_level == pytest.approx(5.0)
    assert inst.problem.gamma == 0.6


def test_sparse_recovery_zero_sparsity_noiseless():
    spec = SparseSpec(seed=9, m=4, n=6, sparsity=0, noise_variance=0.0, gamma=0.6)
    inst = gen_sparse_recovery(spec, 0)
    assert np.array_equal(inst.x_true, np.zeros(6))
    assert np.array_equal(inst.problem.Q.point, np.zeros(4))


def test_sparse_recovery_deterministic():
    spec = SparseSpec(seed=77, m=10, n=20, sparsity=3, noise_variance=1e-4, gamma=0.6)
    a = gen_sparse_recovery(spec, 2)
    b = gen_sparse_recovery(spec, 2)
    assert np.array_equal(a.problem.A, b.problem.A)
    assert np.array_equal(a.problem.Q.point, b.problem.Q.point)


def test_gaussian_moments():
    spec = RandomSpec(seed=1, m=100, n=120, trials=1)
    A = gen_random_problem(spec, 0).problem.A
    mn = A.size
    assert abs(A.mean()) <= 5.0 / np.sqrt(mn)
    assert abs(A.var() - 1.0) <= 0.1


def test_recovery_metrics_basic():
    x_true = np.array([1.0, 0.0, -1.0, 0.0])
    x_hat = np.array([0.999, 0.0, -1.001, 0.0])
    m = recovery_metrics(x_hat, x_true, iterations=10, wall_ms=1.0)
    assert m.rel_l2_error <= 2e-3
    assert m.support_precision == 1.0
    assert m.support_recall == 1.0


def test_recovery_metrics_support_counts():
    x_true = np.array([1.0, 0.0, 1.0, 0.0])
    x_hat = np.array([1.0, 0.5, 0.0, 0.0])  # one hit, one false positive, one miss
    m = recovery_metrics(x_hat, x_true, 0, 0.0)
    assert m.support_precision == pytest.approx(0.5)
    assert m.support_recall == pytest.approx(0.5)


def test_recovery_metrics_zero_truth():
    m = recovery_metrics(np.zeros(3), np.zeros(3), 0, 0.0)
    assert m.rel_l2_error == 0.0
    assert m.support_precision == 1.0 and m.support_recall == 1.0
    m2 = recovery_metrics(np.ones(3), np.zeros(3), 0, 0.0)
    assert np.isinf(m2.rel_l2_error)


def test_spec_validation():
    with pytest.raises(ValueError):
        RandomSpec(seed=0, m=0, n=3, trials=1)
    with pytest.raises(ValueError):
        SparseSpec(seed=0, m=3, n=3, sparsity=4, noise_variance=0.0, gamma=0.6)
    with pytest.raises(ValueError):
        SparseSpec(seed=0, m=3, n=3, sparsity=1, noise_variance=-1.0, gamma=0.6)
    with pytest.raises(ValueError):
        BenchConfig(kind="nope")
    with pytest.raises(ValueError):
        BenchConfig(kind="sparse", algos=("fb", "what"))


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["noise_variance", "gamma"])
def test_sparse_spec_rejects_nan_and_inf(field, value):
    # A NaN noise_variance fails the test noise_variance > 0, which would
    # silently draw noiseless measurements.
    kwargs = dict(seed=0, m=3, n=3, sparsity=1, noise_variance=1e-4, gamma=0.6)
    kwargs[field] = value
    with pytest.raises(ValueError, match=field):
        SparseSpec(**kwargs)


def test_parse_bench_config(tmp_path):
    cfg_file = tmp_path / "cfg.txt"
    cfg_file.write_text(
        "seed=5\nm=10\nn=20\nk=3\ntrials=2\ngamma=0.7\nnoise_variance=0\n"
        "algos=fb, cq\nout_dir=outx\ntraces=true\n# comment\n"
    )
    cfg = parse_bench_config(cfg_file, "sparse")
    assert cfg.seed == 5 and cfg.m == 10 and cfg.n == 20
    assert cfg.sparsity == 3 and cfg.gamma == 0.7
    assert cfg.algos == ("fb", "cq")
    assert cfg.out_dir == "outx"
    assert cfg.traces is True


def test_parse_bench_config_rejects_unknown_key(tmp_path):
    cfg_file = tmp_path / "cfg.txt"
    cfg_file.write_text("bogus=1\n")
    with pytest.raises(ValueError, match="unknown key"):
        parse_bench_config(cfg_file, "sparse")


def test_parse_bench_config_rejects_a_line_without_equals(tmp_path):
    cfg_file = tmp_path / "cfg.txt"
    cfg_file.write_text("seed=1\nm 10\n")
    with pytest.raises(ValueError, match=r"cfg\.txt:2: expected key=value$"):
        parse_bench_config(cfg_file, "sparse")


@pytest.mark.parametrize("word, value", [("on", True), ("YES", True), ("0", False), ("Off", False)])
def test_parse_bench_config_reads_each_flag_word(tmp_path, word, value):
    cfg_file = tmp_path / "cfg.txt"
    cfg_file.write_text(f"traces={word}\nquantiles={word}\n")
    cfg = parse_bench_config(cfg_file, "sparse")
    assert cfg.traces is value and cfg.quantiles is value


@pytest.mark.parametrize("key", ["traces", "quantiles"])
def test_bench_config_misspelt_flag_exits_2_with_its_line(tmp_path, capsys, key):
    from sfpsolve.cli import main

    cfg_file = tmp_path / "cfg.txt"
    cfg_file.write_text(f"trials=1\nout_dir={tmp_path / 'out'}\n{key}=ture\n")
    assert main(["bench-sparse", "--config", str(cfg_file)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg_file}:3: {key}: expected ")
    assert not (tmp_path / "out").exists()


def test_bench_config_non_integer_exits_2_with_its_line(tmp_path, capsys):
    from sfpsolve.cli import main

    cfg_file = tmp_path / "cfg.txt"
    cfg_file.write_text(f"out_dir={tmp_path / 'out'}\nm=2.5\n")
    assert main(["bench-random", "--config", str(cfg_file)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg_file}:2: m: ")


def test_bench_random_runs_fb_on_the_full_space(tmp_path):
    # The random instances constrain x to the orthant; fb runs them with C = R^n.
    cfg = BenchConfig(kind="random", seed=2, m=6, n=10, trials=1, algos=("fb",),
                      out_dir=str(tmp_path / "out"), max_iter=30)
    (row,) = run_benchmark(cfg)
    assert row["status"] in ("converged", "max_iterations"), row["message"]
    assert row["iterations"] > 0


def test_bench_computes_one_operator_norm_per_instance(tmp_path, monkeypatch):
    # The random instances constrain x to the orthant, so fb runs a copy of
    # each with C = R^n; that copy shares the instance's ||A||.  mcq's
    # level-set bound steps with the same norm: no eigendecomposition.
    calls, eigvalsh_calls = [], []
    eigvalsh = np.linalg.eigvalsh

    def counting_norm(A):
        calls.append(None)
        return inflated_op_norm(A)

    def counting_eigvalsh(M):
        eigvalsh_calls.append(None)
        return eigvalsh(M)

    monkeypatch.setattr(problem, "inflated_op_norm", counting_norm)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    cfg = BenchConfig(kind="random", seed=2, m=6, n=10, trials=2, out_dir=str(tmp_path / "out"),
                      max_iter=5)
    rows = run_benchmark(cfg)
    assert {row["algo"] for row in rows if row["status"] != "error"} == set(cfg.algos)
    assert len(calls) == cfg.trials
    assert eigvalsh_calls == []


def small_config(out_dir, traces=False):
    return BenchConfig(
        kind="sparse",
        seed=3,
        m=12,
        n=24,
        trials=2,
        gamma=0.6,
        sparsity=2,
        noise_variance=1e-4,
        algos=("cq", "fb"),
        out_dir=str(out_dir),
        max_iter=200,
        step_tol=1e-5,
        traces=traces,
    )


def test_run_benchmark_row_count_and_files(tmp_path):
    cfg = small_config(tmp_path / "out", traces=True)
    rows = run_benchmark(cfg)
    assert len(rows) == 2 * 2  # trials x algorithms
    assert [(r["trial"], r["algo"]) for r in rows] == sorted(
        (r["trial"], r["algo"]) for r in rows
    )
    assert os.path.exists(os.path.join(cfg.out_dir, "summary.csv"))
    for trial in range(2):
        for algo in ("cq", "fb"):
            assert os.path.exists(os.path.join(cfg.out_dir, f"trace_{algo}_{trial}.csv"))
    with open(os.path.join(cfg.out_dir, "summary.csv")) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        assert header[:4] == ["trial", "algo", "status", "iterations"]
        assert len(list(reader)) == 4


@pytest.mark.parametrize("algo", harness.ALGORITHMS)
def test_singleton_target_is_the_radius_zero_ball(algo, monkeypatch):
    # Q = {b} is the Lasso case eps = 0 of the tolerance set Q = B(b, eps).
    # mcq's level set is empty here; without its certificate it iterates.
    monkeypatch.setattr(baselines, "level_set_bound", lambda *args, **kwargs: -np.inf)
    cfg = small_config("unused")
    inst = gen_sparse_recovery(
        SparseSpec(seed=cfg.seed, m=cfg.m, n=cfg.n, sparsity=cfg.sparsity,
                   noise_variance=cfg.noise_variance, gamma=cfg.gamma),
        0,
    )
    b = inst.problem.Q.point
    opts = harness._bench_options(cfg, algo)
    runs = []
    for Q in (Singleton(b), Ball(b, 0.0)):
        P = ProblemSpec(A=inst.problem.A, C=inst.problem.C, Q=Q, gamma=inst.problem.gamma)
        runs.append(harness._solve_one(algo, dataclasses.replace(inst, problem=P), opts))
    single, ball = runs
    assert single.iterations > 0
    assert (single.status, single.iterations, single.message) == (
        ball.status, ball.iterations, ball.message
    )
    assert single.x.tobytes() == ball.x.tobytes()

    def columns(result):
        return [{**dataclasses.asdict(r), "elapsed_ms": None} for r in result.trace]

    assert columns(single) == columns(ball)


def strip_timing(path):
    with open(path) as fh:
        rows = [line.rstrip("\n").split(",") for line in fh]
    # timing is always the last column in both summary and trace files
    return ["," .join(r[:-1]) for r in rows]


def test_benchmark_rerun_identical_modulo_timing(tmp_path):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    run_benchmark(small_config(out1, traces=True))
    run_benchmark(small_config(out2, traces=True))
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    for name in names:
        assert strip_timing(out1 / name) == strip_timing(out2 / name), name


def test_quantile_file_shape(tmp_path):
    cfg = small_config(tmp_path / "out")
    run_benchmark(cfg)
    with open(os.path.join(cfg.out_dir, "quantiles_fb.csv")) as fh:
        header = fh.readline().strip().split(",")
    assert header[0] == "iter"
    assert "residual_q50" in header and "objective_q50" in header


def test_quantile_median_matches_traces(tmp_path):
    # The q50 column is the median across trials of the per-trial traces
    # (shorter traces extended with their final value).
    cfg = small_config(tmp_path / "out", traces=True)
    run_benchmark(cfg)

    def read_col(path, col):
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            idx = header.index(col)
            return [float(line.split(",")[idx]) for line in fh]

    traces = [
        read_col(os.path.join(cfg.out_dir, f"trace_fb_{t}.csv"), "residual")
        for t in range(cfg.trials)
    ]
    max_len = max(len(t) for t in traces)
    padded = np.array([t + [t[-1]] * (max_len - len(t)) for t in traces])
    med = read_col(os.path.join(cfg.out_dir, "quantiles_fb.csv"), "residual_q50")
    assert len(med) == max_len
    for j in range(max_len):
        assert med[j] == pytest.approx(float(np.median(padded[:, j])), rel=1e-9)


def test_write_atomic_leaves_other_writers_temp_files_alone(tmp_path):
    path = tmp_path / "summary.csv"
    other = tmp_path / "summary.csv.tmp"
    other.write_text("another writer's partial output")
    write_atomic(str(path), "a,b\n")
    assert path.read_text() == "a,b\n"
    assert other.read_text() == "another writer's partial output"


def test_write_atomic_cleans_up_and_keeps_open_permissions(tmp_path):
    plain = tmp_path / "plain.csv"
    with open(plain, "w") as fh:
        fh.write("x\n")
    path = tmp_path / "out.csv"
    write_atomic(str(path), "x\n")
    assert os.stat(path).st_mode == os.stat(plain).st_mode
    with pytest.raises(UnicodeEncodeError):
        write_atomic(str(tmp_path / "bad.csv"), "\u00e9")
    assert sorted(os.listdir(tmp_path)) == ["out.csv", "plain.csv"]


def test_run_benchmark_reports_solver_errors_and_raises_bugs(tmp_path, monkeypatch):
    def fails_with(exc):
        def solve(P, x0, opts):
            raise exc

        return harness.SOLVERS["cq"]._replace(solve=solve)

    cfg = small_config(tmp_path / "out")
    monkeypatch.setitem(harness.SOLVERS, "cq", fails_with(ValueError("bad instance")))
    rows = run_benchmark(cfg)
    errors = [r for r in rows if r["algo"] == "cq"]
    assert [r["status"] for r in errors] == ["error", "error"]
    assert errors[0]["message"] == "bad instance"
    assert all(r["status"] != "error" for r in rows if r["algo"] == "fb")
    with open(os.path.join(cfg.out_dir, "summary.csv")) as fh:
        failed = [r for r in csv.DictReader(fh) if r["algo"] == "cq"]
    assert [r["trial"] for r in failed] == ["0", "1"]
    for r in failed:
        assert (r["status"], r["iterations"], r["message"]) == ("error", "0", "bad instance")
        assert [r[name] for name in harness._SUMMARY_COLUMNS] == ["nan"] * 6
        assert float(r["wall_ms"]) >= 0.0

    monkeypatch.setitem(harness.SOLVERS, "cq", fails_with(TypeError("a bug")))
    with pytest.raises(TypeError, match="a bug"):
        run_benchmark(cfg)


def test_run_benchmark_reports_divergence_with_its_trace(tmp_path, monkeypatch):
    def oversized_step(P, x0, opts):
        return solve_cq(P, x0, dataclasses.replace(opts, step=50.0))

    cfg = small_config(tmp_path / "out", traces=True)
    monkeypatch.setitem(harness.SOLVERS, "cq", harness.SOLVERS["cq"]._replace(solve=oversized_step))
    rows = [r for r in run_benchmark(cfg) if r["algo"] == "cq"]
    assert [r["status"] for r in rows] == ["diverged", "diverged"]
    assert all(0 < r["iterations"] < cfg.max_iter for r in rows)
    with open(os.path.join(cfg.out_dir, "summary.csv")) as fh:
        summary = list(csv.DictReader(fh))
    assert [r["status"] for r in summary if r["algo"] == "cq"] == ["diverged", "diverged"]
    with open(os.path.join(cfg.out_dir, "trace_cq_0.csv")) as fh:
        assert len(fh.readlines()) == 1 + rows[0]["iterations"] + 1  # header, k = 0..iterations


def test_summary_keeps_each_message_as_one_field(tmp_path, monkeypatch):
    def noted(P, x0, opts):
        result = solve_cq(P, x0, opts)
        result.message = 'at steps 1, 2; a "quoted" word'
        return result

    cfg = small_config(tmp_path / "out")
    monkeypatch.setitem(harness.SOLVERS, "cq", harness.SOLVERS["cq"]._replace(solve=noted))
    run_benchmark(cfg)
    with open(os.path.join(cfg.out_dir, "summary.csv")) as fh:
        summary = list(csv.DictReader(fh))
    assert {r["message"] for r in summary if r["algo"] == "cq"} == {'at steps 1, 2; a "quoted" word'}
    assert all(float(r["wall_ms"]) >= 0.0 for r in summary)


@pytest.mark.parametrize(
    "kind, line, field",
    [
        ("random", "gamma=nan", "gamma"),
        ("sparse", "m=0", "m"),
        ("sparse", "k=25", "sparsity"),
        ("sparse", "noise_variance=-1", "noise_variance"),
        # A repeated name ran and counted each trial twice; an empty list
        # wrote a header-only report.
        ("sparse", "algos=cq,cq", "algos"),
        ("sparse", "algos=", "algos"),
    ],
)
def test_bad_problem_config_exits_before_out_dir_exists(tmp_path, capsys, kind, line, field):
    # The problem half of the config is checked once, before out_dir is made.
    from sfpsolve.cli import main

    out_dir = tmp_path / "bench"
    cfg = tmp_path / "cfg.txt"
    # The bad line takes the place of its key's good one: a key may appear once.
    good = ["seed=5", "m=12", "n=24", "k=2", "trials=2", "gamma=0.6", "noise_variance=0.0001",
            "algos=cq", f"out_dir={out_dir}", "max_iter=50"]
    key = line.partition("=")[0]
    cfg.write_text("".join(f"{entry}\n" for entry in good if entry.partition("=")[0] != key) + f"{line}\n")
    assert main([f"bench-{kind}", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field} must ")
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "lines, lineno, key",
    [(["seed=1", "seed=2"], 3, "seed"), (["k=5", "m=12", "k=7"], 4, "k")],
    ids=["seed", "k"],
)
def test_bench_config_repeated_key_exits_2_with_its_line(tmp_path, capsys, lines, lineno, key):
    # The later value silently won: seed 2, sparsity 7.
    from sfpsolve.cli import main

    out_dir = tmp_path / "bench"
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("".join(f"{line}\n" for line in [f"out_dir={out_dir}", *lines]))
    assert main(["bench-sparse", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg}:{lineno}: repeated key '{key}'")
    assert not out_dir.exists()
