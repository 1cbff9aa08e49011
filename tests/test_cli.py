import os

import numpy as np
import pytest

from sfpsolve.cli import main
from sfpsolve.harness import SparseSpec, gen_sparse_recovery
from sfpsolve.linops import write_matrix, write_vector
from sfpsolve.minefuku import solve_mf


@pytest.fixture()
def instance_files(tmp_path):
    rng = np.random.default_rng(0)
    A = rng.standard_normal((10, 25))
    x_true = np.zeros(25)
    x_true[[3, 11, 20]] = [1.0, -1.0, 1.0]
    b = A @ x_true
    a_path = tmp_path / "a.mat"
    b_path = tmp_path / "b.vec"
    write_matrix(a_path, A)
    write_vector(b_path, b)
    return str(a_path), str(b_path), tmp_path


def test_solve_happy_path_writes_trace(instance_files, capsys):
    a_path, b_path, tmp_path = instance_files
    trace = str(tmp_path / "trace.csv")
    code = main(
        ["solve", "--algo", "fb", "--A", a_path, "--Q", f"singleton:{b_path}",
         "--gamma", "0.6", "--trace", trace]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("status=converged iters=")
    with open(trace) as fh:
        header = fh.readline().strip()
    assert header == "iter,objective,residual,step_norm,elapsed_ms"


def test_solve_missing_gamma_is_config_error(instance_files, capsys):
    a_path, b_path, _ = instance_files
    code = main(["solve", "--algo", "dca", "--A", a_path, "--Q", f"singleton:{b_path}"])
    assert code == 2
    assert "--gamma" in capsys.readouterr().err


def test_solve_bad_set_grammar_is_config_error(instance_files, capsys):
    a_path, _, _ = instance_files
    code = main(["solve", "--algo", "fb", "--A", a_path, "--Q", "blob:3", "--gamma", "0.6"])
    assert code == 2
    assert "invalid set specification" in capsys.readouterr().err


def test_solve_mcq_requires_level(instance_files, capsys):
    a_path, b_path, _ = instance_files
    code = main(["solve", "--algo", "mcq", "--A", a_path, "--Q", f"singleton:{b_path}"])
    assert code == 2
    assert "--t" in capsys.readouterr().err


def test_solve_nonconvergence_exit_code(instance_files, capsys):
    a_path, b_path, _ = instance_files
    code = main(
        ["solve", "--algo", "fb", "--A", a_path, "--Q", f"singleton:{b_path}",
         "--gamma", "0.6", "--max-iter", "2"]
    )
    assert code == 1
    assert "status=max_iterations" in capsys.readouterr().out


def test_solve_algo_choices_validated(instance_files):
    a_path, b_path, _ = instance_files
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--algo", "nope", "--A", a_path, "--Q", f"singleton:{b_path}"])
    assert exc.value.code == 2


def test_solve_cq_with_orthant_domain(instance_files, capsys):
    a_path, b_path, _ = instance_files
    code = main(
        ["solve", "--algo", "cq", "--A", a_path, "--Q", f"singleton:{b_path}",
         "--C", "orthant:25"]
    )
    assert code in (0, 1)
    assert "status=" in capsys.readouterr().out


def test_prox_check_subcommand(capsys):
    code = main(["prox-check", "--samples", "10", "--seed", "3"])
    assert code == 0
    assert "max_gap=" in capsys.readouterr().out


def test_bench_sparse_subcommand(tmp_path, capsys):
    out_dir = tmp_path / "bench"
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        "seed=5\nm=12\nn=24\nk=2\ntrials=2\ngamma=0.6\nnoise_variance=0.0001\n"
        f"algos=fb,cq\nout_dir={out_dir}\nmax_iter=150\n"
    )
    code = main(["bench-sparse", "--config", str(cfg)])
    assert code == 0
    assert "wrote 4 rows" in capsys.readouterr().out
    with open(out_dir / "summary.csv") as fh:
        assert len(fh.readlines()) == 5  # header + trials*algos


def test_bench_random_subcommand(tmp_path, capsys):
    out_dir = tmp_path / "bench"
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        "seed=5\nm=8\nn=16\ntrials=2\ngamma=0.6\n"
        f"algos=cq,mf\nout_dir={out_dir}\nmax_iter=100\n"
    )
    code = main(["bench-random", "--config", str(cfg)])
    assert code == 0
    assert os.path.exists(out_dir / "summary.csv")


@pytest.mark.parametrize(
    "line, field",
    [
        ("max_iter=0", "max_iter"),
        ("step_tol=nan", "step_tol"),
        ("trials=0", "trials"),
        ("noise_variance=nan", "noise_variance"),
    ],
)
def test_bench_rejects_an_out_of_range_config_before_any_trial(tmp_path, capsys, line, field):
    out_dir = tmp_path / "bench"
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        "seed=5\nm=12\nn=24\nk=2\ntrials=2\ngamma=0.6\nnoise_variance=0.0001\n"
        f"algos=fb,cq\nout_dir={out_dir}\nmax_iter=150\n{line}\n"
    )
    code = main(["bench-sparse", "--config", str(cfg)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {field} must be ")
    assert not os.path.exists(out_dir / "summary.csv")


def test_bench_missing_config_is_config_error(tmp_path, capsys):
    code = main(["bench-sparse", "--config", str(tmp_path / "missing.txt")])
    assert code == 2


def test_bench_sparse_paper_scale_flag(tmp_path, capsys):
    out_dir = tmp_path / "bench"
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        "seed=5\nm=12\nn=24\nk=2\ntrials=1\ngamma=0.6\nnoise_variance=0.0001\n"
        f"algos=cq\nout_dir={out_dir}\nmax_iter=50\n"
    )
    code = main(["bench-sparse", "--config", str(cfg), "--paper-scale"])
    out = capsys.readouterr().out
    assert code == 0
    assert "m=120 n=512 k=50" in out


def test_trace_has_no_partial_writes(instance_files, tmp_path):
    # atomic write: the trace path never exists in truncated form, so a
    # second run just replaces it
    a_path, b_path, _ = instance_files
    trace = str(tmp_path / "t.csv")
    for _ in range(2):
        assert main(
            ["solve", "--algo", "cq", "--A", a_path, "--Q", f"singleton:{b_path}",
             "--trace", trace]
        ) in (0, 1)
        with open(trace) as fh:
            lines = fh.readlines()
        assert lines[0].startswith("iter,") and lines[-1].endswith("\n")
    assert not os.path.exists(trace + ".tmp")


def test_solve_unset_flags_take_library_defaults(tmp_path, capsys):
    inst = gen_sparse_recovery(
        SparseSpec(seed=2, m=10, n=25, sparsity=3, noise_variance=1e-4, gamma=0.6), 0
    )
    write_matrix(tmp_path / "a.mat", inst.problem.A)
    write_vector(tmp_path / "b.vec", inst.problem.Q.point)
    expected = solve_mf(inst.problem, inst.x0)
    assert expected.iterations == 72
    code = main(
        ["solve", "--algo", "mf", "--A", str(tmp_path / "a.mat"),
         "--Q", f"singleton:{tmp_path / 'b.vec'}", "--gamma", "0.6"]
    )
    assert code == 0
    assert f"iters={expected.iterations} " in capsys.readouterr().out


def test_solve_inner_flags_only_reach_dca(instance_files, capsys):
    a_path, b_path, _ = instance_files
    args = ["solve", "--A", a_path, "--Q", f"singleton:{b_path}", "--gamma", "0.6",
            "--inner-tau", "1.5", "--kappa", "0.3"]
    assert main(args + ["--algo", "mf"]) == 2
    assert main(args + ["--algo", "dca"]) in (0, 1)
    assert main(args + ["--algo", "dca", "--inner-tau", "2.5"]) == 2
    assert "tau must lie in (0, 2)" in capsys.readouterr().err


def test_solve_rejects_flags_the_solver_has_no_option_for(instance_files, capsys):
    a_path, b_path, tmp_path = instance_files
    args = ["solve", "--A", a_path, "--Q", f"singleton:{b_path}", "--gamma", "0.6"]
    assert main(args + ["--algo", "mf", "--step", "0.1", "--t", "2"]) == 2
    assert "--algo mf takes no --step, --t" in capsys.readouterr().err
    assert main(args + ["--algo", "cq", "--zero-tol", "1e-9"]) == 2
    assert "--algo cq takes no --zero-tol" in capsys.readouterr().err
    # the iteration controls and the problem flags reach every solver
    write_vector(tmp_path / "x0.vec", np.zeros(25))
    args += ["--C", "fullspace:25", "--x0", str(tmp_path / "x0.vec"),
             "--trace", str(tmp_path / "t.csv"), "--max-iter", "3", "--step-tol", "1e-3"]
    for extra in (["--algo", "dca"], ["--algo", "fb"], ["--algo", "mf"], ["--algo", "cq"],
                  ["--algo", "mcq", "--t", "3"]):
        assert main(args + extra) in (0, 1)


def test_solve_divergence_exits_not_converged(instance_files, capsys):
    a_path, b_path, _ = instance_files
    code = main(["solve", "--algo", "cq", "--A", a_path, "--Q", f"singleton:{b_path}",
                 "--step", "5"])
    assert code == 1
    assert capsys.readouterr().out.startswith("status=diverged ")


def test_solve_all_zero_matrix_is_config_error(instance_files, capsys):
    _, b_path, tmp_path = instance_files
    zero_path = tmp_path / "zero.mat"
    write_matrix(zero_path, np.zeros((10, 25)))
    code = main(["solve", "--algo", "fb", "--A", str(zero_path), "--Q", f"singleton:{b_path}",
                 "--gamma", "0.6"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: A must have a nonzero entry")


def test_solve_op_norm_whose_square_overflows_is_config_error(instance_files, capsys):
    _, b_path, tmp_path = instance_files
    big_path = tmp_path / "big.mat"
    write_matrix(big_path, 1e200 * np.eye(10, 25))
    code = main(["solve", "--algo", "fb", "--A", str(big_path), "--Q", f"singleton:{b_path}",
                 "--gamma", "0.6"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ||A|| = 1e+200 is too large")


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--algo", "mf", "--gamma", "0.1", "--lambda-max", "nan"], "lambda_max"),
        (["--algo", "dca", "--gamma", "0.1", "--inner-tol", "nan"], "tol"),
        (["--algo", "mcq", "--t", "nan"], "t"),
        (["--algo", "mcq", "--t", "3", "--sigma", "nan"], "sigma"),
        (["--algo", "fb", "--gamma", "0.1", "--step-tol", "nan"], "step_tol"),
        (["--algo", "fb", "--gamma", "inf"], "gamma"),
    ],
    ids=["lambda-max", "inner-tol", "t", "sigma", "step-tol", "gamma-inf"],
)
def test_solve_rejects_nan_and_inf_options(instance_files, capsys, flags, field):
    a_path, b_path, _ = instance_files
    code = main(["solve", "--A", a_path, "--Q", f"singleton:{b_path}", *flags])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {field} must be ")


def test_solve_nan_ball_radius_is_config_error(instance_files, capsys):
    a_path, b_path, _ = instance_files
    code = main(["solve", "--algo", "cq", "--A", a_path, "--Q", f"ball:{b_path}:nan"])
    assert code == 2
    assert "radius" in capsys.readouterr().err


def test_solve_certified_empty_level_set_exits_not_converged(instance_files, capsys):
    # t is far below min ||x||_1 over {Ax = b}, at most ||x_true||_1 = 3.
    a_path, b_path, _ = instance_files
    code = main(["solve", "--algo", "mcq", "--A", a_path, "--Q", f"singleton:{b_path}",
                 "--t", "0.5"])
    assert code == 1
    assert capsys.readouterr().out.startswith("status=infeasible iters=0 ")
