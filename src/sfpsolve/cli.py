"""Command-line interface.

Subcommands::

    solve         run one solver on a problem given by files and set specs
    bench-random  random consistent-system benchmark from a config file
    bench-sparse  sparse-recovery benchmark from a config file
    prox-check    compare the closed-form l1-l2 prox against a grid oracle

Exit codes: 0 on success, 1 when a solver stops without converging (at its
iteration limit, on divergence, or ``infeasible``: ``mcq`` proved its level
set empty), 2 on configuration or parse errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from .harness import (
    ALGORITHMS,
    SOLVERS,
    parse_bench_config,
    run_benchmark,
    trace_csv,
    write_atomic,
)
from .inner import INNER_SOLVERS, InnerOptions
from .linops import check_positive, read_matrix, read_vector
from .oracles import prox_check
from .problem import ConfigurationError, ProblemSpec
from .sets import FullSpace, parse_set

EXIT_OK = 0
EXIT_NOT_CONVERGED = 1
EXIT_CONFIG = 2

# The InnerOptions fields that only fb-in-dr reads.
_FB_IN_DR_ONLY = ("kappa", "tau", "lambda_relax", "budget_base", "budget_cap")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfpsolve",
        description="Solvers and benchmarks for l1-l2 regularized split feasibility problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve a single problem instance")
    ps.add_argument("--algo", required=True, choices=ALGORITHMS)
    ps.add_argument("--A", required=True, help="matrix file (first line 'rows cols')")
    ps.add_argument("--Q", required=True, help="target set spec, e.g. singleton:b.vec")
    ps.add_argument("--C", default=None, help="domain set spec (default fullspace:n)")
    ps.add_argument("--gamma", type=float, default=None,
                    help="regularization weight; for mcq (default 1.0) the l1 weight "
                    "of the FISTA run that tries to prove the level set empty")
    ps.add_argument("--x0", default=None, help="start vector file (default zeros)")
    ps.add_argument("--trace", default=None, help="write per-iteration CSV here")
    # Each solver flag's dest is the options field it sets (``inner_<field>``
    # for the DCA inner solver); unset flags keep the library defaults.
    solver_flags = {}  # dest -> flag, to name the flags a solver cannot take

    def solver_flag(flag, **kwargs):
        solver_flags[ps.add_argument(flag, **kwargs).dest] = flag

    solver_flag("--max-iter", type=int)
    solver_flag("--step-tol", type=float)
    solver_flag("--step", type=float, help="fb/cq step size")
    solver_flag(
        "--inner-solver", choices=sorted(INNER_SOLVERS),
        help="dca subproblem solver, used on every problem; unset, dca solves exactly "
        "(feature-sign search) on C = R^n with a point Q, where of the --inner-* flags "
        "only --inner-tol and --inner-max apply, and uses dr-in-fb elsewhere; --kappa, "
        "--inner-tau, --inner-lambda and --inner-budget-* are accepted only with fb-in-dr",
    )
    solver_flag("--kappa", dest="inner_kappa", type=float, help="fb-in-dr DR scale")
    solver_flag("--inner-tol", type=float, help="inner tolerance (the exact solve's column-test slack)")
    solver_flag(
        "--inner-max", dest="inner_outer_max", type=int,
        help="inner iteration cap (the exact solve's pivot cap)",
    )
    solver_flag("--inner-tau", type=float, help="fb-in-dr DR relaxation in (0,2)")
    solver_flag(
        "--inner-lambda", dest="inner_lambda_relax", type=float,
        help="fb-in-dr FB relaxation in (0,1]",
    )
    solver_flag(
        "--inner-step-fraction", type=float,
        help="inner step as a fraction in (0,1) of 1/||A||^2 (dr-in-fb) "
        "or of 2/(kappa*||A||^2) (fb-in-dr)",
    )
    solver_flag("--inner-budget-base", type=int, help="fb-in-dr inner steps at its first outer step")
    solver_flag("--inner-budget-cap", type=int, help="fb-in-dr cap on inner steps per outer step")
    solver_flag("--zero-tol", type=float, help="dca zero-iterate threshold")
    solver_flag("--mu", dest="mu_shift", type=float, help="mf quadratic shift")
    solver_flag("--lambda-max", type=float, help="mf line-search bracket")
    solver_flag("--gs-evals", dest="golden_evals", type=int, help="mf golden-section budget")
    solver_flag("--stationarity-tol", type=float)
    solver_flag("--t", type=float, help="mcq l1 level")
    solver_flag("--sigma", type=float, help="mcq initial step scale")
    solver_flag("--l", type=float, help="mcq backtracking ratio")
    solver_flag("--mu-armijo", dest="mu", type=float, help="mcq acceptance constant")
    ps.set_defaults(solver_flags=solver_flags)

    for kind in ("bench-random", "bench-sparse"):
        pb = sub.add_parser(kind, help=f"run the {kind.split('-')[1]} benchmark")
        pb.add_argument("--config", required=True, help="flat key=value config file")
        if kind == "bench-sparse":
            pb.add_argument(
                "--paper-scale",
                action="store_true",
                help="override dimensions to m=120, n=512, k=50",
            )

    pc = sub.add_parser("prox-check", help="grid-oracle check of the l1-l2 prox")
    pc.add_argument("--samples", type=int, default=500)
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--grid-step", type=float, default=1e-3)
    pc.add_argument("--tol", type=float, default=5e-3)
    return parser


def _options(solver, args):
    """The solver's options from the flags that were set; the rest keep their defaults.

    A set flag that the solver has no option for is a ConfigurationError,
    as is a flag for an ``fb-in-dr``-only field without ``--inner-solver fb-in-dr``.
    """
    given = {k: getattr(args, k) for k in args.solver_flags if getattr(args, k) is not None}
    fields = {f.name for f in dataclasses.fields(solver.options)}
    inner_flags = {}
    if "inner" in fields:
        inner_flags = {f"inner_{f.name}": f.name for f in dataclasses.fields(InnerOptions)}
    accepted = fields | inner_flags.keys() | {"max_iter"}
    unused = [args.solver_flags[k] for k in given if k not in accepted]
    if unused:
        raise ConfigurationError(f"--algo {args.algo} takes no {', '.join(unused)}")
    if given.get("inner_solver") != "fb-in-dr":
        unread = [args.solver_flags[k] for k in given if inner_flags.get(k) in _FB_IN_DR_ONLY]
        if unread:
            raise ConfigurationError(f"only --inner-solver fb-in-dr takes {', '.join(unread)}")
    settings = {name: given[name] for name in fields & given.keys()}
    if "max_iter" in given:
        settings[solver.limit] = given["max_iter"]
    inner = {inner_flags[k]: v for k, v in given.items() if k in inner_flags}
    if inner:
        settings["inner"] = InnerOptions(**inner)
    return solver.options(**settings)


def _run_solve(args) -> int:
    solver = SOLVERS[args.algo]
    A = read_matrix(args.A)
    m, n = A.shape
    Q = parse_set(args.Q)
    C = parse_set(args.C) if args.C else FullSpace(n)
    if solver.regularized and args.gamma is None:
        raise ConfigurationError(f"--gamma is required for --algo {args.algo}")
    if solver.level and args.t is None:
        raise ConfigurationError(f"--t is required for --algo {args.algo}")
    gamma = args.gamma if args.gamma is not None else 1.0
    problem = ProblemSpec(A=A, C=C, Q=Q, gamma=gamma)
    x0 = read_vector(args.x0) if args.x0 else np.zeros(n)
    result = solver.solve(problem, x0, _options(solver, args))

    if args.trace:
        write_atomic(args.trace, trace_csv(result))
    last = result.trace[-1]
    print(f"status={result.status.value} iters={result.iterations} objective={last.objective:.10g}")
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def _run_bench(args, kind: str) -> int:
    cfg = parse_bench_config(args.config, kind)
    if kind == "sparse" and getattr(args, "paper_scale", False):
        cfg.m, cfg.n, cfg.sparsity = 120, 512, 50
    rows = run_benchmark(cfg)
    failures = sum(1 for r in rows if r["status"] == "error")
    dims = f"m={cfg.m} n={cfg.n}" + (f" k={cfg.sparsity}" if kind == "sparse" else "")
    print(
        f"wrote {len(rows)} rows to {cfg.out_dir}/summary.csv "
        f"({dims}, {failures} failures)"
    )
    return EXIT_OK


def _run_prox_check(args) -> int:
    check_positive(args.tol, "tol", zero=True)
    gap = prox_check(count=args.samples, seed=args.seed, step=args.grid_step)
    print(f"max_gap={gap:.6g}")
    return EXIT_OK if gap <= args.tol else EXIT_NOT_CONVERGED


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return _run_solve(args)
        if args.command == "bench-random":
            return _run_bench(args, "random")
        if args.command == "bench-sparse":
            return _run_bench(args, "sparse")
        if args.command == "prox-check":
            return _run_prox_check(args)
    except (ConfigurationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
