"""Problem generators, recovery metrics and the benchmark runner.

Two experiment families are reproduced at configurable scale:

* random consistent systems ``Ax = b`` with Gaussian data, solved with the
  orthant as domain constraint and a singleton target, and
* sparse-signal recovery from noisy Gaussian measurements.

All randomness is drawn from a counter-based generator keyed by
``(seed, trial)``: the same key always produces bit-identical data, trials
never share generator state, and reruns of a benchmark reproduce every
non-timing output byte for byte.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .baselines import CqOptions, McqOptions, solve_cq, solve_mcq
from .dca import DcaOptions, solve_dca
from .fbsplit import FbOptions, solve_fb
from .linops import check_count, check_positive
from .minefuku import MfOptions, solve_mf
from .problem import ConfigurationError, ProblemSpec, SolveResult
from .sets import FullSpace, NonnegativeOrthant, Singleton

__all__ = [
    "RandomSpec",
    "SparseSpec",
    "Instance",
    "RecoveryMetrics",
    "gen_random_problem",
    "gen_sparse_recovery",
    "recovery_metrics",
    "BenchConfig",
    "parse_bench_config",
    "run_benchmark",
]


class Solver(NamedTuple):
    """How the command line and the benchmark run one algorithm."""

    solve: Callable[..., SolveResult]
    options: type
    limit: str = "max_iter"  # the options field that caps the iterations
    regularized: bool = True  # minimizes the gamma objective, so needs gamma
    full_space: bool = False  # requires C = R^n; benchmarks drop C for it
    level: bool = False  # takes the instance's l1 level as option ``t``


SOLVERS = {
    "dca": Solver(solve_dca, DcaOptions, limit="max_outer"),
    "fb": Solver(solve_fb, FbOptions, full_space=True),
    "mf": Solver(solve_mf, MfOptions),
    "cq": Solver(solve_cq, CqOptions, regularized=False),
    "mcq": Solver(solve_mcq, McqOptions, regularized=False, level=True),
}

ALGORITHMS = tuple(SOLVERS)

SUPPORT_THRESHOLD_FACTOR = 1e-4


@dataclass(frozen=True)
class RandomSpec:
    seed: int
    m: int
    n: int
    trials: int

    def __post_init__(self):
        check_count(self.seed, "seed", low=None)
        check_count(self.m, "m")
        check_count(self.n, "n")
        check_count(self.trials, "trials")


@dataclass(frozen=True)
class SparseSpec:
    seed: int
    m: int
    n: int
    sparsity: int
    noise_variance: float
    gamma: float

    def __post_init__(self):
        check_count(self.seed, "seed", low=None)
        check_count(self.m, "m")
        check_count(self.n, "n")
        check_count(self.sparsity, "sparsity", 0)
        if self.sparsity > self.n:
            raise ValueError("sparsity must lie in [0, n]")
        check_positive(self.noise_variance, "noise_variance", zero=True)
        check_positive(self.gamma, "gamma")


@dataclass(frozen=True)
class Instance:
    """A generated problem with its ground truth and suggested l1 level."""

    problem: ProblemSpec
    x_true: np.ndarray
    x0: np.ndarray
    t_level: float


@dataclass(frozen=True)
class RecoveryMetrics:
    rel_l2_error: float
    support_precision: float
    support_recall: float
    iterations: int
    wall_ms: float


def _rng(seed: int, trial: int) -> np.random.Generator:
    check_count(trial, "trial", 0)
    if trial > 0xFFFFFFFFFFFFFFFF:
        raise ValueError(f"trial must be below 2**64, got {trial!r}")
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(trial)])
    return np.random.Generator(np.random.Philox(key=key))


def gen_random_problem(spec: RandomSpec, trial: int, gamma: float = 0.6) -> Instance:
    """Consistent Gaussian system: ``b = A @ x_true`` with ``x_true >= 0``.

    The domain constraint is the nonnegative orthant and the target the
    singleton ``{b}``, so the feasibility residual of a projection method can
    reach zero.  ``x0`` is the origin.
    """
    if not 0 <= trial < spec.trials:
        raise ValueError(f"trial {trial} out of range [0, {spec.trials})")
    rng = _rng(spec.seed, trial)
    A = rng.standard_normal((spec.m, spec.n))
    x_true = np.abs(rng.standard_normal(spec.n))
    b = A @ x_true
    problem = ProblemSpec(
        A=A, C=NonnegativeOrthant(spec.n), Q=Singleton(b), gamma=gamma
    )
    return Instance(
        problem=problem,
        x_true=x_true,
        x0=np.zeros(spec.n),
        t_level=float(np.sum(np.abs(x_true))),
    )


def gen_sparse_recovery(spec: SparseSpec, trial: int = 0) -> Instance:
    """Sparse spike signal measured by a Gaussian matrix with additive noise.

    The signal has ``sparsity`` entries of magnitude one with random signs at
    uniformly drawn positions; measurements are ``b = A @ x_true + noise``
    with i.i.d. Gaussian noise of the requested variance.  The domain
    constraint is the full space and ``t_level`` carries the l1 norm of the
    truth for the level-set baseline.
    """
    rng = _rng(spec.seed, trial)
    A = rng.standard_normal((spec.m, spec.n))
    x_true = np.zeros(spec.n)
    if spec.sparsity > 0:
        support = rng.choice(spec.n, size=spec.sparsity, replace=False)
        x_true[support] = rng.choice([-1.0, 1.0], size=spec.sparsity)
    noise = (
        np.sqrt(spec.noise_variance) * rng.standard_normal(spec.m)
        if spec.noise_variance > 0
        else np.zeros(spec.m)
    )
    b = A @ x_true + noise
    problem = ProblemSpec(
        A=A, C=FullSpace(spec.n), Q=Singleton(b), gamma=spec.gamma
    )
    t_level = float(np.sum(np.abs(x_true)))
    if t_level == 0.0:
        t_level = 1.0
    return Instance(
        problem=problem, x_true=x_true, x0=np.zeros(spec.n), t_level=t_level
    )


def recovery_metrics(x_hat, x_true, iterations: int, wall_ms: float) -> RecoveryMetrics:
    """Relative l2 error and support precision/recall against the truth.

    Support membership uses the threshold ``1e-4 * max|x_true|`` on both
    vectors.  With no predicted (resp. true) support the precision (resp.
    recall) defaults to 1.
    """
    x_hat = np.asarray(x_hat, dtype=float)
    x_true = np.asarray(x_true, dtype=float)
    norm_true = float(np.linalg.norm(x_true))
    if norm_true > 0:
        rel = float(np.linalg.norm(x_hat - x_true)) / norm_true
    else:
        rel = 0.0 if float(np.linalg.norm(x_hat)) == 0.0 else float("inf")
    thresh = SUPPORT_THRESHOLD_FACTOR * (float(np.max(np.abs(x_true))) if x_true.size else 0.0)
    pred = np.abs(x_hat) > thresh
    true = np.abs(x_true) > thresh
    tp = int(np.sum(pred & true))
    precision = tp / int(np.sum(pred)) if np.any(pred) else 1.0
    recall = tp / int(np.sum(true)) if np.any(true) else 1.0
    return RecoveryMetrics(
        rel_l2_error=rel,
        support_precision=float(precision),
        support_recall=float(recall),
        iterations=iterations,
        wall_ms=wall_ms,
    )


# ---------------------------------------------------------------------------
# Benchmark runner
# ---------------------------------------------------------------------------


@dataclass
class BenchConfig:
    """Flat benchmark configuration (mirrors the key=value config file)."""

    kind: str  # "random" | "sparse"
    seed: int = 0
    m: int = 40
    n: int = 100
    trials: int = 10
    gamma: float = 0.6
    sparsity: int = 10
    noise_variance: float = 1e-4
    algos: tuple[str, ...] = ALGORITHMS
    out_dir: str = "bench_out"
    max_iter: int = 1000
    step_tol: float = 1e-5
    traces: bool = False
    quantiles: bool = True

    def __post_init__(self):
        if self.kind not in ("random", "sparse"):
            raise ValueError("kind must be 'random' or 'sparse'")
        check_count(self.trials, "trials")
        unknown = [a for a in self.algos if a not in ALGORITHMS]
        if unknown:
            raise ValueError(f"unknown algorithms {unknown}; choose from {ALGORITHMS}")
        if not self.algos or len(set(self.algos)) < len(self.algos):
            raise ValueError(
                f"algos must name at least one algorithm, each once; got {list(self.algos)}"
            )


_FLAGS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _flag(text: str) -> bool:
    """A config file's yes/no value, in any case; ValueError on any other word."""
    if text.lower() not in _FLAGS:
        raise ValueError(f"expected 1/true/yes/on or 0/false/no/off, got {text!r}")
    return _FLAGS[text.lower()]


_CONFIG_TYPES = {
    "seed": int,
    "m": int,
    "n": int,
    "trials": int,
    "gamma": float,
    "k": int,
    "noise_variance": float,
    "algos": str,
    "out_dir": str,
    "max_iter": int,
    "step_tol": float,
    "traces": _flag,
    "quantiles": _flag,
}


def parse_bench_config(path, kind: str) -> BenchConfig:
    """Read a flat ``key=value`` config file (``#`` starts a comment; a key may appear once)."""
    values = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in _CONFIG_TYPES:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ValueError(f"{path}:{lineno}: repeated key {key!r}")
            try:
                values[key] = _CONFIG_TYPES[key](val)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    kwargs = {"kind": kind}
    for key, val in values.items():
        if key == "k":
            kwargs["sparsity"] = val
        elif key == "algos":
            kwargs["algos"] = tuple(a.strip() for a in val.split(",") if a.strip())
        else:
            kwargs[key] = val
    return BenchConfig(**kwargs)


def _bench_options(cfg: BenchConfig, algo: str):
    """The solver's options from the config; ValueError on a value it rejects.

    A level solver gets ``t = 1`` here; :func:`_solve_one` sets each
    instance's level.
    """
    solver = SOLVERS[algo]
    settings = {solver.limit: cfg.max_iter, "step_tol": cfg.step_tol}
    if solver.level:
        settings["t"] = 1.0
    return solver.options(**settings)


def _solve_one(algo: str, inst: Instance, opts) -> SolveResult:
    solver = SOLVERS[algo]
    P = inst.problem
    if solver.full_space and not isinstance(P.C, FullSpace):
        full = ProblemSpec(A=P.A, C=FullSpace(P.n), Q=P.Q, gamma=P.gamma)
        # The same A: share the instance's ||A||, so an instance costs one SVD.
        object.__setattr__(full, "op_norm", P.op_norm)
        P = full
    if solver.level:
        opts = replace(opts, t=inst.t_level)
    return solver.solve(P, inst.x0, opts)


def _instances(cfg: BenchConfig) -> Callable[[int], Instance]:
    """The config's trial generator, with its problem half checked once.

    Raises ValueError on a dimension, level, noise or ``gamma`` that the
    generators or :class:`ProblemSpec` would reject in every trial.
    """
    if cfg.kind == "random":
        spec = RandomSpec(seed=cfg.seed, m=cfg.m, n=cfg.n, trials=cfg.trials)
        check_positive(cfg.gamma, "gamma")  # ProblemSpec's check; RandomSpec has no gamma
        return lambda trial: gen_random_problem(spec, trial, gamma=cfg.gamma)
    spec = SparseSpec(
        seed=cfg.seed,
        m=cfg.m,
        n=cfg.n,
        sparsity=cfg.sparsity,
        noise_variance=cfg.noise_variance,
        gamma=cfg.gamma,
    )
    return lambda trial: gen_sparse_recovery(spec, trial)


def write_atomic(path, content: str) -> None:
    """Write via a temporary file and rename, so readers never see a prefix.

    The temporary file has a random name and is opened with ``"x"``, which
    fails rather than reuse an existing file, so concurrent writers into one
    directory never touch each other's files; it is removed if the write
    fails.  Its permissions, and so the result's, are those a plain
    ``open(path, "w")`` gives.
    """
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    # Opened before the try: a failed open created nothing this call may remove.
    fh = open(tmp, "x", encoding="ascii")
    try:
        with fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


# The float columns of summary.csv, between ``iterations`` and ``wall_ms``.
_SUMMARY_COLUMNS = (
    "objective", "sfp_residual", "rel_l2_error", "support_precision", "support_recall", "l1_norm"
)


def _fmt(v: float) -> str:
    return f"{v:.10g}"


def trace_csv(result: SolveResult) -> str:
    """The per-iteration trace as CSV text; the timing column comes last."""
    lines = ["iter,objective,residual,step_norm,elapsed_ms"]
    for rec in result.trace:
        lines.append(
            f"{rec.k},{_fmt(rec.objective)},{_fmt(rec.sfp_residual)},"
            f"{_fmt(rec.step_norm)},{rec.elapsed_ms:.3f}"
        )
    return "\n".join(lines) + "\n"


QUANTILE_LEVELS = (0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0)


def _quantile_csv(traces: list[SolveResult]) -> str:
    """Per-iteration quantiles across trials of residual and objective.

    Shorter traces are extended with their final value so every iteration row
    aggregates all trials.
    """
    max_len = max(len(r.trace) for r in traces)
    res = np.empty((len(traces), max_len))
    obj = np.empty((len(traces), max_len))
    for i, r in enumerate(traces):
        rv = np.array([rec.sfp_residual for rec in r.trace])
        ov = np.array([rec.objective for rec in r.trace])
        res[i, : rv.size] = rv
        res[i, rv.size :] = rv[-1]
        obj[i, : ov.size] = ov
        obj[i, ov.size :] = ov[-1]
    header = ["iter"]
    header += [f"residual_q{int(q * 100)}" for q in QUANTILE_LEVELS]
    header += [f"objective_q{int(q * 100)}" for q in QUANTILE_LEVELS]
    lines = [",".join(header)]
    res_q = np.quantile(res, QUANTILE_LEVELS, axis=0)
    obj_q = np.quantile(obj, QUANTILE_LEVELS, axis=0)
    for j in range(max_len):
        row = [str(j)]
        row += [_fmt(v) for v in res_q[:, j]]
        row += [_fmt(v) for v in obj_q[:, j]]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def run_benchmark(cfg: BenchConfig) -> list[dict]:
    """Run every (trial, algorithm) pair and write the report files.

    Produces ``summary.csv`` (one row per pair, sorted by trial then
    algorithm), optional per-run ``trace_<algo>_<trial>.csv`` files, and
    per-algorithm quantile files.  The solvers' options and the problem
    generator are built from the config once, before ``out_dir`` is created;
    a value they reject raises ValueError and nothing is written.  A solve
    that rejects its problem or instance level, or fails numerically, yields
    a row with status ``error`` and the run continues; any other exception
    propagates.
    """
    options = {algo: _bench_options(cfg, algo) for algo in cfg.algos}
    instance = _instances(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    rows: list[dict] = []
    traces_by_algo: dict[str, list[SolveResult]] = {a: [] for a in cfg.algos}
    for trial in range(cfg.trials):
        inst = instance(trial)
        for algo in sorted(cfg.algos):
            t_start = time.perf_counter()
            try:
                result = _solve_one(algo, inst, options[algo])
            except (ConfigurationError, ValueError, FloatingPointError) as exc:
                rows.append(
                    {
                        "trial": trial,
                        "algo": algo,
                        "status": "error",
                        "iterations": 0,
                        **dict.fromkeys(_SUMMARY_COLUMNS, float("nan")),
                        "wall_ms": (time.perf_counter() - t_start) * 1e3,
                        "message": str(exc),
                    }
                )
                continue
            wall_ms = (time.perf_counter() - t_start) * 1e3
            metrics = recovery_metrics(
                result.x, inst.x_true, result.iterations, wall_ms
            )
            last = result.trace[-1]
            rows.append(
                {
                    "trial": trial,
                    "algo": algo,
                    "status": result.status.value,
                    "iterations": result.iterations,
                    "objective": last.objective,
                    "sfp_residual": last.sfp_residual,
                    "rel_l2_error": metrics.rel_l2_error,
                    "support_precision": metrics.support_precision,
                    "support_recall": metrics.support_recall,
                    "l1_norm": float(np.sum(np.abs(result.x))),
                    "wall_ms": wall_ms,
                    "message": result.message,
                }
            )
            traces_by_algo[algo].append(result)
            if cfg.traces:
                write_atomic(
                    os.path.join(cfg.out_dir, f"trace_{algo}_{trial}.csv"),
                    trace_csv(result),
                )
    lines = [",".join(("trial", "algo", "status", "iterations", *_SUMMARY_COLUMNS, "wall_ms"))]
    for r in rows:
        floats = ",".join(_fmt(r[name]) for name in _SUMMARY_COLUMNS)
        lines.append(
            f"{r['trial']},{r['algo']},{r['status']},{r['iterations']},{floats},{r['wall_ms']:.3f}"
        )
    write_atomic(os.path.join(cfg.out_dir, "summary.csv"), "\n".join(lines) + "\n")
    if cfg.quantiles:
        for algo, results in traces_by_algo.items():
            if results:
                write_atomic(
                    os.path.join(cfg.out_dir, f"quantiles_{algo}.csv"),
                    _quantile_csv(results),
                )
    return rows
