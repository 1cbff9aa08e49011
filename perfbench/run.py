"""Benchmark the five sfpsolve solvers on one workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sparse-fullspace --seed 0 --seconds 40 --trace 0

One process, one client, no extra threads: every trial of the workload runs
``dca``, ``fb``, ``mf``, ``cq`` and ``mcq`` back to back (one *pass*), after
a fixed reference kernel that tracks the host's speed, and passes repeat
while another one fits in ``--seconds``.  Every solve is
checked; a failed check names the workload, trial and solver and makes the
exit code 1.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs one untraced and one traced pass and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details (the run
environment, sample counts, the deterministic outputs and, when traced, the
spans) go to ``perfbench/out/``.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
SETUP_REPEATS = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_PERCENTILES = (99, 95, 90, 75, 50)


def use_checkout_source() -> None:
    """Import sfpsolve from this checkout's ``src/`` and nothing else."""
    src = ROOT / "src"
    if not (src / "sfpsolve" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'sfpsolve'} not found; run from the root of a sfpsolve checkout")
    sys.path[:0] = [str(src), str(ROOT)]


def parse_args(workloads, argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print the seconds this process took to set up, then exit")
    return parser.parse_args(argv)


# -- run environment ---------------------------------------------------------


def _blas_version(numpy) -> str:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _src_lines() -> int:
    return sum(
        len(path.read_text().splitlines()) for path in sorted((ROOT / "src").rglob("*.py"))
    )


def environment(numpy) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas_version(numpy),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "commit": _git_commit(),
        "src_lines": _src_lines(),
    }


# -- passes ------------------------------------------------------------------


def run_pass(wl, cases, tracer=None):
    """Solve every (trial, solver) once, timing the reference kernel before each trial.

    Returns (wall s of the solves, {(trial, solver): (s, result)},
    {trial: reference kernel s}).
    """
    solves = {}
    reference = {}
    clock = time.perf_counter
    wall = 0.0
    for case in cases:
        k0 = clock()
        wl.reference_kernel(case)
        t0 = clock()
        reference[case.trial] = t0 - k0
        for solver in wl.SOLVERS:
            if tracer is not None:
                tracer.request = f"{case.trial}:{solver}"
            s0 = clock()
            try:
                result = wl.solve(solver, case)
            except Exception as exc:  # a raising solver is a failed solve, not a crash
                exc.formatted = traceback.format_exc()
                result = exc
            solves[(case.trial, solver)] = (clock() - s0, result)
        wall += clock() - t0
    return wall, solves, reference


def evaluate(wl, workload, cases, solves):
    """Check every solve and collect the deterministic outputs of the pass."""
    failures = []
    converged = 0
    rel = {s: [] for s in wl.QUALITY_SOLVERS}
    obj = {s: [] for s in wl.QUALITY_SOLVERS}
    iterations = {s: [] for s in wl.SOLVERS}
    digest = hashlib.sha256()
    for case in cases:
        for solver in wl.SOLVERS:
            result = solves[(case.trial, solver)][1]
            wl.digest_update(digest, solver, case, result)
            where = f"workload={workload} trial={case.trial} solver={solver}"
            if isinstance(result, Exception):
                failures.append(f"{where}: raised\n{result.formatted}")
                iterations[solver].append(None)
                continue
            iterations[solver].append(result.iterations)
            reasons = wl.check(solver, case, result)
            if reasons:
                failures.append(f"{where}: " + "; ".join(reasons))
            converged += result.converged
            if solver in rel:
                r, f = wl.quality(solver, case, result)
                rel[solver].append(r)
                obj[solver].append(f)
    n_solves = len(cases) * len(wl.SOLVERS)
    deterministic = {"digest": digest.hexdigest(), "iterations": iterations}
    deterministic["converged_frac"] = converged / n_solves
    deterministic["failed_frac"] = len(failures) / n_solves
    for solver in wl.QUALITY_SOLVERS:
        deterministic[f"rel_l2_err.{solver}"] = statistics.median(rel[solver]) if rel[solver] else None
        deterministic[f"objective.{solver}"] = statistics.median(obj[solver]) if obj[solver] else None
    return failures, deterministic


def tail(samples):
    """Highest listed percentile with at least ten samples above it, or None."""
    for p in TAIL_PERCENTILES:
        if len(samples) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
    return None


def end_to_end(wl, cases, setup, passes, deterministic, failures, attempted):
    """End-to-end metrics as {name: (value, unit, note)}; see :func:`gated`.

    The speed of a shared host drifts by 10-50 % over minutes, for unchanged
    work.  So the gated timings are divided by the mean time of the reference
    kernel, which runs before every trial of the same passes (``*_ref``, in
    multiples of ``reference_ms``).  A mean, like ``solve_ms``, weights the
    host's speed over the whole pass.  The wall times stay beside them.
    """
    n = len(cases)
    ref_ms = statistics.fmean(p[2][c.trial] for p in passes for c in cases) * 1e3
    batch_s = statistics.median(p[0] for p in passes)
    e2e = {
        "setup_s": (statistics.median(setup), "s",
                    f"median of {len(setup)} set-ups (import + generation), "
                    f"range {min(setup):.4g}-{max(setup):.4g} s"),
        "reference_ms": (ref_ms, "ms", f"mean of {n * len(passes)} reference-kernel runs"),
        "batch_s": (batch_s, "s",
                    f"median of {len(passes)} pass(es) of {n} trials x {len(wl.SOLVERS)} solvers"),
        "batch_ref": (batch_s * 1e3 / ref_ms, "ref", "batch_s / reference_ms"),
    }
    for solver in wl.SOLVERS:
        samples = [p[1][(c.trial, solver)][0] * 1e3 for p in passes for c in cases]
        # The mean, not the median, is the summary: per-solve times are
        # bimodal on some workloads (sparse-l1ball dca takes 3 or 4 outer
        # steps in near-equal shares), so the median jumps between seeds.
        mean = statistics.fmean(samples)
        t = tail(samples)
        e2e[f"solve_ms.{solver}"] = (
            mean, "ms",
            f"mean of {len(samples)} solves, median {statistics.median(samples):.4g} ms, "
            + (f"p{t[0]} {t[1]:.4g} ms" if t else "too few solves for a tail percentile"),
        )
        e2e[f"solve_ref.{solver}"] = (mean / ref_ms, "ref", f"solve_ms.{solver} / reference_ms")
    n_solves = n * len(wl.SOLVERS)
    e2e["converged_frac"] = (deterministic["converged_frac"], "ratio", f"of {n_solves} solves")
    e2e["failed_frac"] = (len(failures) / attempted, "ratio",
                          f"{len(failures)} of {attempted} solves")
    for solver in wl.QUALITY_SOLVERS:
        e2e[f"rel_l2_err.{solver}"] = (deterministic[f"rel_l2_err.{solver}"], "ratio",
                                       f"median of {n} trials")
    for solver in wl.QUALITY_SOLVERS:
        e2e[f"objective.{solver}"] = (deterministic[f"objective.{solver}"], "1",
                                      f"median of {n} trials")
    return e2e


def gated(name: str) -> bool:
    """Whether an end-to-end metric goes on the result line (and BENCHMARK.json)."""
    return name not in ("reference_ms", "batch_s", "failed_frac") and not name.startswith(
        "solve_ms."
    )


def measure_setup(args, first: float) -> list[float]:
    """This process's set-up time plus more from fresh interpreters.

    Import cost can only be measured again in a new process.
    """
    probe = [sys.executable, __file__, "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"]
    setup = [first]
    for _ in range(SETUP_REPEATS - 1):
        out = subprocess.run(probe, cwd=ROOT, check=True, capture_output=True, text=True)
        setup.append(float(out.stdout.split()[-1]))
    return setup


# -- main --------------------------------------------------------------------


def main(argv=None) -> int:
    clock = time.perf_counter
    t_setup = clock()
    # Matrix-vector-sized problems: pin BLAS and OpenMP to one thread before
    # numpy is imported.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    use_checkout_source()
    import numpy

    import sfpsolve  # noqa: F401  (import cost belongs to set-up)
    from perfbench import tracer as tr
    from perfbench import workloads as wl

    args = parse_args(wl.WORKLOADS, argv)
    cases = wl.make_cases(args.workload, args.seed)
    if args.setup_only:
        print(repr(clock() - t_setup))
        return 0
    setup = measure_setup(args, clock() - t_setup)

    passes = []
    start = clock()
    while True:
        passes.append(run_pass(wl, cases))
        if args.trace or clock() - start + passes[-1][0] > args.seconds:
            break

    failures, deterministic = evaluate(wl, args.workload, cases, passes[0][1])
    attempted = len(passes) * len(passes[0][1])
    for _, solves, _ in passes[1:]:
        more, again = evaluate(wl, args.workload, cases, solves)
        failures += more
        if again["digest"] != deterministic["digest"]:
            failures.append(f"workload={args.workload}: pass outputs differ from the first pass")

    layer = {}
    if args.trace:
        tracer = tr.Tracer()
        with tracer.installed():
            traced_cases = wl.make_cases(args.workload, args.seed)
            traced_wall, traced, _ = run_pass(wl, traced_cases, tracer)
            with tracer.paused():
                more, traced_det = evaluate(wl, args.workload, traced_cases, traced)
        attempted += len(traced)
        failures += more
        if traced_det != deterministic:
            failures.append(f"workload={args.workload}: traced outputs differ from untraced ones")
        layer = tr.layer_metrics(tracer)
        layer["trace.overhead_ratio"] = traced_wall / passes[0][0]
        deterministic["layer_counts"] = {
            k: v for k, v in layer.items() if k not in tr.TIMED_LAYER_METRICS
        }
    e2e = end_to_end(wl, cases, setup, passes, deterministic, failures, attempted)

    env = environment(numpy)
    print(f"# workload={args.workload} seed={args.seed} trials={len(cases)} "
          f"passes={len(passes)} trace={args.trace} seconds={args.seconds:g}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items() if k != "threads")
          + " threads=1")
    for name, (value, unit, note) in e2e.items():
        print(f"{name:24s} {value!r:>22} {unit:6s} {note}")
    for name, value in layer.items():
        computed = "  (computed)" if name == "linops.matvecs" else ""
        print(f"{name:38s} {value!r:>22} {tr.LAYER_UNITS[name]}{computed}")
    for message in failures:
        print(f"FAILED {message}", file=sys.stderr)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {
        "args": vars(args),
        "env": env,
        "trials": len(cases),
        "passes_s": [p[0] for p in passes],
        "reference_ms": [[p[2][c.trial] * 1e3 for p in passes] for c in cases],
        "setup_s": setup,
        "solve_ms": {
            solver: [[p[1][(c.trial, solver)][0] * 1e3 for p in passes] for c in cases]
            for solver in wl.SOLVERS
        },
        "end_to_end": {k: {"value": v, "unit": u, "note": note} for k, (v, u, note) in e2e.items()},
        "per_layer": layer,
        "deterministic": deterministic,
        "failures": failures,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
    if args.trace:
        tracer.write_spans(OUT_DIR / f"{stem}-spans.jsonl")
        metrics = {k: {"value": v, "unit": tr.LAYER_UNITS[k]} for k, v in layer.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in e2e.items() if gated(k)}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
