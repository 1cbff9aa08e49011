"""BENCHMARK.json must name exactly the metrics the benchmark prints."""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import run, tracer, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_gated_end_to_end_metrics_match_benchmark_json():
    cases = [SimpleNamespace(trial=0)]
    passes = [(1.0, {(0, s): (0.01, None) for s in workloads.SOLVERS}, {0: 0.001})]
    deterministic = {"converged_frac": 1.0}
    for solver in workloads.QUALITY_SOLVERS:
        deterministic[f"rel_l2_err.{solver}"] = 0.1
        deterministic[f"objective.{solver}"] = 1.0
    e2e = run.end_to_end(workloads, cases, [0.1], passes, deterministic, [], 5)
    printed = {k: unit for k, (_, unit, _) in e2e.items() if run.gated(k)}
    assert printed == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def test_per_layer_metrics_match_benchmark_json():
    assert tracer.LAYER_UNITS == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_gated_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
