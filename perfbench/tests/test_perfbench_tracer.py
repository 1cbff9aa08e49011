"""Self-test of the benchmark tracer.

On a tiny fixed problem, the traced call counts must equal the counts read
off the solver code, which proves that every binding site (module imports,
the package namespace, ``ConvexSet`` methods, ``INNER_SOLVERS``) is wrapped.
Tracing must not change a single output bit, and uninstalling must restore
every original function.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import sfpsolve  # noqa: E402
from perfbench import tracer as tr  # noqa: E402

K = 3  # iterations of fb, cq and mcq
O = 2  # outer iterations of the inner solver inside the one dca_step

A = np.array(
    [
        [1.0, 0.5, -0.3, 0.2],
        [0.1, -1.2, 0.4, 0.7],
        [0.6, 0.2, 0.9, -0.5],
    ]
)
B = A @ np.array([2.0, 0.0, -1.5, 0.0])
GAMMA = 0.1


def _problem(C):
    return sfpsolve.ProblemSpec(A=A, C=C, Q=sfpsolve.Singleton(B), gamma=GAMMA)


def _run_all():
    """fb, cq and mcq for K iterations, then one dca_step; returns the results."""
    x0 = np.zeros(4)
    free = _problem(sfpsolve.FullSpace(4))
    orthant = _problem(sfpsolve.NonnegativeOrthant(4))
    fb = sfpsolve.solve_fb(free, x0, sfpsolve.FbOptions(max_iter=K, step_tol=1e-300))
    cq = sfpsolve.solve_cq(orthant, x0, sfpsolve.CqOptions(max_iter=K, step_tol=0.0))
    # A step below mu/||A||^2 passes the backtracking test at the first trial.
    sigma = 0.5 * 0.5 / float(np.sum(A**2))
    mcq = sfpsolve.solve_mcq(
        free, x0, sfpsolve.McqOptions(t=3.5, sigma=sigma, max_iter=K, step_tol=0.0)
    )
    inner = sfpsolve.InnerOptions(budget_base=1, budget_cap=1, outer_max=O, tol=1e-300)
    step = sfpsolve.dca_step(
        orthant, np.array([0.5, 0.1, 0.2, 0.3]), sfpsolve.DcaOptions(inner=inner)
    )
    return {"fb": fb, "cq": cq, "mcq": mcq, "dca_step": step}


def _snapshot():
    import sfpsolve.inner
    import sfpsolve.sets

    bound = {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "sfpsolve" or name.startswith("sfpsolve.")
        for attr, value in vars(mod).items()
    }
    for cls in vars(sfpsolve.sets).values():
        if isinstance(cls, type):
            bound.update({(cls, attr): value for attr, value in vars(cls).items()})
    bound.update({("INNER_SOLVERS", k): v for k, v in sfpsolve.inner.INNER_SOLVERS.items()})
    bound[("SubproblemSpec", "smooth_gradient")] = vars(sfpsolve.SubproblemSpec)["smooth_gradient"]
    return bound


@pytest.fixture(scope="module")
def traced():
    plain = _run_all()
    before = _snapshot()
    tracer = tr.Tracer()
    with tracer.installed():
        results = _run_all()
    after = _snapshot()
    return tracer, plain, results, before, after


def _leaf_calls(tracer, span_name):
    """Leaf name -> calls, summed over every span called ``span_name``."""
    calls = {}
    for s in tracer.spans:
        if s.name == span_name:
            for (leaf, _caller), agg in s.leaves.items():
                calls[leaf] = calls.get(leaf, 0) + agg[0]
    return calls


def test_fb_counts(traced):
    tracer = traced[0]
    assert _leaf_calls(tracer, "fbsplit.solve_fb") == {
        "linops.inflated_op_norm": 1,
        # k=0 record: scaled objective + sfp residual; then 2 per iteration.
        "problem.sfp_residual_value": 2 + 2 * K,
        "problem.stationarity_residual": 1 + K,
        # one per stationarity residual, one per gradient step.
        "linops.sfp_gradient": 1 + 2 * K,
        "prox.prox_l1_minus_l2": K,
        "prox.soft_threshold": K,
        # Q.project once per residual value and once per gradient.
        "sets.project": (2 + 2 * K) + (1 + 2 * K),
    }


def test_cq_counts(traced):
    tracer = traced[0]
    assert _leaf_calls(tracer, "baselines.solve_cq") == {
        "linops.inflated_op_norm": 1,
        "problem.sfp_residual_value": 1 + K,
        "linops.sfp_gradient": 1 + K,
        # C.project per step, Q.project per residual value and gradient.
        "sets.project": K + 2 * (1 + K),
    }


def test_mcq_counts(traced):
    tracer = traced[0]
    assert _leaf_calls(tracer, "baselines.solve_mcq") == {
        "problem.sfp_residual_value": 1 + K,
        "linops.sfp_gradient": 1 + 2 * K,
        "baselines.project_level_set": 2 * K,
        "sets.project": (1 + 2 * K) + (1 + K),
    }


def test_dca_step_counts(traced):
    tracer = traced[0]
    inner_spans = [s for s in tracer.spans if s.name == "inner.solve_dr_in_fb"]
    step_spans = [s for s in tracer.spans if s.name == "dca.dca_step"]
    assert len(step_spans) == 1 and len(inner_spans) == 1
    assert inner_spans[0].parent == step_spans[0].id
    assert inner_spans[0].info == O
    assert _leaf_calls(tracer, "inner.solve_dr_in_fb") == {
        "linops.inflated_op_norm": 1,
        "inner.smooth_gradient": O,
        # one DR iteration per outer step: initial shrink + one in the loop.
        "prox.soft_threshold": 2 * O,
        # start-point membership, then the final record's objective.
        "sets.contains": 2,
        "problem.sfp_residual_value": 2,
        # 2 memberships + O DR projections onto C, O + 2 projections onto Q.
        "sets.project": 2 + O + O + 2,
    }
    # The majorizer safeguard evaluates the subproblem objective twice.
    assert _leaf_calls(tracer, "dca.dca_step") == {
        "sets.contains": 2,
        "problem.sfp_residual_value": 2,
        "sets.project": 4,
    }


def test_layer_metrics_totals(traced):
    layer = tr.layer_metrics(traced[0])
    assert set(layer) == set(tr.LAYER_UNITS) - {"trace.overhead_ratio"}
    assert layer["fbsplit.iters"] == K
    assert layer["baselines.cq.iters"] == K
    assert layer["baselines.mcq.iters"] == K
    assert layer["baselines.mcq.accept_ratio"] == 1.0
    assert layer["dca.steps"] == 1
    assert layer["inner.solves"] == 1
    assert layer["inner.iters"] == O
    grads = (1 + 2 * K) + (1 + K) + (1 + 2 * K)
    residuals = (2 + 2 * K) + (1 + K) + (1 + K) + 4
    assert layer["linops.sfp_gradient.calls"] == grads
    assert layer["problem.sfp_residual_value.calls"] == residuals
    assert layer["linops.matvecs"] == 2 * (grads + O) + residuals


def test_tracing_changes_no_output(traced):
    _, plain, results, _, _ = traced
    for name, result in plain.items():
        other = results[name]
        assert np.array_equal(result.x, other.x), name
        assert result.status == other.status and result.message == other.message
        assert np.array_equal(result.objectives(), other.objectives()), name


def test_uninstall_restores_every_binding(traced):
    _, _, _, before, after = traced
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []
