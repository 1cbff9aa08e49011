"""Per-layer tracing of sfpsolve from outside the package.

``Tracer.install`` replaces the public functions of each ``sfpsolve`` module
with timing wrappers at every place they are bound: the defining module, each
module that imported the name (``from .linops import sfp_gradient``), the
package namespace, the ``INNER_SOLVERS`` table and the ``ConvexSet`` classes.
``Tracer.uninstall`` puts the originals back.  Nothing under ``src/`` changes.

Two kinds of wrapper exist:

* a *span* records name, start, end, parent span and self time; spans sit at
  the solve and step boundaries (``solve_*``, ``dca_step``, the inner solvers,
  ``mf_direction``, ``mf_line_search``, the instance generators);
* a *leaf* is a hot kernel called thousands of times per solve (projections,
  soft-thresholding, gradients, objective evaluations).  Leaves are aggregated
  as call count, self time and inclusive time in their enclosing span, keyed
  by leaf name and the name of the frame that called them.

Spans are held in memory and written out by :meth:`Tracer.write_spans` at the
end of a run; :func:`layer_metrics` turns them into the per-layer numbers.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

# Solver loops: a problem.* evaluation called directly from one of these
# builds a trace record (IterateRecord) rather than steering the iteration.
SOLVER_LOOPS = frozenset(
    {
        "dca.solve_dca",
        "fbsplit.solve_fb",
        "minefuku.solve_mf",
        "baselines.solve_cq",
        "baselines.solve_mcq",
        "inner.solve_fb_in_dr",
        "inner.solve_dr_in_fb",
    }
)
TOP_SOLVES = SOLVER_LOOPS - {"inner.solve_fb_in_dr", "inner.solve_dr_in_fb"}
INNER_SPANS = ("inner.solve_fb_in_dr", "inner.solve_dr_in_fb")


def _iterations(result):
    return result.iterations


def _inner_iterations(result):
    return result.trace[-1].k


def _rejected(result):
    return "inner result discarded" in result.message


def _zero_step(lam):
    return lam == 0.0


# (module, function, kind, summary of the return value kept on the span)
FUNCTION_TARGETS = (
    ("linops", "sfp_gradient", "leaf", None),
    ("linops", "inflated_op_norm", "leaf", None),
    ("problem", "gamma_objective", "leaf", None),
    ("problem", "sfp_residual_value", "leaf", None),
    ("problem", "stationarity_residual", "leaf", None),
    ("prox", "soft_threshold", "leaf", None),
    ("prox", "prox_l1_minus_l2", "leaf", None),
    ("inner", "solve_fb_in_dr", "span", _inner_iterations),
    ("inner", "solve_dr_in_fb", "span", _inner_iterations),
    ("dca", "dca_step", "span", _rejected),
    ("dca", "solve_dca", "span", _iterations),
    ("fbsplit", "solve_fb", "span", _iterations),
    ("minefuku", "direction_minimizer", "leaf", None),
    ("minefuku", "mf_direction", "span", None),
    ("minefuku", "mf_line_search", "span", _zero_step),
    ("minefuku", "solve_mf", "span", _iterations),
    ("baselines", "project_level_set", "leaf", None),
    ("baselines", "solve_cq", "span", _iterations),
    ("baselines", "solve_mcq", "span", _iterations),
    ("harness", "gen_sparse_recovery", "span", None),
    ("harness", "gen_random_problem", "span", None),
)


class Span:
    __slots__ = ("id", "name", "parent", "request", "start", "end", "self_s",
                 "info", "leaves")

    def __init__(self, id_, name, parent, request, start):
        self.id = id_
        self.name = name
        self.parent = parent
        self.request = request
        self.start = start
        self.end = start
        self.self_s = 0.0
        self.info = None
        # (leaf name, calling frame name) -> [calls, self seconds, inclusive seconds]
        self.leaves = {}


class Tracer:
    """Records spans and leaf aggregates while installed and recording.

    ``request`` labels the spans opened until it is changed (the benchmark
    sets it to ``"<trial>:<solver>"`` before each solve), so every span of
    one solve shares that identifier.
    """

    def __init__(self):
        self.recording = True
        self.request = ""
        self._t0 = time.perf_counter()
        self.root = Span(0, "<root>", None, "", 0.0)
        self.spans = [self.root]
        # Each frame: [name, child seconds, enclosing span].
        self._stack = [["<root>", 0.0, self.root]]
        self._restore = []

    # -- wrappers ---------------------------------------------------------

    def _leaf(self, fn, name):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def leaf(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [name, 0.0, parent[2]]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                parent[1] += dur
                key = (name, parent[0])
                agg = frame[2].leaves.get(key)
                if agg is None:
                    frame[2].leaves[key] = [1, dur - frame[1], dur]
                else:
                    agg[0] += 1
                    agg[1] += dur - frame[1]
                    agg[2] += dur

        return leaf

    def _span(self, fn, name, summarize):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            parent = stack[-1]
            record = Span(len(spans), name, parent[2].id, self.request,
                          clock() - self._t0)
            spans.append(record)
            frame = [name, 0.0, record]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if summarize is not None:
                    record.info = summarize(result)
                return result
            finally:
                dur = clock() - t0
                stack.pop()
                parent[1] += dur
                record.end = record.start + dur
                record.self_s = dur - frame[1]

        return span

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every target at every binding site in the loaded package."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        from sfpsolve import inner, sets  # the package imports every module

        wrappers = {}  # id(original) -> (original, wrapper)
        for module, attr, kind, summarize in FUNCTION_TARGETS:
            fn = getattr(sys.modules[f"sfpsolve.{module}"], attr)
            name = f"{module}.{attr}"
            wrapper = self._leaf(fn, name) if kind == "leaf" else self._span(fn, name, summarize)
            wrappers[id(fn)] = (fn, wrapper)
        try:
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "sfpsolve" or mod_name.startswith("sfpsolve.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    original, wrapper = wrappers.get(id(value), (None, None))
                    if original is value:
                        self._replace(mod, attr, wrapper)
            for key, fn in list(inner.INNER_SOLVERS.items()):
                self._replace_item(inner.INNER_SOLVERS, key, wrappers[id(fn)][1])

            self._replace(sets.ConvexSet, "contains",
                          self._leaf(sets.ConvexSet.contains, "sets.contains"))
            for cls in list(vars(sets).values()):
                if (isinstance(cls, type) and issubclass(cls, sets.ConvexSet)
                        and cls is not sets.ConvexSet and "project" in vars(cls)):
                    self._replace(cls, "project", self._leaf(cls.project, "sets.project"))
            self._replace(
                inner.SubproblemSpec,
                "smooth_gradient",
                self._leaf(inner.SubproblemSpec.smooth_gradient, "inner.smooth_gradient"),
            )
        except BaseException:
            self.uninstall()
            raise

    def _replace(self, owner, attr, value):
        self._restore.append((setattr, owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _replace_item(self, table, key, value):
        self._restore.append((dict.__setitem__, table, key, table[key]))
        table[key] = value

    def uninstall(self):
        """Put every original function back (idempotent)."""
        while self._restore:
            put, owner, key, original = self._restore.pop()
            put(owner, key, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def paused(self):
        """Call through without recording (for the benchmark's own checks)."""
        before, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = before

    # -- output -----------------------------------------------------------

    def write_spans(self, path):
        """Write one JSON object per span (times in seconds from tracer start)."""
        with open(path, "w", encoding="ascii") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "name": s.name,
                            "parent": s.parent,
                            "request": s.request,
                            "start": s.start,
                            "end": s.end,
                            "self_s": s.self_s,
                            "info": s.info,
                            "leaves": [
                                [leaf, caller, *agg] for (leaf, caller), agg in s.leaves.items()
                            ],
                        }
                    )
                    + "\n"
                )


LAYER_UNITS = {
    "linops.inflated_op_norm.calls": "count",
    "linops.inflated_op_norm.ms": "ms",
    "linops.sfp_gradient.calls": "count",
    "linops.sfp_gradient.self_ms": "ms",
    "linops.matvecs": "count",
    "problem.gamma_objective.calls": "count",
    "problem.sfp_residual_value.calls": "count",
    "problem.stationarity_residual.calls": "count",
    "problem.trace_ms": "ms",
    "problem.trace_share": "ratio",
    "minefuku.iters": "count",
    "minefuku.mf_line_search.ms": "ms",
    "minefuku.ls_evals_per_search": "count",
    "minefuku.ls_zero_step_ratio": "ratio",
    "minefuku.mf_direction.ms": "ms",
    "minefuku.direction_minimizer.self_ms": "ms",
    "sets.project.calls": "count",
    "sets.project.self_ms": "ms",
    "sets.contains.calls": "count",
    "dca.steps": "count",
    "dca.rejected_steps": "count",
    "inner.solves": "count",
    "inner.iters": "count",
    "inner.ms": "ms",
    "inner.smooth_gradient.calls": "count",
    "dca.inner_iters_per_step": "count",
    "prox.soft_threshold.calls": "count",
    "prox.soft_threshold.self_ms": "ms",
    "fbsplit.iters": "count",
    "prox.prox_l1_minus_l2.calls": "count",
    "prox.prox_l1_minus_l2.self_ms": "ms",
    "baselines.cq.iters": "count",
    "baselines.mcq.iters": "count",
    "baselines.mcq.accept_ratio": "ratio",
    "harness.gen_ms": "ms",
    "trace.overhead_ratio": "ratio",
}
# Metrics that depend on the clock; every other one repeats exactly.
TIMED_LAYER_METRICS = frozenset(
    name for name, unit in LAYER_UNITS.items() if unit == "ms"
) | {"problem.trace_share", "trace.overhead_ratio"}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals over everything recorded (values in counts, ms, ratios).

    ``linops.matvecs`` is computed, not observed: two products with ``A`` per
    ``sfp_gradient`` and ``SubproblemSpec.smooth_gradient`` call and one per
    ``sfp_residual_value`` call; the power iteration is excluded.
    """
    leaf = {}  # leaf name -> [calls, self s, incl s]
    leaf_in = {}  # (enclosing span name, leaf name) -> calls
    trace_s = 0.0
    span_count, span_incl, span_info = {}, {}, {}
    for s in tracer.spans:
        if s.id:
            span_count[s.name] = span_count.get(s.name, 0) + 1
            span_incl[s.name] = span_incl.get(s.name, 0.0) + (s.end - s.start)
            if s.info is not None:
                span_info[s.name] = span_info.get(s.name, 0) + s.info
        for (name, caller), (calls, self_s, incl_s) in s.leaves.items():
            agg = leaf.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += self_s
            agg[2] += incl_s
            key = (s.name, name)
            leaf_in[key] = leaf_in.get(key, 0) + calls
            if name.startswith("problem.") and caller in SOLVER_LOOPS:
                trace_s += incl_s

    def calls(name):
        return leaf.get(name, [0, 0.0, 0.0])[0]

    def self_ms(name):
        return leaf.get(name, [0, 0.0, 0.0])[1] * 1e3

    def incl_ms(name):
        return leaf.get(name, [0, 0.0, 0.0])[2] * 1e3

    solver_ms = sum(span_incl.get(name, 0.0) for name in TOP_SOLVES) * 1e3
    inner_solves = sum(span_count.get(name, 0) for name in INNER_SPANS)
    inner_iters = sum(span_info.get(name, 0) for name in INNER_SPANS)
    dca_steps = span_count.get("dca.dca_step", 0)
    searches = span_count.get("minefuku.mf_line_search", 0)
    mcq_iters = span_info.get("baselines.solve_mcq", 0)
    mcq_trials = leaf_in.get(("baselines.solve_mcq", "baselines.project_level_set"), 0) - mcq_iters
    return {
        "linops.inflated_op_norm.calls": calls("linops.inflated_op_norm"),
        "linops.inflated_op_norm.ms": incl_ms("linops.inflated_op_norm"),
        "linops.sfp_gradient.calls": calls("linops.sfp_gradient"),
        "linops.sfp_gradient.self_ms": self_ms("linops.sfp_gradient"),
        "linops.matvecs": 2 * (calls("linops.sfp_gradient") + calls("inner.smooth_gradient"))
        + calls("problem.sfp_residual_value"),
        "problem.gamma_objective.calls": calls("problem.gamma_objective"),
        "problem.sfp_residual_value.calls": calls("problem.sfp_residual_value"),
        "problem.stationarity_residual.calls": calls("problem.stationarity_residual"),
        "problem.trace_ms": trace_s * 1e3,
        "problem.trace_share": _ratio(trace_s * 1e3, solver_ms),
        "minefuku.iters": span_info.get("minefuku.solve_mf", 0),
        "minefuku.mf_line_search.ms": span_incl.get("minefuku.mf_line_search", 0.0) * 1e3,
        "minefuku.ls_evals_per_search": _ratio(
            leaf_in.get(("minefuku.mf_line_search", "problem.gamma_objective"), 0), searches
        ),
        "minefuku.ls_zero_step_ratio": _ratio(span_info.get("minefuku.mf_line_search", 0), searches),
        "minefuku.mf_direction.ms": span_incl.get("minefuku.mf_direction", 0.0) * 1e3,
        "minefuku.direction_minimizer.self_ms": self_ms("minefuku.direction_minimizer"),
        "sets.project.calls": calls("sets.project"),
        "sets.project.self_ms": self_ms("sets.project"),
        "sets.contains.calls": calls("sets.contains"),
        "dca.steps": dca_steps,
        "dca.rejected_steps": span_info.get("dca.dca_step", 0),
        "inner.solves": inner_solves,
        "inner.iters": inner_iters,
        "inner.ms": sum(span_incl.get(name, 0.0) for name in INNER_SPANS) * 1e3,
        "inner.smooth_gradient.calls": calls("inner.smooth_gradient"),
        "dca.inner_iters_per_step": _ratio(inner_iters, dca_steps),
        "prox.soft_threshold.calls": calls("prox.soft_threshold"),
        "prox.soft_threshold.self_ms": self_ms("prox.soft_threshold"),
        "fbsplit.iters": span_info.get("fbsplit.solve_fb", 0),
        "prox.prox_l1_minus_l2.calls": calls("prox.prox_l1_minus_l2"),
        "prox.prox_l1_minus_l2.self_ms": self_ms("prox.prox_l1_minus_l2"),
        "baselines.cq.iters": span_info.get("baselines.solve_cq", 0),
        "baselines.mcq.iters": mcq_iters,
        "baselines.mcq.accept_ratio": _ratio(mcq_iters, mcq_trials),
        "harness.gen_ms": sum(
            span_incl.get(name, 0.0)
            for name in ("harness.gen_sparse_recovery", "harness.gen_random_problem")
        )
        * 1e3,
    }
