"""Solvers and benchmarks for split feasibility problems with l1-l2 regularization.

Find a sparse ``x`` in a closed convex set ``C`` whose image ``Ax`` lies in
(or near) a closed convex set ``Q`` by minimizing

    0.5*||Ax - P_Q(Ax)||^2 + gamma*(||x||_1 - ||x||_2)   over  x in C.

Three solvers attack the regularized objective (a difference-of-convex outer
loop, forward-backward splitting with the closed-form prox of the
regularizer, and a direction/line-search method); two projection baselines
solve the unregularized feasibility problem for comparison.
"""

from .baselines import (
    CqOptions,
    McqOptions,
    project_level_set,
    select_subgradient,
    solve_cq,
    solve_mcq,
)
from .dca import DcaOptions, dca_step, solve_dca
from .fbsplit import FbOptions, solve_fb
from .harness import (
    BenchConfig,
    Instance,
    RandomSpec,
    RecoveryMetrics,
    SparseSpec,
    gen_random_problem,
    gen_sparse_recovery,
    parse_bench_config,
    recovery_metrics,
    run_benchmark,
)
from .inner import (
    INNER_SOLVERS,
    InnerOptions,
    SubproblemSpec,
    solve_dr_in_fb,
    solve_fb_in_dr,
)
from .linops import (
    inflated_op_norm,
    read_matrix,
    read_vector,
    sfp_gradient,
    write_matrix,
    write_vector,
)
from .minefuku import (
    MfOptions,
    direction_minimizer,
    mf_direction,
    mf_line_search,
    solve_mf,
)
from .problem import (
    ConfigurationError,
    IterateRecord,
    ProblemSpec,
    SolveResult,
    Status,
    gamma_objective,
    has_exact_residual,
    sfp_residual_value,
    stationarity_residual,
)
from .prox import l1_l2, prox_l1_l2_objective, prox_l1_minus_l2, soft_threshold
from .sets import (
    Ball,
    Box,
    ConvexSet,
    FullSpace,
    L1Ball,
    NonnegativeOrthant,
    Singleton,
    parse_set,
)

__version__ = "0.1.0"

__all__ = [
    "sfp_gradient",
    "inflated_op_norm",
    "read_matrix",
    "write_matrix",
    "read_vector",
    "write_vector",
    "ConvexSet",
    "FullSpace",
    "NonnegativeOrthant",
    "Singleton",
    "Ball",
    "Box",
    "L1Ball",
    "parse_set",
    "l1_l2",
    "soft_threshold",
    "prox_l1_minus_l2",
    "prox_l1_l2_objective",
    "ConfigurationError",
    "ProblemSpec",
    "Status",
    "IterateRecord",
    "SolveResult",
    "gamma_objective",
    "sfp_residual_value",
    "stationarity_residual",
    "has_exact_residual",
    "SubproblemSpec",
    "InnerOptions",
    "solve_fb_in_dr",
    "solve_dr_in_fb",
    "INNER_SOLVERS",
    "DcaOptions",
    "dca_step",
    "solve_dca",
    "FbOptions",
    "solve_fb",
    "MfOptions",
    "direction_minimizer",
    "mf_direction",
    "mf_line_search",
    "solve_mf",
    "CqOptions",
    "McqOptions",
    "solve_cq",
    "solve_mcq",
    "project_level_set",
    "select_subgradient",
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
