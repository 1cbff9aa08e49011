import sfpsolve
from sfpsolve import baselines, dca, fbsplit, harness, inner, linops, minefuku, problem, prox, sets

# The public API: each name with the module that defines it.
PUBLIC = {
    linops: ["sfp_gradient", "inflated_op_norm", "read_matrix", "write_matrix", "read_vector",
             "write_vector"],
    sets: ["ConvexSet", "FullSpace", "NonnegativeOrthant", "Singleton", "Ball", "Box", "L1Ball",
           "parse_set"],
    prox: ["l1_l2", "soft_threshold", "prox_l1_minus_l2", "prox_l1_l2_objective"],
    problem: ["ConfigurationError", "ProblemSpec", "Status", "IterateRecord", "SolveResult",
              "gamma_objective", "sfp_residual_value", "stationarity_residual",
              "has_exact_residual"],
    inner: ["SubproblemSpec", "InnerOptions", "solve_fb_in_dr", "solve_dr_in_fb", "INNER_SOLVERS"],
    dca: ["DcaOptions", "dca_step", "solve_dca"],
    fbsplit: ["FbOptions", "solve_fb"],
    minefuku: ["MfOptions", "direction_minimizer", "mf_direction", "mf_line_search", "solve_mf"],
    baselines: ["CqOptions", "McqOptions", "solve_cq", "solve_mcq", "project_level_set",
                "select_subgradient"],
    harness: ["RandomSpec", "SparseSpec", "Instance", "RecoveryMetrics", "gen_random_problem",
              "gen_sparse_recovery", "recovery_metrics", "BenchConfig", "parse_bench_config",
              "run_benchmark"],
}


def test_the_package_exports_exactly_the_modules_public_names():
    names = sfpsolve.__all__
    expected = [name for module_names in PUBLIC.values() for name in module_names]
    assert len(expected) == 58
    assert len(names) == len(set(names)) and set(names) == set(expected)
    for module, module_names in PUBLIC.items():
        for name in module_names:
            assert getattr(sfpsolve, name) is getattr(module, name), name
    assert set(names) == set().union(*(module.__all__ for module in PUBLIC))
