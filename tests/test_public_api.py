"""The public names of ``mslevy``, pinned: a name enters or leaves the
package only through an edit of this list.  Every name here has a caller
outside its own tests (a verify item, an acceptance criterion, a CLI
command, another module or the benchmark), except ``stable_cf``, the
closed-form law that ``sample_stable``'s tests compare against."""

from __future__ import annotations

import inspect

import mslevy

PUBLIC_NAMES = [
    "AlphaFunction", "Condition7Report", "ContinuousStableConfig", "DomainError",
    "EcfReport", "FactorizationReport", "GridResolutionError", "HoelderReport",
    "IndependenceReport", "InfiniteQuasinormError", "IntegrandFunction", "KernelFunction",
    "LocalisabilityReport", "PairwiseReport", "ParameterError", "PathGrid",
    "PoissonArrivals", "QuadratureError", "RandomStream", "SchemeConfig", "SnDiagnostics",
    "StableParams", "StrongLocReport", "TightnessReport", "adaptive_simpson",
    "billingsley_bound", "check_condition7", "compute_C_alpha", "ecf_report",
    "empirical_cf", "empirical_cf_joint", "ensemble_to_csv", "exponent_integral",
    "factorization_test", "glue_whole_line", "grid_index", "half_open_indicator",
    "hoelder_bound_check", "hoelder_tail_constant", "increment_cf_test",
    "independence_test", "integral_cf", "integral_ensemble", "joint_integral_ensemble",
    "lf_n_exponent", "li_cf", "li_window_ensemble", "localisability_test",
    "marginal_ensemble", "max_deviation_probability", "modular_integral",
    "overlap_measure", "pairwise_independence", "path_to_csv", "plateau_identity_alpha",
    "poisson_arrivals", "quasinorm", "sample_continuous_stable", "sample_integral",
    "sample_stable", "sample_symmetric", "scale_bounds", "scale_parameter", "simulate_lc",
    "simulate_li", "simulate_lr", "simulate_sn", "simulate_stable_fclt",
    "sn_boundary_ensemble", "spearman_corr", "stable_cf", "stable_level_draws",
    "strong_localisability_check", "symmetric_from_uniform_pairs", "theta_grid_default",
    "tightness_bound_constant", "tightness_check", "triangle", "weight_sup_constant",
    "weighted_mslm",
]


def test_public_names_are_the_pinned_ones():
    # submodules are attributes of the package too, but not names it exports
    names = sorted(name for name, value in vars(mslevy).items()
                   if not name.startswith("_") and not inspect.ismodule(value))
    assert names == PUBLIC_NAMES
