"""Simulation and numerical verification toolkit for multistable Levy
motions: stable sampling, weighted-sum and triangle-series path schemes,
variable-exponent integrals and the statistical checks that tie their
empirical laws to the closed-form characteristic functions.
"""

from .alpha_model import (
    AlphaFunction,
    Condition7Report,
    IntegrandFunction,
    check_condition7,
    exponent_integral,
    grid_index,
    integral_cf,
    lf_n_exponent,
    li_cf,
    modular_integral,
    plateau_identity_alpha,
    quasinorm,
)
from .continuous_paths import (
    ContinuousStableConfig,
    SnDiagnostics,
    max_deviation_probability,
    sample_continuous_stable,
    scale_bounds,
    scale_parameter,
    simulate_sn,
    sn_boundary_ensemble,
    stable_level_draws,
    triangle,
)
from .errors import (
    DomainError,
    GridResolutionError,
    InfiniteQuasinormError,
    ParameterError,
    QuadratureError,
)
from .integrals import (
    HoelderReport,
    IndependenceReport,
    KernelFunction,
    PairwiseReport,
    StrongLocReport,
    billingsley_bound,
    half_open_indicator,
    hoelder_bound_check,
    hoelder_tail_constant,
    independence_test,
    integral_ensemble,
    joint_integral_ensemble,
    overlap_measure,
    pairwise_independence,
    sample_integral,
    strong_localisability_check,
    weight_sup_constant,
    weighted_mslm,
)
from .msl_schemes import (
    PathGrid,
    SchemeConfig,
    ensemble_to_csv,
    glue_whole_line,
    li_window_ensemble,
    marginal_ensemble,
    path_to_csv,
    simulate_lc,
    simulate_li,
    simulate_lr,
    simulate_stable_fclt,
)
from .quadrature import adaptive_simpson
from .stable_core import (
    PoissonArrivals,
    RandomStream,
    StableParams,
    compute_C_alpha,
    poisson_arrivals,
    sample_stable,
    sample_symmetric,
    stable_cf,
    symmetric_from_uniform_pairs,
)
from .verify_stats import (
    EcfReport,
    FactorizationReport,
    LocalisabilityReport,
    TightnessReport,
    ecf_report,
    empirical_cf,
    empirical_cf_joint,
    factorization_test,
    increment_cf_test,
    localisability_test,
    spearman_corr,
    theta_grid_default,
    tightness_bound_constant,
    tightness_check,
)

__version__ = "0.1.0"
