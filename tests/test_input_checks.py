"""Every public entry point rejects a NaN, and an infinity where a finite
value is needed, with ParameterError or DomainError and without a numpy
warning; each admissible set is checked in one place."""

from __future__ import annotations

import math

import numpy as np
import pytest

from mslevy import RandomStream, StableParams
from mslevy.alpha_model import (AlphaFunction, IntegrandFunction, check_condition7,
                                modular_integral)
from mslevy.continuous_paths import (
    ContinuousStableConfig,
    max_deviation_probability,
    sample_continuous_stable,
    scale_parameter,
    simulate_sn,
    sn_boundary_ensemble,
    truncation_level,
)
from mslevy.errors import DomainError, ParameterError
from mslevy.integrals import (
    KernelFunction,
    billingsley_bound,
    hoelder_bound_check,
    hoelder_tail_constant,
    integrand_convergence,
    strong_localisability_check,
)
from mslevy.msl_schemes import (PathGrid, SchemeConfig, li_window_ensemble, simulate_lc,
                                simulate_stable_fclt)
from mslevy.quadrature import gauss_kronrod
from mslevy.stable_core import (
    poisson_arrivals,
    sample_symmetric,
    symmetric_from_uniform_pairs,
    tail_asymptote,
)
from mslevy.verify_stats import localisability_test, tightness_check

NAN = math.nan
STREAM = RandomStream(1)
AF = AlphaFunction.linear(1.2, 0.6)
CFG = ContinuousStableConfig(1.5, 1.0, levels=4)
GRID = [0.0, 0.5, 1.0]

# name -> a call with one NaN (or, for mu, infinite; for C, negative; for an
# index list, fractional) parameter, which must be rejected rather than return
# a NaN-laden value, a failed verdict or a silently cast index, or fail with an
# unrelated error
NON_FINITE_CALLS = {
    "sample_symmetric.alpha": lambda: sample_symmetric([NAN, 1.5], STREAM),
    "symmetric_from_uniform_pairs.alpha":
        lambda: symmetric_from_uniform_pairs([NAN], [0.3], [0.4]),
    "StableParams.sigma": lambda: StableParams(1.5, sigma=NAN),
    "StableParams.mu_inf": lambda: StableParams(1.5, mu=math.inf),
    "poisson_arrivals.rate": lambda: poisson_arrivals(NAN, 3, STREAM),
    "tail_asymptote.lam": lambda: tail_asymptote(StableParams(1.5), NAN),
    "simulate_lc.gamma_value": lambda: simulate_lc(SchemeConfig(3, AF, STREAM), gamma_value=NAN),
    "PathGrid.time": lambda: PathGrid(times=[0.0, NAN, 1.0], values=[0.0, 1.0, 2.0]),
    "ContinuousStableConfig.d": lambda: ContinuousStableConfig(1.5, NAN),
    "simulate_sn.d": lambda: simulate_sn(3, AF, STREAM, GRID, d=NAN),
    "sn_boundary_ensemble.d": lambda: sn_boundary_ensemble(3, AF, STREAM, [8], 2, d=NAN),
    "sn_boundary_ensemble.boundary_ks": lambda: sn_boundary_ensemble(3, AF, STREAM, [2, NAN], 2),
    "sn_boundary_ensemble.boundary_ks_fraction":
        lambda: sn_boundary_ensemble(3, AF, STREAM, [1.5], 2),
    "li_window_ensemble.cell_offsets": lambda: li_window_ensemble(AF, 4, 2, [1, NAN], 2, STREAM),
    "li_window_ensemble.cell_offsets_fraction":
        lambda: li_window_ensemble(AF, 4, 2, [2.7], 2, STREAM),
    "sample_continuous_stable.grid": lambda: sample_continuous_stable(CFG, [0.0, NAN, 1.0], STREAM),
    "simulate_sn.grid": lambda: simulate_sn(3, AF, STREAM, [0.0, NAN, 1.0]),
    "scale_parameter.t": lambda: scale_parameter(CFG, NAN),
    "max_deviation_probability.c": lambda: max_deviation_probability(1.5, NAN, 2, 10, STREAM),
    "truncation_level.tolerance": lambda: truncation_level(1.5, 1.0, NAN),
    "AlphaFunction.call": lambda: AF(NAN),
    "modular_integral.lam": lambda: modular_integral(IntegrandFunction.constant(1.0), AF, NAN),
    "billingsley_bound.lam": lambda: billingsley_bound(lambda t: math.exp(-abs(t)), NAN),
    "hoelder_tail_constant.x": lambda: hoelder_tail_constant(1.0, 1.0, 1.5, NAN),
    "hoelder_bound_check.C": lambda: hoelder_bound_check(
        KernelFunction.running_indicator(), AF, 1.0, NAN, 0.2, [(0.5, 0.25)], STREAM, n=4,
        ensemble=10),
    "hoelder_bound_check.C_negative": lambda: hoelder_bound_check(
        KernelFunction.running_indicator(), AF, 1.0, -1.0, 0.2, [(0.5, 0.25)], STREAM, n=4,
        ensemble=10),
    "strong_localisability_check.radius": lambda: strong_localisability_check(
        KernelFunction.running_indicator(), AF, 0.2, [NAN, 0.1], [(0.1, 0.2), (0.2, 0.4)],
        with_quasinorm=False),
    "tightness_check.level": lambda: tightness_check("li", AF, (0.2, 0.5, 0.8), [NAN], 4, 10,
                                                     STREAM),
    "localisability_test.x": lambda: localisability_test(AF, NAN, 1.0, [0.25, 0.125], 6, 10,
                                                         STREAM),
    "gauss_kronrod.bound": lambda: gauss_kronrod(lambda x: x, 0.0, NAN),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(NON_FINITE_CALLS))
def test_non_finite_input_is_rejected(name):
    with pytest.raises((ParameterError, DomainError)):
        NON_FINITE_CALLS[name]()


class TestOneCheckPerInput:
    def test_stable_fclt_checks_alpha_before_its_weight(self):
        # n^(-1/alpha) at alpha = 0 would raise ZeroDivisionError
        with pytest.raises(ParameterError):
            simulate_stable_fclt(0.0, 4, STREAM)

    def test_zero_arrivals_are_empty(self):
        arrivals = poisson_arrivals(2.0, 0, STREAM)
        assert arrivals.times.shape == (0,) and arrivals.rate == 2.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_zero_rate_is_rejected_without_a_warning(self):
        with pytest.raises(ParameterError, match="rate"):
            poisson_arrivals(0.0, 3, STREAM)

    def test_sigma_must_be_finite(self):
        with pytest.raises(ParameterError, match="sigma"):
            StableParams(1.5, sigma=math.inf)

    @pytest.mark.parametrize("make", [
        lambda a: StableParams(a),
        lambda a: ContinuousStableConfig(a, 10.0),
        lambda a: sample_symmetric(np.array([1.5, a, 1.0]), STREAM),
    ], ids=["StableParams", "ContinuousStableConfig", "sample_symmetric"])
    @pytest.mark.parametrize("alpha", [2.25, -0.5, NAN])
    def test_the_alpha_message_names_the_bad_value(self, make, alpha):
        with pytest.raises(ParameterError, match=rf"\(0, 2\], got {alpha}"):
            make(alpha)

    def test_truncation_level_checks_alpha_and_d_as_the_config_does(self):
        for alpha, d in ((0.0, 1.0), (2.5, 1.0), (1.5, 0.5), (1.5, NAN)):
            with pytest.raises(ParameterError):
                truncation_level(alpha, d, 1e-3)

    @pytest.mark.parametrize("grid, error", [
        ([0.1, 0.5], ParameterError), ([0.0, 0.5, 0.5], ParameterError),
        ([0.0, 0.5, NAN], ParameterError), ([0.0, 1.5], DomainError),
    ], ids=["start", "repeat", "nan_last", "past_one"])
    def test_both_triangle_series_samplers_share_one_grid_check(self, grid, error):
        with pytest.raises(error):
            sample_continuous_stable(CFG, grid, STREAM)
        with pytest.raises(error):
            simulate_sn(3, AF, STREAM, grid)

    @pytest.mark.parametrize("tolerance", [NAN, 0.0, -1.0])
    def test_localisability_tolerance_must_be_positive(self, tolerance):
        with pytest.raises(ParameterError, match="tolerance"):
            localisability_test(AF, 0.5, 1.0, [0.25, 0.125], 6, 10, STREAM, tolerance=tolerance)

    @pytest.mark.parametrize("radii", [[0.25, NAN], [NAN, 0.125]])
    def test_localisability_radii_reject_nan_anywhere(self, radii):
        with pytest.raises(ParameterError, match="radii"):
            localisability_test(AF, 0.5, 1.0, radii, 6, 10, STREAM)

    @pytest.mark.parametrize("threshold", [NAN, 0.0, -1.0])
    def test_verdict_thresholds_must_be_positive(self, threshold):
        with pytest.raises(ParameterError, match="threshold"):
            check_condition7(AF, np.linspace(0.0, 1.0, 9), [0.25, 0.125], threshold)
        with pytest.raises(ParameterError, match="threshold"):
            integrand_convergence([IntegrandFunction.constant(0.5)],
                                  IntegrandFunction.zero(), AF, threshold)

    def test_hoelder_check_rejects_a_nan_eta(self):
        with pytest.raises(ParameterError, match="beta"):
            hoelder_bound_check(KernelFunction.running_indicator(), AF, NAN, 1.0, 0.2,
                                [(0.5, 0.25)], STREAM, n=4, ensemble=10)
