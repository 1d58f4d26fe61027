"""Every public entry point rejects a NaN, an infinity where a finite value
is needed and a fraction where an integer is needed, with ParameterError or
DomainError and without a numpy warning; each admissible set is checked in
one place."""

from __future__ import annotations

import math

import numpy as np
import pytest

from mslevy import RandomStream, StableParams
from mslevy.alpha_model import (AlphaFunction, IntegrandFunction, check_condition7,
                                exponent_integral, integral_cf, lf_n_exponent, li_cf,
                                modular_integral)
from mslevy.continuous_paths import (
    ContinuousStableConfig,
    max_deviation_probability,
    sample_continuous_stable,
    scale_bounds,
    scale_parameter,
    simulate_sn,
    sn_boundary_ensemble,
    stable_level_draws,
    triangle,
)
from mslevy.errors import DomainError, ParameterError
from mslevy.integrals import (
    KernelFunction,
    billingsley_bound,
    half_open_indicator,
    hoelder_bound_check,
    hoelder_tail_constant,
    joint_integral_ensemble,
    pairwise_independence,
    sample_integral,
    strong_localisability_check,
    weight_sup_constant,
    weighted_mslm,
)
from mslevy.msl_schemes import (PathGrid, SchemeConfig, glue_whole_line, li_window_ensemble,
                                marginal_ensemble, simulate_lc, simulate_li,
                                simulate_stable_fclt)
from mslevy.quadrature import gauss_kronrod
from mslevy.stable_core import (
    _check_ints,
    poisson_arrivals,
    sample_stable,
    sample_symmetric,
    stable_cf,
    symmetric_from_uniform_pairs,
)
from mslevy.verify_stats import (ecf_report, empirical_cf, empirical_cf_joint,
                                  factorization_test, increment_cf_test, localisability_test,
                                  spearman_corr, tightness_bound_constant, tightness_check)

NAN = math.nan
STREAM = RandomStream(1)
AF = AlphaFunction.linear(1.2, 0.6)
CFG = ContinuousStableConfig(1.5, 1.0, levels=4)
GRID = [0.0, 0.5, 1.0]
ONE = IntegrandFunction.constant(1.0)


class _NoDraws:
    """A stream that fails the test on the first draw asked of it."""

    def child(self, *indices):
        raise AssertionError("drew before checking the input")

    generator = child


NO_DRAWS = _NoDraws()

# name -> a call with one NaN (or, for mu, infinite; for C, negative; for an
# integer, fractional) parameter, which must be rejected rather than return
# a NaN-laden value, a failed verdict, a path on a fractional grid or a
# silently cast index, or fail with an unrelated error
NON_FINITE_CALLS = {
    "sample_symmetric.alpha": lambda: sample_symmetric([NAN, 1.5], STREAM),
    "symmetric_from_uniform_pairs.alpha":
        lambda: symmetric_from_uniform_pairs([NAN], [0.3], [0.4]),
    "StableParams.sigma": lambda: StableParams(1.5, sigma=NAN),
    "StableParams.mu_inf": lambda: StableParams(1.5, mu=math.inf),
    "poisson_arrivals.rate": lambda: poisson_arrivals(NAN, 3, STREAM),
    "simulate_lc.gamma_value": lambda: simulate_lc(SchemeConfig(3, AF, STREAM), gamma_value=NAN),
    "PathGrid.time": lambda: PathGrid(times=[0.0, NAN, 1.0], values=[0.0, 1.0, 2.0]),
    "ContinuousStableConfig.d": lambda: ContinuousStableConfig(1.5, NAN),
    "simulate_sn.d": lambda: simulate_sn(3, AF, STREAM, GRID, d=NAN),
    "sn_boundary_ensemble.d": lambda: sn_boundary_ensemble(3, AF, STREAM, [8], 2, d=NAN),
    # an infinite decay exponent: 2^(-0 d) is NaN at level 0
    "ContinuousStableConfig.d_inf": lambda: ContinuousStableConfig(1.5, math.inf),
    "ContinuousStableConfig.d_minus_inf": lambda: ContinuousStableConfig(1.5, -math.inf),
    "simulate_sn.d_inf": lambda: simulate_sn(3, AF, STREAM, GRID, d=math.inf),
    "sn_boundary_ensemble.d_inf": lambda: sn_boundary_ensemble(3, AF, STREAM, [8], 2,
                                                              d=math.inf),
    "stable_cf.theta": lambda: stable_cf(StableParams(1.5), NAN),
    "stable_cf.theta_inf": lambda: stable_cf(StableParams(1.5, beta=0.5), math.inf),
    "stable_cf.theta_minus_inf_at_alpha_one": lambda: stable_cf(StableParams(1.0), -math.inf),
    "stable_cf.theta_array": lambda: stable_cf(StableParams(1.5), [0.5, NAN]),
    "tightness_bound_constant.gamma": lambda: tightness_bound_constant(NAN),
    "tightness_bound_constant.gamma_past_two": lambda: tightness_bound_constant(5.0),
    "tightness_bound_constant.gamma_zero": lambda: tightness_bound_constant(0.0),
    "sn_boundary_ensemble.boundary_ks": lambda: sn_boundary_ensemble(3, AF, STREAM, [2, NAN], 2),
    "sn_boundary_ensemble.boundary_ks_fraction":
        lambda: sn_boundary_ensemble(3, AF, STREAM, [1.5], 2),
    "li_window_ensemble.cell_offsets": lambda: li_window_ensemble(AF, 4, 2, [1, NAN], 2, STREAM),
    "li_window_ensemble.cell_offsets_fraction":
        lambda: li_window_ensemble(AF, 4, 2, [2.7], 2, STREAM),
    "sample_continuous_stable.grid": lambda: sample_continuous_stable(CFG, [0.0, NAN, 1.0], STREAM),
    "simulate_sn.grid": lambda: simulate_sn(3, AF, STREAM, [0.0, NAN, 1.0]),
    "scale_parameter.t": lambda: scale_parameter(CFG, NAN),
    "scale_bounds.t": lambda: scale_bounds(CFG, NAN),
    "scale_bounds.t_past_one": lambda: scale_bounds(CFG, 3.0),
    "max_deviation_probability.c": lambda: max_deviation_probability(1.5, NAN, 2, 10, STREAM),
    "AlphaFunction.call": lambda: AF(NAN),
    "IntegrandFunction.from_callable.call":
        lambda: IntegrandFunction.from_callable(lambda x: 2.0 * x)(NAN),
    "IntegrandFunction.from_table.call": lambda: IntegrandFunction.from_table([1.0, 2.0])(NAN),
    "IntegrandFunction.from_table.call_inf":
        lambda: IntegrandFunction.from_table([1.0, 2.0])([0.5, math.inf]),
    "IntegrandFunction.indicator.call": lambda: IntegrandFunction.indicator(0.0, 0.5)(NAN),
    "IntegrandFunction.constant.call": lambda: ONE(NAN),
    "IntegrandFunction.constant.array_call":
        lambda: IntegrandFunction.constant(0.0)([0.5, NAN]),
    "triangle.t": lambda: triangle(NAN),
    "modular_integral.lam": lambda: modular_integral(IntegrandFunction.constant(1.0), AF, NAN),
    "IntegrandFunction.scaled.nan": lambda: IntegrandFunction.from_table([1.0, 2.0]).scaled(NAN),
    "IntegrandFunction.scaled.inf":
        lambda: IntegrandFunction.from_table([1.0, 2.0]).scaled(math.inf),
    "exponent_integral.theta": lambda: exponent_integral(AF, NAN, 0.0, 1.0),
    "li_cf.thetas": lambda: li_cf(AF, [0.5], [NAN]),
    # a theta at time 0 multiplies no cell, yet the CF must not drop it
    "li_cf.theta_at_time_zero": lambda: li_cf(AF, [0.0, 0.5], [NAN, 1.0]),
    "integral_cf.thetas": lambda: integral_cf([IntegrandFunction.indicator(0.0, 0.5)], [NAN], AF),
    "lf_n_exponent.theta": lambda: lf_n_exponent(AF, 0.5, NAN, 4),
    # an infinite theta: its exponent would be NaN or infinite, not a CF
    "exponent_integral.theta_inf": lambda: exponent_integral(AF, math.inf, 0.0, 1.0),
    "li_cf.thetas_inf": lambda: li_cf(AF, [0.5], [math.inf]),
    "li_cf.theta_minus_inf_at_time_zero": lambda: li_cf(AF, [0.0, 0.5], [-math.inf, 1.0]),
    "integral_cf.thetas_inf":
        lambda: integral_cf([IntegrandFunction.indicator(0.0, 0.5)], [math.inf], AF),
    "lf_n_exponent.theta_inf": lambda: lf_n_exponent(AF, 0.5, math.inf, 4),
    "check_condition7.x": lambda: check_condition7(AF, [0.1, NAN, 0.5], [0.25]),
    "check_condition7.x_below_domain": lambda: check_condition7(AF, [-0.5, 0.2, 0.5], [0.25]),
    "check_condition7.x_past_domain": lambda: check_condition7(AF, [1.5, 0.2, 0.5], [0.25]),
    "billingsley_bound.lam": lambda: billingsley_bound(lambda t: math.exp(-abs(t)), NAN),
    "hoelder_tail_constant.x": lambda: hoelder_tail_constant(1.0, 1.0, 1.5, NAN),
    "hoelder_bound_check.C": lambda: hoelder_bound_check(
        KernelFunction.running_indicator(), AF, 1.0, NAN, 0.2, [(0.5, 0.25)], STREAM, n=4,
        ensemble=10),
    "hoelder_bound_check.C_negative": lambda: hoelder_bound_check(
        KernelFunction.running_indicator(), AF, 1.0, -1.0, 0.2, [(0.5, 0.25)], STREAM, n=4,
        ensemble=10),
    "KernelFunction.slice.t": lambda: KernelFunction.running_indicator().slice(NAN),
    # slice times outside [0, 1], the second pair's too, raise before any draw
    "hoelder_bound_check.t_below_zero": lambda: hoelder_bound_check(
        KernelFunction.running_indicator(), AF, 1.0, 2.0, 0.4, [(-0.5, 0.25)], NO_DRAWS, n=4,
        ensemble=200),
    "hoelder_bound_check.t_past_one": lambda: hoelder_bound_check(
        KernelFunction.weighted_running(ONE), AF, 1.0, 2.0, 0.4, [(0.5, 0.25), (1.5, 0.25)],
        NO_DRAWS, n=4, ensemble=200),
    "strong_localisability_check.radius": lambda: strong_localisability_check(
        KernelFunction.running_indicator(), AF, 0.2, [NAN, 0.1], [(0.1, 0.2), (0.2, 0.4)],
        with_quasinorm=False),
    "tightness_check.level": lambda: tightness_check("li", AF, (0.2, 0.5, 0.8), [NAN], 4, 10,
                                                     STREAM),
    "localisability_test.x": lambda: localisability_test(AF, NAN, 1.0, [0.25, 0.125], 6, 10,
                                                         STREAM),
    "spearman_corr.x": lambda: spearman_corr([NAN, 1.0], [0.0, 1.0]),
    "gauss_kronrod.bound": lambda: gauss_kronrod(lambda x: x, 0.0, NAN),
    "gauss_kronrod.abs_tol": lambda: gauss_kronrod(np.sqrt, 0.0, 1.0, abs_tol=NAN),
    "gauss_kronrod.abs_tol_negative": lambda: gauss_kronrod(np.sqrt, 0.0, 1.0, abs_tol=-5.0),
    "hoelder_tail_constant.C": lambda: hoelder_tail_constant(NAN, 1.0, 1.5, 0.5),
    # integer arguments: levels, sizes and indices
    "SchemeConfig.n": lambda: SchemeConfig(n=3.5, af=AF, stream=STREAM),
    "sample_integral.n": lambda: sample_integral(ONE, AF, 2.5, STREAM),
    "weighted_mslm.n": lambda: weighted_mslm(ONE, AF, 2.5, STREAM),
    "joint_integral_ensemble.ensemble": lambda: joint_integral_ensemble([ONE], AF, 3, 2.5, STREAM),
    "glue_whole_line.n": lambda: glue_whole_line(AF, 2.5, STREAM),
    "li_window_ensemble.k0": lambda: li_window_ensemble(AF, 4, 1.5, [1, 2], 2, STREAM),
    "marginal_ensemble.ensemble": lambda: marginal_ensemble("li", AF, 3, [0.5], 2.5, STREAM),
    "sn_boundary_ensemble.ensemble": lambda: sn_boundary_ensemble(3, AF, STREAM, [8], 2.5),
    "ContinuousStableConfig.levels": lambda: ContinuousStableConfig(1.5, 1.0, levels=NAN),
    "simulate_sn.levels": lambda: simulate_sn(3, AF, STREAM, GRID, levels=NAN),
    "lf_n_exponent.n": lambda: lf_n_exponent(AF, 0.5, 1.0, NAN),
    "localisability_test.n": lambda: localisability_test(AF, 0.5, 1.0, [0.25, 0.125], NAN, 10,
                                                         STREAM),
    "poisson_arrivals.count": lambda: poisson_arrivals(1.0, 2.5, STREAM),
    "sample_stable.n": lambda: sample_stable(StableParams(1.5), NAN, STREAM),
    "simulate_stable_fclt.n_terms": lambda: simulate_stable_fclt(1.5, NAN, STREAM),
    "stable_level_draws.j": lambda: stable_level_draws(1.5, 1.5, STREAM),
    "max_deviation_probability.j": lambda: max_deviation_probability(1.5, 1.0, 1.5, 10, STREAM),
    "max_deviation_probability.n_mc": lambda: max_deviation_probability(1.5, 1.0, 2, 2.5, STREAM),
    "increment_cf_test.ensemble": lambda: increment_cf_test("li", AF, 3, [(0.0, 0.5)], 1000.5,
                                                            STREAM),
}


# name -> (the argument the message must name, a call with that argument
# empty or too short), which must be rejected before any draw rather than
# pass a verdict with nothing checked or fail inside a helper
EMPTY_CALLS = {
    "strong_localisability_check.r_list": ("r_list", lambda: strong_localisability_check(
        KernelFunction.running_indicator(), AF, 0.5, [], [(0.1, 0.2), (0.2, 0.4)])),
    "strong_localisability_check.pairs": ("pairs", lambda: strong_localisability_check(
        KernelFunction.running_indicator(), AF, 0.5, [0.25, 0.125], [])),
    "tightness_check.lambdas": ("lambdas", lambda: tightness_check(
        "li", AF, (0.2, 0.5, 0.8), [], 4, 10, STREAM)),
    "hoelder_bound_check.pairs": ("pairs", lambda: hoelder_bound_check(
        KernelFunction.running_indicator(), AF, 1.0, 1.0, 0.2, [], STREAM, n=4, ensemble=10)),
    "localisability_test.one_radius": ("at least two", lambda: localisability_test(
        AF, 0.5, 1.0, [0.25], 6, 10, STREAM)),
    "ecf_report.theta_grid": ("theta grid", lambda: ecf_report([0.1, 0.2], [], [])),
    "marginal_ensemble.us": ("evaluation time", lambda: marginal_ensemble(
        "li", AF, 3, [], 2, STREAM)),
    "factorization_test.no_intervals": ("intervals", lambda: factorization_test(
        "li", AF, [], 4, 10, STREAM)),
    "factorization_test.one_interval": ("intervals", lambda: factorization_test(
        "li", AF, [(0.25, 0.75)], 4, 10, STREAM)),
    "pairwise_independence.no_integrands": ("integrands", lambda: pairwise_independence(
        [], AF)),
    "pairwise_independence.one_integrand": ("integrands", lambda: pairwise_independence(
        [half_open_indicator(0.0, 0.5)], AF)),
}


# name -> (error, words of its message, a call with one argument outside its
# admissible set): every other argument check of the package, each reached
# by one call
INADMISSIBLE_CALLS = {
    "li_cf.lengths": (ParameterError, "equal length", lambda: li_cf(AF, [0.5], [1.0, 2.0])),
    "li_cf.domain_start": (ParameterError, "starts at 0", lambda: li_cf(
        AlphaFunction.constant(1.5, (0.5, 1.0)), [0.75], [1.0])),
    "li_cf.time_past_domain": (DomainError, "evaluation times", lambda: li_cf(AF, [1.5], [1.0])),
    "integral_cf.lengths": (ParameterError, "equal length", lambda: integral_cf(
        [ONE], [1.0, 2.0], AF)),
    # 1e200^2 overflows, in log space too
    "integral_cf.not_integrable": (DomainError, "not integrable", lambda: integral_cf(
        [IntegrandFunction.from_table([1e200])], [1.0], AlphaFunction.constant(2.0))),
    "check_condition7.lag_past_one": (DomainError, "lags must lie in", lambda: check_condition7(
        AF, GRID, [1.5])),
    "check_condition7.lags_increasing": (DomainError, "strictly decreasing",
                                         lambda: check_condition7(AF, GRID, [0.125, 0.25])),
    "exponent_integral.interval": (DomainError, "need", lambda: exponent_integral(
        AF, 1.0, 0.75, 0.25)),
    "AlphaFunction.kind": (ParameterError, "unknown exponent kind", lambda: AlphaFunction(
        "bogus", (0.0, 1.0), (), (1.5,), (0.0,))),
    "AlphaFunction.domain": (ParameterError, "proper interval", lambda: AlphaFunction.constant(
        1.5, (1.0, 0.5))),
    "AlphaFunction.value_count": (ParameterError, "one value per cell",
                                  lambda: AlphaFunction.piecewise([0.5], [1.5])),
    "AlphaFunction.empty_table": (ParameterError, "at least one value",
                                  lambda: AlphaFunction.from_table([])),
    "AlphaFunction.segment": (DomainError, "outside domain", lambda: AF.segment(1)),
    "AlphaFunction.from_json.missing_field": (ParameterError, "missing field", lambda: (
        AlphaFunction.from_json('{"kind": "linear", "intercept": 1.2}'))),
    "AlphaFunction.from_json.number": (ParameterError, "JSON object",
                                       lambda: AlphaFunction.from_json("5")),
    "AlphaFunction.from_json.list": (ParameterError, "JSON object",
                                     lambda: AlphaFunction.from_json([1.5])),
    "AlphaFunction.from_json.null": (ParameterError, "JSON object",
                                     lambda: AlphaFunction.from_json("null")),
    # a field of the wrong shape is named, not a TypeError from the constructor
    **{f"AlphaFunction.from_json.{name}": (
        ParameterError, f"field '{field}' of exponent kind '{kind}' must be",
        lambda spec=spec: AlphaFunction.from_json(spec))
       for name, (kind, field, spec) in {
           "domain_number": ("constant", "domain", '{"kind":"constant","value":1.5,"domain":5}'),
           "domain_string": ("constant", "domain",
                             '{"kind":"constant","value":1.5,"domain":[0,"x"]}'),
           "breaks_number": ("piecewise", "breaks",
                             '{"kind":"piecewise","breaks":0.5,"values":[1.2,1.8]}'),
           "intercept_list": ("linear", "intercept",
                              '{"kind":"linear","intercept":[1.2],"slope":0.3}'),
           "values_number": ("table", "values", '{"kind":"table","values":3}'),
           "value_null": ("constant", "value", '{"kind":"constant","value":null}'),
       }.items()},
    "IntegrandFunction.from_table.two_d": (ParameterError, "1-d", lambda: (
        IntegrandFunction.from_table([[1.0, 2.0]]))),
    "IntegrandFunction.from_table.empty": (ParameterError, "non-empty",
                                           lambda: IntegrandFunction.from_table([])),
    "IntegrandFunction.indicator": (ParameterError, "indicator needs",
                                    lambda: IntegrandFunction.indicator(0.5, 0.25)),
    "max_deviation_probability.alpha": (ParameterError, "alpha in (0, 2)", lambda: (
        max_deviation_probability(2.0, 1.0, 2, 10, NO_DRAWS))),
    "weight_sup_constant.sup": (ParameterError, "sup is not finite", lambda: weight_sup_constant(
        IntegrandFunction.from_callable(lambda x: np.full_like(x, math.inf)), AF)),
    "strong_localisability_check.window": (ParameterError, "window", lambda: (
        strong_localisability_check(KernelFunction.running_indicator(), AF, 0.9, [0.5],
                                    [(0.0, 1.0)]))),
    "PathGrid.empty": (ParameterError, "non-empty", lambda: PathGrid(times=[], values=[])),
    "PathGrid.unequal": (ParameterError, "equally long", lambda: PathGrid(
        times=[0.0, 1.0], values=[0.0])),
    "StableParams.beta": (ParameterError, "beta must lie", lambda: StableParams(1.5, beta=1.5)),
    "StableParams.gaussian_beta": (ParameterError, "beta must be 0",
                                   lambda: StableParams(2.0, beta=0.5)),
    "poisson_arrivals.rate_before_any_draw": (ParameterError, "rate", lambda: (
        poisson_arrivals(-1.0, 3, NO_DRAWS))),
    "empirical_cf.no_samples": (ParameterError, "at least one sample",
                                lambda: empirical_cf([], [1.0])),
    "empirical_cf_joint.one_d": (ParameterError, "(N, J) sample matrix",
                                 lambda: empirical_cf_joint([1.0, 2.0], [[1.0]])),
    "empirical_cf_joint.tuple_length": (ParameterError, "sample dimension", lambda: (
        empirical_cf_joint([[1.0, 2.0]], [[1.0]]))),
    "ecf_report.theoretical_length": (ParameterError, "align with the grid", lambda: (
        ecf_report([0.1, 0.2], [1.0, 1.0], [0.5]))),
    "spearman_corr.lengths": (ParameterError, "equally long",
                              lambda: spearman_corr([1.0, 2.0], [1.0])),
}


@pytest.mark.parametrize("name", sorted(INADMISSIBLE_CALLS))
def test_inadmissible_input_is_named(name):
    error, words, call = INADMISSIBLE_CALLS[name]
    with pytest.raises(error) as info:
        call()
    assert words in str(info.value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(NON_FINITE_CALLS))
def test_non_finite_input_is_rejected(name):
    with pytest.raises((ParameterError, DomainError)):
        NON_FINITE_CALLS[name]()


@pytest.mark.parametrize("name", ["li_cf.thetas", "li_cf.theta_at_time_zero",
                                  "integral_cf.thetas", "exponent_integral.theta_inf",
                                  "li_cf.thetas_inf", "li_cf.theta_minus_inf_at_time_zero",
                                  "integral_cf.thetas_inf", "lf_n_exponent.theta_inf"])
def test_a_nan_theta_is_named(name):
    # a usage error naming theta (NaN or infinite), not a verdict on the
    # integrand
    with pytest.raises(ParameterError, match="theta"):
        NON_FINITE_CALLS[name]()


# finite thetas whose sum, a CF's coefficient, overflows the float range
OVERFLOWING_THETA_SUMS = {
    "li_cf": lambda: li_cf(AF, [0.5, 0.5], [1e308, 1e308]),
    "li_cf.eight_thetas": lambda: li_cf(AF, [0.5] * 8, [1e308] * 8),
    "li_cf.negative": lambda: li_cf(AF, [0.25, 0.5], [-1e308, -1e308]),
    "integral_cf": lambda: integral_cf([IntegrandFunction.indicator(0.0, 0.5)] * 2,
                                       [1e308, 1e308], AF),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(OVERFLOWING_THETA_SUMS))
def test_an_overflowing_theta_sum_is_named(name):
    # named as the overflow it is, not as an infinite theta nobody passed
    with pytest.raises(ParameterError, match="sum of the thetas overflows"):
        OVERFLOWING_THETA_SUMS[name]()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_thetas_whose_sums_stay_finite_are_kept():
    # the sizes add up past the float range, but no coefficient does
    assert li_cf(AF, [0.5, 1.0], [1e308, -1e308]) == 0.0
    assert integral_cf([IntegrandFunction.indicator(0.0, 0.5)] * 2, [1e308, -1e308], AF) == 1.0


@pytest.mark.parametrize("name", sorted(EMPTY_CALLS))
def test_empty_input_is_named(name):
    named, call = EMPTY_CALLS[name]
    with pytest.raises(ParameterError, match=named):
        call()


class TestOneCheckPerInput:
    def test_stable_fclt_checks_alpha_before_its_weight(self):
        # n^(-1/alpha) at alpha = 0 would raise ZeroDivisionError
        with pytest.raises(ParameterError):
            simulate_stable_fclt(0.0, 4, STREAM)

    def test_zero_arrivals_are_empty(self):
        assert poisson_arrivals(2.0, 0, STREAM).shape == (0,)

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
        lambda a: simulate_stable_fclt(a, 4, STREAM),
    ], ids=["StableParams", "ContinuousStableConfig", "sample_symmetric",
            "simulate_stable_fclt"])
    @pytest.mark.parametrize("alpha", [2.25, -0.5, NAN])
    def test_the_alpha_message_names_the_bad_value(self, make, alpha):
        with pytest.raises(ParameterError, match=rf"\(0, 2\], got {alpha}"):
            make(alpha)

    @pytest.mark.parametrize("grid, error", [
        ([0.1, 0.5], ParameterError), ([0.0, 0.5, 0.5], ParameterError),
        ([0.0, 0.5, NAN], ParameterError), ([0.0, 1.5], DomainError),
    ], ids=["start", "repeat", "nan_last", "past_one"])
    def test_both_triangle_series_samplers_share_one_grid_check(self, grid, error):
        with pytest.raises(error):
            sample_continuous_stable(CFG, grid, STREAM)
        with pytest.raises(error):
            simulate_sn(3, AF, STREAM, grid)

    @pytest.mark.parametrize("t", [NAN, -0.5, 3.0, [0.5, 1.5]],
                             ids=["nan", "below_zero", "past_one", "array_past_one"])
    def test_both_scale_functions_share_one_time_check(self, t):
        with pytest.raises(DomainError):
            scale_parameter(CFG, t)
        with pytest.raises(DomainError):
            scale_bounds(CFG, t)

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

    def test_hoelder_check_rejects_a_nan_eta(self):
        with pytest.raises(ParameterError, match="beta"):
            hoelder_bound_check(KernelFunction.running_indicator(), AF, NAN, 1.0, 0.2,
                                [(0.5, 0.25)], STREAM, n=4, ensemble=10)


def _bits(value):
    """The bytes of a result: a PathGrid's times and values, or an array."""
    if isinstance(value, PathGrid):
        return value.times.tobytes() + value.values.tobytes()
    return np.asarray(value, dtype=float).tobytes()


class TestOneIntegerCheck:
    def test_a_scalar_comes_back_as_a_python_int_and_a_list_as_int64(self):
        for value in (3, 3.0, np.int64(3), np.float32(3.0)):
            got = _check_ints(value, 1, 26, "n")
            assert type(got) is int and got == 3
        got = _check_ints([0, 2.0, np.int64(8)], 0, 8, "ks")
        assert got.dtype == np.int64 and got.tolist() == [0, 2, 8]

    @pytest.mark.parametrize("value", [NAN, math.inf, -math.inf, 2.5, 0, 27, -1, "3", True,
                                       2 ** 70])
    def test_a_scalar_outside_the_integers_in_range_is_named(self, value):
        with pytest.raises(ParameterError,
                           match=rf"^level n must be an integer in \[1, 26\], got {value}$"):
            _check_ints(value, 1, 26, "level n")

    @pytest.mark.parametrize("values, bad", [([1, NAN, 2.5], "nan"), ([1, 2.5, NAN], "2.5"),
                                             ([3, 9], "9"), ([math.inf], "inf")])
    def test_a_list_names_its_first_bad_value(self, values, bad):
        with pytest.raises(ParameterError,
                           match=rf"^ks must be integers in \[0, 8\], got {bad}$"):
            _check_ints(values, 0, 8, "ks")

    def test_no_upper_bound_means_the_largest_exact_float(self):
        assert _check_ints(2 ** 53 - 1, 0, None, "count") == 2 ** 53 - 1
        # 2^53 + 1 rounds to 2^53 as a float, so it cannot pass as 2^53
        for value in (2 ** 53, 2 ** 53 + 1, 1e300, math.inf):
            with pytest.raises(ParameterError, match=r"\[0, 9007199254740991\]"):
                _check_ints(value, 0, None, "count")

    @pytest.mark.parametrize("call, value", [
        (lambda n: simulate_li(SchemeConfig(n=n, af=AF, stream=STREAM, nested=True)), 3),
        (lambda n: marginal_ensemble("li", AF, n, [0.25, 1.0], 4, STREAM, nested=True), 3),
        (lambda n: sn_boundary_ensemble(n, AF, STREAM, [4, 8], 3, d=3.0, levels=8), 3),
        (lambda n: lf_n_exponent(AF, 0.7, 1.5, n), 3),
        (lambda k0: li_window_ensemble(AF, 4, k0, [1, 3], 3, STREAM), 2),
    ], ids=["SchemeConfig_nested", "marginal_ensemble_nested", "sn_boundary_ensemble",
            "lf_n_exponent", "li_window_ensemble_k0"])
    @pytest.mark.parametrize("kind", [float, np.int64])
    def test_integral_floats_and_numpy_integers_keep_the_bits_of_the_int(self, call, value,
                                                                         kind):
        assert _bits(call(kind(value))) == _bits(call(value))

    def test_scheme_config_stores_the_checked_int(self):
        cfg = SchemeConfig(n=np.int64(3), af=AF, stream=STREAM)
        assert type(cfg.n) is int and cfg.n == 3
        assert type(ContinuousStableConfig(1.5, 1.0, levels=4.0).levels) is int

    def test_a_window_start_past_the_grid_is_named(self):
        with pytest.raises(ParameterError, match=r"k0 must be an integer in \[0, 15\], got 16"):
            li_window_ensemble(AF, 4, 2 ** 4, [1], 2, STREAM)
