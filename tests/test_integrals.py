"""Tests for multistable integrals: sampling, independence criteria, tail
bounds, Hoelder and strong-localisability checks."""

from __future__ import annotations

import math

import numpy as np
import pytest

from mslevy import (
    AlphaFunction,
    IntegrandFunction,
    RandomStream,
    billingsley_bound,
    half_open_indicator,
    hoelder_bound_check,
    hoelder_tail_constant,
    independence_test,
    integral_cf,
    integral_ensemble,
    joint_integral_ensemble,
    modular_integral,
    overlap_measure,
    pairwise_independence,
    quasinorm,
    sample_integral,
    strong_localisability_check,
    weight_sup_constant,
    weighted_mslm,
)
from mslevy.errors import ParameterError
from mslevy.integrals import KernelFunction
from mslevy.msl_schemes import SchemeConfig, simulate_li
from mslevy.verify_stats import empirical_cf

AF_LINEAR = AlphaFunction.linear(1.2, 0.6)


class TestIntegrands:
    def test_half_open_indicator_values(self):
        # the window is open at the left edge and closed at the right one
        f = half_open_indicator(0.25, 0.75)
        assert f(0.25) == 0.0
        assert f(0.5) == 1.0
        assert f(0.75) == 1.0
        assert f(0.8) == 0.0
        assert f(0.1) == 0.0
        with pytest.raises(ParameterError):
            half_open_indicator(0.75, 0.25)

    def test_scaled_and_sup_bound(self):
        f = half_open_indicator(0.0, 0.5).scaled(3.0)
        assert f(0.25) == 3.0
        assert f.sup_bound() == 3.0
        assert IntegrandFunction.constant(0.0).sup_bound() == 0.0

    def test_difference_of_slices(self):
        running = KernelFunction.running_indicator()
        d = running.slice(0.75) - running.slice(0.5)
        assert d(0.6) == 1.0
        assert d(0.4) == 0.0
        assert d(0.8) == 0.0


class TestRunningKernelKeepsTheBits:
    """The running kernel is the weighted one with w = 1.  Its slice
    differences keep the bits of differences of closed indicators [0, t],
    with the zero integrand at t = 0, in every draw, modular and quasinorm:
    the two differ only at x = 0 for t = 0, a point no path reads."""

    PAIRS = [(1.0 / 3.0, 0.0), (0.0, 1.0 / 3.0), (1.0, 1.0 / 3.0), (0.5, 1.0 / 3.0),
             (1.0, 0.0), (0.75, 0.5)]
    ALPHAS = [AF_LINEAR, AlphaFunction.piecewise([1.0 / 3.0], [1.8, 1.1])]

    @staticmethod
    def _closed(t):
        return IntegrandFunction.indicator(0.0, t) if t > 0.0 else IntegrandFunction.constant(0.0)

    def _deltas(self):
        running = KernelFunction.running_indicator()
        return ([running.slice(t) - running.slice(v) for t, v in self.PAIRS],
                [self._closed(t) - self._closed(v) for t, v in self.PAIRS])

    @pytest.mark.parametrize("n", [6, 10])
    @pytest.mark.parametrize("af", ALPHAS, ids=["linear", "step"])
    def test_joint_draws(self, n, af):
        new, old = self._deltas()
        got = joint_integral_ensemble(new, af, n, 64, RandomStream(9))
        want = joint_integral_ensemble(old, af, n, 64, RandomStream(9))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("af", ALPHAS, ids=["linear", "step"])
    def test_modular_and_quasinorm(self, af):
        for f, g in zip(*self._deltas()):
            assert f.breakpoints == g.breakpoints and f.steps and g.steps
            assert modular_integral(f, af) == modular_integral(g, af)
            assert quasinorm(f, af) == quasinorm(g, af)


class TestOverlapMeasure:
    def test_disjoint_nested_and_partial(self):
        a = half_open_indicator(0.0, 0.5)
        b = half_open_indicator(0.5, 1.0)
        c = half_open_indicator(0.25, 0.75)
        assert overlap_measure(a, b) < 1e-12
        assert overlap_measure(a, a) == pytest.approx(0.5, abs=1e-12)
        assert overlap_measure(a, c) == pytest.approx(0.25, abs=1e-12)
        assert overlap_measure(c, a) == pytest.approx(overlap_measure(a, c), abs=1e-14)

    def test_callable_integrands_are_scanned_cell_by_cell(self):
        # not step functions: each cell between breakpoints is scanned
        f1 = IntegrandFunction.from_callable(lambda x: np.maximum(0.5 - x, 0.0), [0.5])
        f2 = IntegrandFunction.from_callable(lambda x: np.maximum(x - 0.25, 0.0), [0.25])
        assert overlap_measure(f1, f2) == 0.25
        assert overlap_measure(f1, f1) == 0.5


class TestIntegralSampling:
    def test_deterministic_and_linear_in_the_integrand(self):
        f = half_open_indicator(0.25, 0.75)
        a = sample_integral(f, AF_LINEAR, 8, RandomStream(5).child(0))
        b = sample_integral(f, AF_LINEAR, 8, RandomStream(5).child(0))
        c = sample_integral(f.scaled(2.0), AF_LINEAR, 8, RandomStream(5).child(0))
        assert a == b
        assert c == pytest.approx(2.0 * a, rel=1e-15)

    def test_ensemble_rows_replay_single_draws(self):
        f = half_open_indicator(0.0, 1.0)
        ens = integral_ensemble(f, AF_LINEAR, 8, 4, RandomStream(5))
        assert ens.shape == (4,) or ens.shape == (4, 1) or ens.ndim == 1
        one = sample_integral(f, AF_LINEAR, 8, RandomStream(5).child(0))
        assert np.ravel(ens)[0] == one

    def test_ecf_matches_the_modular_characteristic_function(self):
        f = half_open_indicator(0.25, 0.75)
        thetas = np.linspace(-3.0, 3.0, 25)
        ens = integral_ensemble(f, AF_LINEAR, 10, 4000, RandomStream(77))
        ecf = empirical_cf(ens, thetas)
        want = np.array([integral_cf([f], [th], AF_LINEAR) for th in thetas])
        assert np.max(np.abs(ecf - want)) < 5.0 / math.sqrt(4000)

    def test_joint_ensemble_shape(self):
        fs = [half_open_indicator(0.0, 0.5), half_open_indicator(0.5, 1.0)]
        out = joint_integral_ensemble(fs, AF_LINEAR, 8, 16, RandomStream(3))
        assert out.shape == (16, 2)


class TestIndependenceCriteria:
    def test_disjoint_supports_are_independent(self):
        rep = independence_test(half_open_indicator(0.0, 0.5), half_open_indicator(0.5, 1.0),
                                AF_LINEAR, RandomStream(31), n=10, ensemble=4000)
        assert rep.verdict == "independent"
        assert rep.applicable
        assert rep.overlap < 1e-12
        assert rep.analytic_independent
        assert rep.empirical_independent

    def test_full_overlap_is_dependent(self):
        whole = half_open_indicator(0.0, 1.0)
        rep = independence_test(whole, whole, AF_LINEAR, RandomStream(32), n=10, ensemble=4000)
        assert rep.verdict == "dependent"
        assert not rep.analytic_independent
        assert not rep.empirical_independent

    def test_endpoint_alpha_with_mixed_sign_product_refuses_a_verdict(self):
        f1 = half_open_indicator(0.0, 0.5)
        f2 = IntegrandFunction.from_table([1.0, -1.0])
        rep = independence_test(f1, f2, AlphaFunction.constant(2.0), RandomStream(33),
                                n=8, ensemble=1000)
        assert rep.verdict == "inapplicable"
        assert not rep.applicable
        assert rep.hypothesis == "none"

    def test_pairwise_thirds(self):
        thirds = [half_open_indicator(0.0, 1.0 / 3.0),
                  half_open_indicator(1.0 / 3.0, 2.0 / 3.0),
                  half_open_indicator(2.0 / 3.0, 1.0)]
        rep = pairwise_independence(thirds, AF_LINEAR)
        assert rep.independent
        assert rep.applicable
        assert rep.offending == ()

    def test_pairwise_flags_the_offending_pair(self):
        fs = [half_open_indicator(0.0, 0.5), half_open_indicator(0.4, 1.0)]
        rep = pairwise_independence(fs, AF_LINEAR)
        assert not rep.independent
        (entry,) = rep.offending
        assert entry[:2] == (0, 1)
        assert entry[2] == pytest.approx(0.1, abs=1e-12)

    def test_an_exponent_reaching_2_needs_a_nonnegative_product(self):
        gaussian = AlphaFunction.constant(2.0)
        halves = [half_open_indicator(0.0, 0.5), half_open_indicator(0.5, 1.0)]
        rep = pairwise_independence(halves, gaussian)
        assert rep.applicable and rep.independent
        mixed = [IntegrandFunction.from_table([1.0, -1.0]), IntegrandFunction.constant(1.0)]
        rep = pairwise_independence(mixed, gaussian)
        assert not rep.applicable and not rep.independent


class TestBillingsleyBound:
    def test_closed_form_for_exponential_cf(self):
        # lam/2 * integral_{-2/lam}^{2/lam} (1 - e^{-|t|}) dt at lam = 2 is 2/e
        got = billingsley_bound(lambda th: math.exp(-abs(th)), 2.0)
        assert got == pytest.approx(2.0 / math.e, abs=1e-9)

    def test_degenerate_cf_gives_zero(self):
        assert billingsley_bound(lambda th: 1.0, 3.0) == pytest.approx(0.0, abs=1e-12)

    def test_closed_form_for_a_cusped_cf(self):
        # 1 - e^{-|t|^(1/2)} has a cusp at 0; with t = u^2 the bound is
        # lam (s^2 + 2 (s + 1) e^{-s} - 2) at s = (2/lam)^(1/2)
        lam = 3.0
        s = math.sqrt(2.0 / lam)
        got = billingsley_bound(lambda th: math.exp(-math.sqrt(abs(th))), lam)
        assert got == pytest.approx(lam * (s * s + 2.0 * (s + 1.0) * math.exp(-s) - 2.0),
                                    rel=1e-10)

    def test_actually_bounds_a_stable_tail(self):
        from mslevy import StableParams, sample_stable, stable_cf
        lam = 3.0
        bound = billingsley_bound(lambda th: stable_cf(StableParams(1.5), th).real, lam)
        x = sample_stable(StableParams(1.5), 50_000, RandomStream(41))
        assert np.mean(np.abs(x) >= lam) <= bound


class TestWeightedMotion:
    def test_unit_weight_reduces_to_field_local_scheme(self):
        w = IntegrandFunction.constant(1.0)
        a = weighted_mslm(w, AF_LINEAR, 6, RandomStream(7).child(0))
        b = simulate_li(SchemeConfig(n=6, af=AF_LINEAR, stream=RandomStream(7).child(0)))
        assert np.array_equal(a.values, b.values)

    def test_weight_sup_constant(self):
        assert weight_sup_constant(IntegrandFunction.constant(1.0), AF_LINEAR) == 1.0
        got = weight_sup_constant(IntegrandFunction.constant(2.0), AF_LINEAR)
        assert got == pytest.approx(2.0 ** 1.8, rel=1e-9)


class TestIntegrandConvergence:
    """The integrals of f_k converge to that of f iff ||f_k - f|| -> 0."""

    def test_converging_sequence(self):
        # ||1_[1/2, 1/2 + h)|| -> h^(1/alpha(1/2)) as the cell shrinks
        target = half_open_indicator(0.0, 0.5)
        hs = [2.0 ** -k for k in range(2, 7)]
        norms = [quasinorm(half_open_indicator(0.0, 0.5 + h) - target, AF_LINEAR) for h in hs]
        assert all(a > b for a, b in zip(norms, norms[1:]))
        assert norms[-1] == pytest.approx(hs[-1] ** (1.0 / AF_LINEAR(0.5)), rel=0.02)

    def test_limit_cfs_follow_the_quasinorm(self):
        # the limit CF of the integral of f_k approaches that of f as the
        # extra cell [1/2, 1/2 + 2^-k) shrinks
        target = half_open_indicator(0.0, 0.5)
        theta = 1.5
        want = integral_cf([target], [theta], AF_LINEAR)
        gaps = [abs(integral_cf([half_open_indicator(0.0, 0.5 + 2.0 ** -k)], [theta], AF_LINEAR)
                    - want) for k in range(2, 7)]
        assert all(a > b > 0.0 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.02

    def test_non_converging_sequence(self):
        # the difference is +-1 on all of [0, 1), whose quasinorm is 1 under
        # every exponent
        target = half_open_indicator(0.0, 0.5)
        far = quasinorm(half_open_indicator(0.5, 1.0) - target, AF_LINEAR)
        assert far == pytest.approx(1.0, abs=1e-9)


class TestHoelderBound:
    def test_tail_constant_explicit_chain(self):
        a, b, x = 1.2, 1.8, 0.33
        want = x / (a + 1.0) + 2.0 ** (b + 1.0) / ((b + 1.0) * x ** b)
        assert hoelder_tail_constant(1.0, a, b, x) == pytest.approx(want, rel=1e-12)
        assert hoelder_tail_constant(2.5, a, b, x) == pytest.approx(2.5 * want, rel=1e-12)

    def test_energy_identity_for_running_indicator(self):
        running = KernelFunction.running_indicator()
        for t, v in ((0.5, 0.75), (0.25, 0.625)):
            d = running.slice(max(t, v)) - running.slice(min(t, v))
            assert modular_integral(d, AF_LINEAR) == pytest.approx(abs(t - v), abs=1e-10)

    def test_report_smoke(self):
        rep = hoelder_bound_check(KernelFunction.running_indicator(), AF_LINEAR,
                                  eta=1.0, C=1.0, beta=0.4,
                                  pairs=[(0.5, 0.5 + 2.0 ** -4)],
                                  stream=RandomStream(1), n=10, ensemble=2000)
        assert rep.all_pass
        (pair,) = rep.pairs
        assert pair.energy == pytest.approx(2.0 ** -4, abs=1e-10)
        assert 0.0 <= pair.tail_prob <= 1.0
        assert pair.tail_ok and pair.energy_ok

    def test_a_zero_gap_pair_draws_nothing_and_passes(self):
        rep = hoelder_bound_check(KernelFunction.running_indicator(), AF_LINEAR,
                                  eta=1.0, C=1.0, beta=0.4, pairs=[(0.5, 0.5)],
                                  stream=RandomStream(1), n=4, ensemble=10)
        (pair,) = rep.pairs
        assert (pair.energy, pair.energy_bound, pair.tail_prob, pair.tail_bound) == (0.0,) * 4
        assert rep.all_pass


class TestStrongLocalisability:
    def test_a_slope_that_moves_with_the_radius_is_unstable(self):
        # at r = 1/2 the windows reach the step of alpha at 0.45, at r = 0.01 they do not
        rep = strong_localisability_check(KernelFunction.running_indicator(),
                                          AlphaFunction.piecewise([0.45], [1.0, 2.0]), x=0.4,
                                          r_list=[0.5, 0.01], pairs=[(0.0, 0.05), (0.0, 0.2)],
                                          with_quasinorm=False)
        assert rep.eta_spread >= 0.1 and rep.verdict == "unstable-fit"

    def test_a_slope_at_most_the_required_one_is_not_established(self):
        # f(t, s) = t under alpha = 0.8: every energy is (r |t - v|)^0.8 / r
        rep = strong_localisability_check(KernelFunction(IntegrandFunction.constant),
                                          AlphaFunction.constant(0.8), x=0.5,
                                          r_list=[0.25, 0.125], pairs=[(1.0, 0.5), (1.0, 0.0)])
        assert rep.eta_mean == pytest.approx(0.8, abs=1e-12)
        assert rep.verdict == "not-established"

    def test_constant_kernel_has_zero_increments(self):
        g = half_open_indicator(0.0, 0.5)
        kernel = KernelFunction(lambda t: g)
        rep = strong_localisability_check(kernel, AF_LINEAR, x=0.5,
                                          r_list=[2.0 ** -4, 2.0 ** -5],
                                          pairs=[(1.0, 0.5), (0.75, 0.25)])
        assert all(v == 0.0 for row in rep.lhs_table for v in row)

    def test_running_indicator_under_constant_alpha_is_exact(self):
        rep = strong_localisability_check(KernelFunction.running_indicator(),
                                          AlphaFunction.constant(1.5), x=0.5,
                                          r_list=[2.0 ** -4, 2.0 ** -6],
                                          pairs=[(1.0, 0.5), (0.75, 0.25), (1.0, 0.25)],
                                          independent_increments=True)
        for row in rep.lhs_table:
            for lhs, (t, v) in zip(row, [(1.0, 0.5), (0.75, 0.25), (1.0, 0.25)]):
                assert lhs == pytest.approx(abs(t - v), rel=1e-9)
        assert rep.eta_mean == pytest.approx(1.0, abs=1e-6)
        assert rep.verdict == "strongly-localisable"
        assert rep.required_eta == 0.5

    def test_missed_tolerance_is_reported_as_a_failure_row(self):
        # |s - 1/3|^-0.999 is integrable but too close to a pole for the
        # quadrature to meet its tolerance: the energy is nan, not raised
        weight = IntegrandFunction.from_callable(lambda s: np.abs(s - 1.0 / 3.0) ** -0.999)
        pairs = [(0.0, 1.0), (0.0, 0.5)]
        rep = strong_localisability_check(KernelFunction.weighted_running(weight),
                                          AlphaFunction.constant(1.0), x=0.3,
                                          r_list=[0.25], pairs=pairs)
        assert rep.failures == tuple((0.25, t, v, "quadrature failure") for t, v in pairs)
        assert all(math.isnan(e) for e in rep.lhs_table[0])
        assert rep.verdict == "degenerate"
