"""Tests for empirical-CF machinery and the statistical verification
drivers (increment CF, factorization, tightness, localisability)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mslevy import (
    AlphaFunction,
    RandomStream,
    ecf_report,
    empirical_cf,
    empirical_cf_joint,
    exponent_integral,
    factorization_test,
    increment_cf_test,
    localisability_test,
    spearman_corr,
    theta_grid_default,
    tightness_bound_constant,
    tightness_check,
)
from mslevy.errors import GridResolutionError, ParameterError
from mslevy.verify_stats import _average_ranks, _factorization_distance, _increments

from _oracles import average_ranks

AF_LINEAR = AlphaFunction.linear(1.2, 0.6)


class TestEmpiricalCf:
    def test_manual_two_point_sample(self):
        samples = np.array([1.0, 2.0])
        thetas = np.array([0.5, -1.5])
        got = empirical_cf(samples, thetas)
        want = np.array([np.mean(np.exp(1j * th * samples)) for th in thetas])
        assert np.allclose(got, want, atol=1e-15)

    def test_joint_version(self):
        samples = np.array([[1.0, 0.5], [0.25, -1.0], [0.0, 2.0]])
        pairs = [(0.5, 1.0), (-1.0, 0.25)]
        got = empirical_cf_joint(samples, pairs)
        want = np.array([np.mean(np.exp(1j * (samples @ np.asarray(p)))) for p in pairs])
        assert np.allclose(got, want, atol=1e-15)

    @pytest.mark.parametrize("size", [1000, 200_000], ids=["one_chunk", "chunked"])
    def test_joint_version_on_one_coordinate_is_the_plain_ecf(self, size):
        # 200,000 samples x 13 frequencies crosses the 2e6-element chunk size
        x = RandomStream(8).generator().standard_cauchy(size)
        th = np.linspace(-3.0, 3.0, 13)
        plain = empirical_cf(x, th)
        assert plain.tobytes() == empirical_cf_joint(x[:, None], th[:, None]).tobytes()
        if x.size * th.size < 2_000_000:
            direct = np.exp(1j * np.outer(x, th)).sum(0) / x.size
            assert plain.tobytes() == direct.tobytes()

    def test_report_fields(self):
        samples = RandomStream(3).generator().normal(size=1000)
        rep = ecf_report(samples, lambda th: np.exp(-0.5 * th ** 2), label="normal")
        assert rep.label == "normal"
        assert rep.n_samples == 1000
        assert rep.mc_stderr == pytest.approx(1.0 / math.sqrt(1000))
        manual = np.max(np.abs(empirical_cf(samples, rep.theta_grid) - rep.theoretical))
        assert rep.sup_deviation == pytest.approx(manual, abs=1e-15)

    def test_default_theta_grid(self):
        grid = theta_grid_default()
        assert grid.shape == (61,)
        assert grid[0] == -3.0 and grid[-1] == 3.0
        assert np.all(np.diff(grid) > 0.0)


class TestSpearman:
    def test_perfect_monotone(self):
        xs = np.array([0.1, 0.2, 0.5, 0.9])
        assert spearman_corr(xs, xs ** 3) == pytest.approx(1.0)
        assert spearman_corr(xs, -xs) == pytest.approx(-1.0)

    def test_manual_rank_correlation(self):
        xs = np.array([3.0, 1.0, 2.0, 4.0])
        ys = np.array([2.0, 1.0, 4.0, 3.0])
        # ranks: xs -> 3 1 2 4, ys -> 2 1 4 3; sum d^2 = 6, rho = 1 - 36/60
        assert spearman_corr(xs, ys) == pytest.approx(0.4)

    @given(st.lists(st.sampled_from([-2.5, -0.0, 0.0, 0.5, 1.0, 3.0]) | st.floats(-4.0, 4.0),
                    min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_average_ranks_are_the_loop_ranks(self, values):
        v = np.asarray(values, dtype=float)
        assert _average_ranks(v).tobytes() == average_ranks(v).tobytes()


class TestIncrementCfTest:
    def test_validation(self):
        with pytest.raises(ParameterError):
            increment_cf_test("li", AF_LINEAR, 0, [(0.0, 1.0)], 2000, RandomStream(1))
        with pytest.raises(ParameterError):
            increment_cf_test("li", AF_LINEAR, 6, [(0.0, 1.0)], 500, RandomStream(1))

    def test_field_local_increments_match_the_limit_cf(self):
        intervals = [(0.0, 1.0), (0.25, 0.75)]
        reports = increment_cf_test("li", AF_LINEAR, 10, intervals, 2000, RandomStream(101))
        assert len(reports) == len(intervals)
        for rep, (u1, u2) in zip(reports, intervals):
            assert rep.sup_deviation < 5.0 * rep.mc_stderr
            # the theoretical curve is exp(-exponent integral over the window)
            mid = len(rep.theta_grid) // 2
            theta = rep.theta_grid[mid + 7]
            want = math.exp(-exponent_integral(AF_LINEAR, float(theta), u1, u2))
            assert rep.theoretical[mid + 7] == pytest.approx(want, rel=1e-12)


class TestFactorization:
    def test_disjoint_interval_increments_factorize(self):
        rep = factorization_test("li", AF_LINEAR, [(0.0, 0.5), (0.5, 1.0)], 10, 4000,
                                 RandomStream(55))
        assert rep.passed
        assert rep.distance < rep.threshold
        assert rep.ensemble == 4000

    def test_single_interval_distance_is_exactly_zero(self):
        incs = _increments("li", AF_LINEAR, 8, [(0.25, 0.75)], 1000, RandomStream(57))
        assert _factorization_distance(incs) == 0.0

    def test_single_interval_is_rejected(self):
        # the zero distance of one column would pass without checking anything
        with pytest.raises(ParameterError, match="intervals"):
            factorization_test("li", AF_LINEAR, [(0.25, 0.75)], 8, 1000, RandomStream(57))

    def test_overlapping_intervals_are_rejected_up_front(self):
        with pytest.raises(ParameterError):
            factorization_test("li", AF_LINEAR, [(0.0, 1.0), (0.0, 1.0)], 10, 4000,
                               RandomStream(56))


class TestTightness:
    def test_bound_constant_positive_and_finite(self):
        for gamma in (0.5, 1.0, 1.4):
            c = tightness_bound_constant(gamma)
            assert 0.0 < c < math.inf

    def test_report_structure_and_pass(self):
        rep = tightness_check("li", AF_LINEAR, (0.2, 0.5, 0.8), (1.0, 3.0), 10, 2000,
                              RandomStream(60))
        assert rep.passed
        assert len(rep.empirical) == len(rep.bounds) == 2
        assert not rep.zero_width
        assert all(e <= b for e, b in zip(rep.empirical, rep.bounds))

    def test_zero_width_window_is_exactly_degenerate(self):
        # a triple narrower than one grid cell cannot produce a double jump
        rep = tightness_check("li", AF_LINEAR, (0.2, 0.2, 0.2002), (1.0,), 8, 500,
                              RandomStream(61))
        assert rep.zero_width
        assert rep.passed
        assert all(e == 0.0 for e in rep.empirical)

    def test_triple_must_be_ordered(self):
        with pytest.raises(ParameterError):
            tightness_check("li", AF_LINEAR, (0.8, 0.5, 0.2), (1.0,), 8, 500, RandomStream(1))


class TestLocalisability:
    def test_grid_resolution_guard(self):
        with pytest.raises(GridResolutionError):
            localisability_test(AF_LINEAR, 0.5, 1.0, [2.0 ** -4, 2.0 ** -8], n=8, ensemble=1000,
                                stream=RandomStream(1))

    def test_smooth_exponent_passes(self):
        rs = [2.0 ** -2, 2.0 ** -3, 2.0 ** -5, 2.0 ** -7]
        rep = localisability_test(AF_LINEAR, 0.5, 1.0, rs, n=12, ensemble=2000,
                                  stream=RandomStream(72), tolerance=0.1)
        assert rep.passed
        assert rep.alpha_x == pytest.approx(AF_LINEAR(0.5))
        assert rep.spearman > 0.0
        assert rep.final_deviation < rep.tolerance
        assert len(rep.deviations) == len(rs)
