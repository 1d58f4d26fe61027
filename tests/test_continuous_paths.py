"""Tests for the triangle-basis stable process, its scale parameter, and the
continuous multistable approximation chained from per-cell processes."""

from __future__ import annotations

import numpy as np
import pytest

from mslevy import (
    AlphaFunction,
    ContinuousStableConfig,
    RandomStream,
    max_deviation_probability,
    sample_continuous_stable,
    scale_bounds,
    scale_parameter,
    simulate_sn,
    sn_boundary_ensemble,
    stable_level_draws,
    symmetric_from_uniform_pairs,
    triangle,
)
from mslevy.errors import DomainError, ParameterError
from mslevy import continuous_paths
from mslevy.stable_core import _CHUNK_PAIRS, _chunk_rows, _uniform_pairs

from _oracles import sn_path

AF_LINEAR = AlphaFunction.linear(1.2, 0.6)


class TestTriangleBasis:
    def test_tent_values(self):
        assert triangle(0.0) == 0.0
        assert triangle(0.5) == 1.0
        assert triangle(1.0) == 0.0
        assert triangle(0.25) == pytest.approx(0.5)
        assert triangle(-0.2) == 0.0
        assert triangle(1.2) == 0.0

    def test_vectorized(self):
        xs = np.linspace(-1.0, 2.0, 301)
        out = triangle(xs)
        assert out.shape == xs.shape
        assert np.all(out >= 0.0) and np.max(out) == 1.0

    def test_dyadic_tent_support_and_peak(self):
        # the series evaluates phi_jk(t) as triangle(2^j t - k): peak 1 at the
        # middle of [k/2^j, (k+1)/2^j], zero at both ends and outside
        def tent(j, k, t):
            return triangle(np.ldexp(t, j) - k)
        assert tent(2, 1, 0.375) == 1.0
        assert tent(2, 1, 0.25) == 0.0
        assert tent(2, 1, 0.5) == 0.0
        assert tent(2, 1, 0.24) == 0.0
        assert tent(0, 0, 0.5) == 1.0


class TestConfigValidation:
    def test_uniform_regime_needs_d_above_one_over_alpha(self):
        with pytest.raises(ParameterError):
            ContinuousStableConfig(alpha=1.0, d=1.0, levels=8)
        with pytest.raises(ParameterError):
            ContinuousStableConfig(alpha=1.0, d=0.9, levels=8)

    def test_alpha_and_level_bounds(self):
        with pytest.raises(ParameterError):
            ContinuousStableConfig(alpha=2.3, d=1.0)
        with pytest.raises(ParameterError):
            ContinuousStableConfig(alpha=1.5, d=1.0, levels=-1)


class TestLevelDraws:
    def test_prefix_consistency(self):
        stream = RandomStream(5)
        full = stable_level_draws(1.5, 4, stream)
        head = stable_level_draws(1.5, 4, stream, count=5)
        assert full.shape == (16,)
        assert np.array_equal(full[:5], head)

    def test_validation(self):
        with pytest.raises(ParameterError):
            stable_level_draws(1.5, -1, RandomStream(1))
        with pytest.raises(ParameterError):
            stable_level_draws(1.5, 3, RandomStream(1), count=9)


class TestTriangleSeriesProcess:
    def test_deterministic_and_zero_at_origin(self):
        cfg = ContinuousStableConfig(alpha=1.5, d=1.0, levels=8)
        grid = np.linspace(0.0, 1.0, 129)
        a = sample_continuous_stable(cfg, grid, RandomStream(3))
        b = sample_continuous_stable(cfg, grid, RandomStream(3))
        assert np.array_equal(a.values, b.values)
        assert a.values[0] == 0.0

    def test_last_tent_closes_the_path_at_one(self):
        # t = 1 falls in the last cell k = 2^j - 1 of every level, where the
        # tent is zero, so no coefficient past the level's end is read
        cfg = ContinuousStableConfig(alpha=1.5, d=1.0, levels=8)
        path = sample_continuous_stable(cfg, np.linspace(0.0, 1.0, 129), RandomStream(3))
        assert path.values[-1] == 0.0
        assert np.count_nonzero(path.values[1:-1]) == 127

    def test_truncation_refines_instead_of_replacing(self):
        # adding one level only adds that level's tents: the difference on
        # the level's peak grid is exactly the new weighted coefficients
        j, d, alpha = 5, 1.0, 1.5
        peaks = np.concatenate([[0.0], (2 * np.arange(2 ** j) + 1) / 2.0 ** (j + 1)])
        stream = RandomStream(9).child(3)
        hi = sample_continuous_stable(ContinuousStableConfig(alpha, d, levels=j), peaks, stream)
        lo = sample_continuous_stable(ContinuousStableConfig(alpha, d, levels=j - 1), peaks, stream)
        z = stable_level_draws(alpha, j, stream)
        assert np.max(np.abs((hi.values - lo.values)[1:] - 2.0 ** (-j * d) * z)) < 1e-13

    def test_grid_validation(self):
        cfg = ContinuousStableConfig(alpha=1.5, d=1.0, levels=4)
        with pytest.raises(ParameterError):
            sample_continuous_stable(cfg, np.array([0.1, 0.5]), RandomStream(1))
        with pytest.raises(DomainError):
            sample_continuous_stable(cfg, np.array([0.0, 1.5]), RandomStream(1))


class TestScaleParameter:
    def test_exact_pins(self):
        cfg = ContinuousStableConfig(alpha=1.5, d=1.0)
        assert scale_parameter(cfg, 0.0) == 0.0
        assert abs(scale_parameter(cfg, 0.5) - 1.0) < 1e-14
        assert scale_parameter(cfg, 1.0) == 0.0

    @pytest.mark.parametrize("alpha,d", [(1.5, 1.0), (0.8, 2.0)])
    def test_dyadic_closed_form(self, alpha, d):
        # at t = 1/4 only two tents are non-zero: level 0 at 1/2 and level 1 at 1
        cfg = ContinuousStableConfig(alpha=alpha, d=d)
        want = (0.5 ** alpha + 2.0 ** (-d * alpha)) ** (1.0 / alpha)
        assert scale_parameter(cfg, 0.25) == pytest.approx(want, abs=1e-14)

    @pytest.mark.parametrize("alpha,d", [(1.5, 1.0), (0.8, 2.0)])
    def test_series_truncation_is_sound(self, alpha, d):
        # at t = 1/3 every level's tent reads 2/3, so no level is zero and the
        # whole geometric series sum_j (2^(-jd) 2/3)^alpha is the target
        cfg = ContinuousStableConfig(alpha=alpha, d=d)
        want = ((2.0 / 3.0) ** alpha / (1.0 - 2.0 ** (-alpha * d))) ** (1.0 / alpha)
        assert scale_parameter(cfg, 1.0 / 3.0) == pytest.approx(want, rel=1e-13)

    def test_domain_and_shape(self):
        cfg = ContinuousStableConfig(alpha=1.5, d=1.0)
        with pytest.raises(DomainError):
            scale_parameter(cfg, 1.2)
        xs = np.linspace(0.0, 1.0, 11).reshape(11, 1)
        assert scale_parameter(cfg, xs).shape == (11, 1)

    @pytest.mark.parametrize("alpha,d", [(1.5, 1.0), (0.8, 2.0), (2.0, 0.6)])
    def test_provable_envelope(self, alpha, d):
        # scale^alpha >= phi(t)^alpha from the level-0 term alone, and the
        # geometric per-level maxima cap it from above
        cfg = ContinuousStableConfig(alpha=alpha, d=d)
        ts = np.linspace(0.0, 1.0, 1001)
        sigma = scale_parameter(cfg, ts)
        lower, upper = scale_bounds(cfg, ts)
        assert np.all(lower == triangle(ts))
        assert np.all(sigma >= lower - 1e-14)
        assert np.all(sigma <= upper + 1e-14)

    def test_displayed_lower_bound_holds_once_alpha_at_most_one(self):
        alpha = 0.8
        cfg = ContinuousStableConfig(alpha=alpha, d=2.0)
        ts = np.linspace(0.0, 1.0, 1001)
        displayed = triangle(ts) ** (1.0 / alpha)
        assert np.all(scale_parameter(cfg, ts) >= displayed - 1e-14)

    def test_bounds_shapes(self):
        cfg = ContinuousStableConfig(alpha=1.5, d=1.0)
        lower, upper = scale_bounds(cfg, np.linspace(0.0, 1.0, 7))
        assert lower.shape == (7,)
        assert np.isscalar(upper)
        assert upper == pytest.approx((1.0 - 2.0 ** (-1.5)) ** (-1.0 / 1.5))


class TestLevelMaximumTail:
    def test_probability_bounds_and_determinism(self):
        p = max_deviation_probability(1.5, 1.0, 4, 500, RandomStream(7))
        q = max_deviation_probability(1.5, 1.0, 4, 500, RandomStream(7))
        assert 0.0 <= p <= 1.0
        assert p == q

    def test_rate_parameter_validated(self):
        with pytest.raises(ParameterError):
            max_deviation_probability(1.5, 0.5, 4, 100, RandomStream(1))


class TestContinuousApproximation:
    def test_boundary_values_are_the_completed_cell_sums(self):
        n = 4
        grid = np.arange(2 ** n + 1) / 2.0 ** n
        path, diag = simulate_sn(n, AF_LINEAR, RandomStream(5).child(0), grid,
                                 levels=8, with_diagnostics=True)
        assert np.array_equal(path.values, np.concatenate([[0.0], np.cumsum(diag.cell_terms)]))
        assert diag.level0_bound.shape == (2 ** n,)
        assert np.all(diag.level0_bound >= 0.0)

    def test_deterministic_between_grids(self):
        # evaluating on a finer grid does not change the values at shared times
        n = 3
        coarse = np.arange(2 ** n + 1) / 2.0 ** n
        fine = np.arange(2 ** (n + 2) + 1) / 2.0 ** (n + 2)
        a = simulate_sn(n, AF_LINEAR, RandomStream(5).child(1), coarse, levels=8)
        b = simulate_sn(n, AF_LINEAR, RandomStream(5).child(1), fine, levels=8)
        assert np.allclose(b.values[::4], a.values, atol=1e-13)

    def test_validation(self):
        grid = np.linspace(0.0, 1.0, 9)
        with pytest.raises(ParameterError):
            simulate_sn(6, AF_LINEAR, RandomStream(1), grid, levels=4)  # levels < n
        with pytest.raises(ParameterError):
            simulate_sn(3, AF_LINEAR, RandomStream(1), grid, d=0.5, levels=8)
        with pytest.raises(ParameterError):
            simulate_sn(3, AlphaFunction.constant(1.5, domain=(0.0, 0.5)),
                        RandomStream(1), grid, levels=8)

    def test_boundary_ensemble_replays_full_paths(self):
        n, ks = 4, [0, 3, 8, 16]
        ens = sn_boundary_ensemble(n, AF_LINEAR, RandomStream(5), ks, ensemble=3, levels=8)
        grid = np.arange(2 ** n + 1) / 2.0 ** n
        for r in range(3):
            path = simulate_sn(n, AF_LINEAR, RandomStream(5).child(r), grid, levels=8)
            assert np.array_equal(ens[r], path.values[ks])

    @pytest.mark.parametrize("af", [AlphaFunction.constant(1.5), AF_LINEAR,
                                    AlphaFunction.piecewise([0.5], [1.0, 1.7])],
                             ids=["constant", "linear", "piecewise"])
    def test_draw_layout_matches_the_reference_path(self, af):
        # cell k reads its level blocks in order from stream.child(0xCE11, k);
        # level j holds shifts 0..2^j // 2^(n+1), enough for [0, 2^(-n-1)]
        n, levels, d = 3, 8, 1.25
        m = 2 ** n
        grid = np.unique(np.concatenate([np.arange(33) / 32.0, [0.3, 0.517, 0.99]]))
        stream = RandomStream(11)
        alphas = np.asarray(af(np.arange(m, dtype=float) / m))
        blocks = []
        for k in range(m):
            gen = stream.child(0xCE11, k).generator()
            cell = []
            for j in range(levels + 1):
                cnt = 2 ** j // 2 ** (n + 1) + 1
                u = gen.random(2 * cnt)
                cell.append(symmetric_from_uniform_pairs(np.full(cnt, alphas[k]),
                                                         u[0::2], u[1::2]))
            blocks.append(cell)
        values, level0_bound, cell_terms = sn_path(alphas, blocks, n, d, grid)
        path, diag = simulate_sn(n, af, stream, grid, d=d, levels=levels,
                                 with_diagnostics=True)
        assert np.array_equal(path.values, values)
        assert np.array_equal(diag.level0_bound, level0_bound)
        assert np.array_equal(diag.cell_terms, cell_terms)

    def test_cells_across_chunk_boundaries(self, monkeypatch):
        # deep levels make each cell's stream long, so the 16 cells are
        # drawn in chunks of 7, 7 and 2; every cell keeps its own stream
        n, levels, d, af = 4, 17, 1.25, AF_LINEAR
        m = 2 ** n
        sizes = [2 ** j // 2 ** (n + 1) + 1 for j in range(levels + 1)]
        assert _chunk_rows(sum(sizes)) == 7
        grid = np.unique(np.concatenate([np.arange(65) / 64.0, [0.3, 0.517, 0.99]]))
        stream = RandomStream(17)
        alphas = np.asarray(af(np.arange(m, dtype=float) / m))
        blocks = []
        for k in range(m):
            u = stream.child(0xCE11, k).generator().random(2 * sum(sizes))
            z = symmetric_from_uniform_pairs(np.full(sum(sizes), alphas[k]), u[0::2], u[1::2])
            blocks.append(np.split(z, np.cumsum(sizes)[:-1]))
        values, level0_bound, cell_terms = sn_path(alphas, blocks, n, d, grid)
        reads = []

        def recorded(*args):
            u = _uniform_pairs(*args)
            reads.append(u.size // 2)
            return u

        monkeypatch.setattr(continuous_paths, "_uniform_pairs", recorded)
        path, diag = simulate_sn(n, af, stream, grid, d=d, levels=levels,
                                 with_diagnostics=True)
        assert reads == [7 * sum(sizes), 7 * sum(sizes), 2 * sum(sizes)]
        assert max(reads) <= _CHUNK_PAIRS
        assert np.array_equal(path.values, values)
        assert np.array_equal(diag.level0_bound, level0_bound)
        assert np.array_equal(diag.cell_terms, cell_terms)

    def test_boundary_ensemble_validation(self):
        with pytest.raises(ParameterError):
            sn_boundary_ensemble(4, AF_LINEAR, RandomStream(1), [17], 2, levels=8)
        with pytest.raises(ParameterError):
            sn_boundary_ensemble(4, AF_LINEAR, RandomStream(1), [1], 2, levels=2)
