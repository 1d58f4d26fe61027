"""Tests for the dyadic weighted-sum schemes, path containers, ensemble
drivers and CSV output."""

from __future__ import annotations

import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mslevy import (
    AlphaFunction,
    PathGrid,
    RandomStream,
    SchemeConfig,
    ensemble_to_csv,
    glue_whole_line,
    grid_index,
    li_window_ensemble,
    marginal_ensemble,
    path_to_csv,
    simulate_lc,
    simulate_li,
    simulate_lr,
    simulate_stable_fclt,
)
from mslevy.errors import ParameterError
from mslevy.verify_stats import ecf_report

AF_LINEAR = AlphaFunction.linear(1.2, 0.6)
AF_CONST = AlphaFunction.constant(1.5)


class TestPathGrid:
    def test_must_start_at_origin(self):
        with pytest.raises(ParameterError):
            PathGrid(times=np.array([0.5, 1.0]), values=np.array([0.0, 1.0]))
        with pytest.raises(ParameterError):
            PathGrid(times=np.array([0.0, 1.0]), values=np.array([0.5, 1.0]))

    @pytest.mark.parametrize("times", [
        [0.0, 0.5, 0.5], [0.0, 0.0, 1.0], [0.0, 0.25, 0.25, 1.0], [0.0, math.nan, 1.0],
        [0.0, 0.5, math.nan], [0.0, 0.6, 0.4, 1.0], [0.0, 1.0, -1.0]],
        ids=["equal_at_end", "equal_at_start", "equal_inside", "nan_inside", "nan_at_end",
             "decrease", "decrease_below_zero"])
    def test_times_strictly_increasing(self, times):
        with pytest.raises(ParameterError, match="strictly increasing"):
            PathGrid(times=np.array(times), values=np.zeros(len(times)))

    def test_len_counts_the_grid_points(self):
        path = PathGrid(times=np.array([0.0, 0.5, 1.0]), values=np.array([0.0, 3.0, 7.0]))
        assert len(path) == 3


class TestGridIndex:
    def test_floor_semantics(self):
        assert grid_index(3, 0.0) == 0
        assert grid_index(3, 0.49) == 3
        assert grid_index(3, 0.5) == 4
        assert grid_index(3, 1.0) == 8
        # snapped up by 1e-12: just below k/2^n reads k, further below k - 1
        assert [grid_index(3, 0.5 + s) for s in (-1e-11, -1e-13, 1e-13, 1e-11)] == [3, 4, 4, 4]

    @pytest.mark.parametrize("n", [4, 10, 16])
    @pytest.mark.parametrize("shift", [-5e-10, -1e-11, -5e-13, -1e-13, 1e-13, 5e-13, 1e-11,
                                       5e-10])
    def test_ensemble_reads_the_path_at_grid_index(self, n, shift):
        # one snapping rule: the ensemble reads a single path's grid_index
        # cell next to every k/2^n
        stream = RandomStream(3)
        path = simulate_li(SchemeConfig(n=n, af=AF_LINEAR, stream=stream.child(0)))
        us = [k / 2 ** n + shift for k in (1, 2 ** (n - 1), 2 ** n - 1)]
        row = marginal_ensemble("li", AF_LINEAR, n, us, 1, stream)[0]
        assert list(row) == [path.values[grid_index(n, u)] for u in us]
        assert [grid_index(n, u) for u in us] == [
            int(np.searchsorted(path.times, u + 1e-12, side="right")) - 1 for u in us]


class TestSchemeConfig:
    @pytest.mark.parametrize("n", [0, 27, -2])
    def test_level_bounds(self, n):
        with pytest.raises(ParameterError):
            SchemeConfig(n=n, af=AF_LINEAR, stream=RandomStream(1))


class TestFieldLocalScheme:
    def test_shape_and_determinism(self):
        cfg = SchemeConfig(n=6, af=AF_LINEAR, stream=RandomStream(42).child(0))
        path = simulate_li(cfg)
        again = simulate_li(SchemeConfig(n=6, af=AF_LINEAR, stream=RandomStream(42).child(0)))
        assert len(path) == 2 ** 6 + 1
        assert np.array_equal(path.times, np.arange(65) / 64.0)
        assert path.values[0] == 0.0
        assert np.array_equal(path.values, again.values)

    def test_constant_alpha_increments_are_unit_stable(self):
        n = 12
        cfg = SchemeConfig(n=n, af=AF_CONST, stream=RandomStream(8))
        path = simulate_li(cfg)
        rescaled = np.diff(path.values) * 2.0 ** (n / 1.5)
        rep = ecf_report(rescaled, lambda th: np.exp(-np.abs(th) ** 1.5))
        assert rep.sup_deviation < 5.0 * rep.mc_stderr

    def test_nested_draws_are_reused_across_levels(self):
        alpha = 1.5
        base = RandomStream(13)
        coarse = simulate_li(SchemeConfig(n=4, af=AlphaFunction.constant(alpha),
                                          stream=base, nested=True))
        fine = simulate_li(SchemeConfig(n=5, af=AlphaFunction.constant(alpha),
                                        stream=base, nested=True))
        draws_coarse = np.diff(coarse.values) * 2.0 ** (4 / alpha)
        draws_fine = np.diff(fine.values) * 2.0 ** (5 / alpha)
        assert np.allclose(draws_fine[1::2], draws_coarse, rtol=1e-12)

    def test_fresh_draws_differ_from_nested(self):
        base = RandomStream(13)
        fresh = simulate_li(SchemeConfig(n=5, af=AF_CONST, stream=base))
        nested = simulate_li(SchemeConfig(n=5, af=AF_CONST, stream=base, nested=True))
        assert not np.array_equal(fresh.values, nested.values)


class TestArrivalSchemes:
    def test_lr_deterministic_and_well_formed(self):
        cfg = SchemeConfig(n=5, af=AF_LINEAR, stream=RandomStream(4).child(0))
        path = simulate_lr(cfg)
        again = simulate_lr(SchemeConfig(n=5, af=AF_LINEAR, stream=RandomStream(4).child(0)))
        assert len(path) == 33
        assert np.array_equal(path.values, again.values)

    def test_lc_with_expected_arrival_total_reduces_to_field_local(self):
        stream = RandomStream(21)
        li = simulate_li(SchemeConfig(n=7, af=AF_LINEAR, stream=stream.child(0)))
        lc = simulate_lc(SchemeConfig(n=7, af=AF_LINEAR, stream=stream.child(0)),
                         gamma_value=float(2 ** 7))
        assert np.array_equal(li.values, lc.values)

    def test_lr_rejects_nested_draws(self):
        # at seed 3, floor(Gamma_8) = 11 summands outrun the 8 dyadic addresses
        cfg = SchemeConfig(n=3, af=AF_LINEAR, stream=RandomStream(3), nested=True)
        with pytest.raises(ParameterError):
            simulate_lr(cfg)
        with pytest.raises(ParameterError):
            marginal_ensemble("lr", AF_LINEAR, 3, [1.0], 2, RandomStream(3), nested=True)

    def test_lc_rejects_nonpositive_total(self):
        with pytest.raises(ParameterError):
            simulate_lc(SchemeConfig(n=4, af=AF_LINEAR, stream=RandomStream(1)),
                        gamma_value=0.0)


class TestWholeLineGlue:
    def test_continuity_and_shape(self):
        af = AlphaFunction.linear(1.0, 0.25, domain=(0.0, 2.0))
        path = glue_whole_line(af, 4, RandomStream(6))
        again = glue_whole_line(af, 4, RandomStream(6))
        assert len(path) == 2 * 2 ** 4 + 1
        assert path.times[0] == 0.0 and path.times[-1] == 2.0
        assert np.all(np.diff(path.times) > 0.0)
        assert np.array_equal(path.values, again.values)

    def test_needs_integer_domain(self):
        with pytest.raises(ParameterError):
            glue_whole_line(AlphaFunction.constant(1.5, domain=(0.0, 1.5)), 4, RandomStream(1))


class TestStableFclt:
    def test_shape_and_validation(self):
        path = simulate_stable_fclt(1.5, 50, RandomStream(2))
        assert len(path) == 51
        assert path.times[-1] == 1.0
        with pytest.raises(ParameterError):
            simulate_stable_fclt(2.5, 10, RandomStream(1))
        with pytest.raises(ParameterError):
            simulate_stable_fclt(1.5, 0, RandomStream(1))
        with pytest.raises(ParameterError):
            simulate_stable_fclt(1.5, 2.5, RandomStream(1))

    def test_terminal_value_is_unit_stable(self):
        ens = np.array([simulate_stable_fclt(1.2, 256, RandomStream(3).child(r)).values[-1]
                        for r in range(4000)])
        rep = ecf_report(ens, lambda th: np.exp(-np.abs(th) ** 1.2))
        assert rep.sup_deviation < 5.0 * rep.mc_stderr


class TestEnsembleDrivers:
    def test_marginal_rows_replay_single_paths(self):
        us = [0.25, 0.5, 1.0]
        out = marginal_ensemble("li", AF_LINEAR, 6, us, 3, RandomStream(30))
        for r in range(3):
            path = simulate_li(SchemeConfig(n=6, af=AF_LINEAR, stream=RandomStream(30).child(r)))
            assert np.array_equal(out[r], path.values[[grid_index(6, u) for u in us]])

    def test_unknown_scheme_and_bad_ensemble(self):
        with pytest.raises(ParameterError):
            marginal_ensemble("lx", AF_LINEAR, 4, [1.0], 2, RandomStream(1))
        with pytest.raises(ParameterError):
            marginal_ensemble("li", AF_LINEAR, 4, [1.0], 0, RandomStream(1))

    def test_window_ensemble_shape_and_bounds(self):
        out = li_window_ensemble(AF_LINEAR, 6, 16, [1, 2, 4], 5, RandomStream(9))
        again = li_window_ensemble(AF_LINEAR, 6, 16, [1, 2, 4], 5, RandomStream(9))
        assert out.shape == (5, 3)
        assert np.array_equal(out, again)
        with pytest.raises(ParameterError):
            li_window_ensemble(AF_LINEAR, 6, 62, [1, 4], 2, RandomStream(9))
        with pytest.raises(ParameterError):
            li_window_ensemble(AF_LINEAR, 6, 10, [0], 2, RandomStream(9))


@given(k=st.integers(1, 2 ** 10), n=st.integers(1, 10))
@settings(max_examples=100, deadline=None)
def test_dyadic_grid_times_refine(k, n):
    # the grid at level n+1 contains every level-n grid point
    if k <= 2 ** n:
        coarse = k / 2.0 ** n
        assert grid_index(n + 1, coarse) == 2 * k


class TestCsvOutput:
    def test_path_round_trips_at_full_precision(self):
        path = simulate_li(SchemeConfig(n=4, af=AF_LINEAR, stream=RandomStream(12)))
        buf = io.StringIO()
        path_to_csv(path, buf, meta={"scheme": "li", "n": 4})
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("# ")
        assert json.loads(lines[0][2:]) == {"scheme": "li", "n": 4}
        assert lines[1] == "t,value"
        assert len(lines) == 2 + len(path)
        parsed = np.array([[float(c) for c in row.split(",")] for row in lines[2:]])
        assert np.array_equal(parsed[:, 0], path.times)
        assert np.array_equal(parsed[:, 1], path.values)

    def test_ensemble_rows_carry_replicate_index(self):
        paths = [simulate_li(SchemeConfig(n=3, af=AF_LINEAR, stream=RandomStream(1).child(r)))
                 for r in range(2)]
        buf = io.StringIO()
        ensemble_to_csv(paths, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,value,replicate"
        assert len(lines) == 1 + 2 * 9
        assert lines[1].endswith(",0")
        assert lines[-1].endswith(",1")
