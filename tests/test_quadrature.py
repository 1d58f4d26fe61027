"""Tests for the Gauss-Kronrod and adaptive Simpson quadratures with
breakpoint splitting."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from mslevy import AlphaFunction, IntegrandFunction, modular_integral
from mslevy.errors import ParameterError, QuadratureError
from mslevy.quadrature import _GAUSS, _KRONROD, _NODES, adaptive_simpson, gauss_kronrod, split_points


def test_exact_on_cubic():
    got = adaptive_simpson(lambda x: 4.0 * x ** 3 + 3.0 * x ** 2 + 1.0, 0.0, 2.0)
    assert got == pytest.approx(2.0 ** 4 + 2.0 ** 3 + 2.0, abs=1e-13)


def test_exponential_to_requested_tolerance():
    got = adaptive_simpson(math.exp, 0.0, 1.0, rel_tol=1e-12)
    assert got == pytest.approx(math.e - 1.0, rel=1e-11)


def test_kink_with_breakpoint_split():
    got = adaptive_simpson(abs, -1.0, 2.0, breakpoints=(0.0,))
    assert got == pytest.approx(2.5, abs=1e-12)


def test_oscillatory_cancellation():
    got = adaptive_simpson(math.sin, 0.0, 2.0 * math.pi, abs_tol=1e-12)
    assert abs(got) < 1e-10


def test_sharp_peak():
    got = adaptive_simpson(lambda x: 1.0 / (1.0 + 25.0 * x * x), -1.0, 1.0, rel_tol=1e-11)
    assert got == pytest.approx(2.0 / 5.0 * math.atan(5.0), rel=1e-10)


def test_step_integrand_with_declared_jump():
    got = adaptive_simpson(lambda x: 1.0 if x < 0.3 else 2.0, 0.0, 1.0,
                           breakpoints=(0.3,))
    assert got == pytest.approx(0.3 + 1.4, abs=1e-12)


def test_panel_near_the_float_minimum_converges():
    # on [0, 2^-1022] the panel tolerance once underflowed to 0, so every
    # branch refined to the depth limit: about 2^48 evaluations
    calls = []

    def f(x):
        calls.append(x)
        if len(calls) > 1000:
            raise RuntimeError("adaptive Simpson did not converge")
        return 1.3

    width = 2.2250738585072014e-308
    assert adaptive_simpson(f, 0.0, width) == pytest.approx(1.3 * width, rel=1e-12)


def test_reversed_interval_rejected():
    with pytest.raises(ParameterError):
        adaptive_simpson(math.exp, 1.0, 0.0)


def test_split_points_sorted_deduped_and_clipped():
    pts = split_points(0.0, 1.0, (0.5, -1.0, 0.5, 2.0, 0.25))
    assert pts == [0.0, 0.25, 0.5, 1.0]
    assert split_points(0.0, 1.0, ()) == [0.0, 1.0]


class TestGaussKronrod:
    def test_nodes_and_weights(self):
        # G7 is Gauss-Legendre on the odd-indexed nodes; K15 integrates
        # every polynomial of degree <= 23 on [-1, 1] exactly
        xs, ws = leggauss(7)
        assert np.allclose(_NODES[1::2], xs, rtol=0.0, atol=1e-15)
        assert np.allclose(_GAUSS[1::2], ws, rtol=0.0, atol=1e-15)
        assert not _GAUSS[::2].any()
        for d in range(24):
            want = 0.0 if d % 2 else 2.0 / (d + 1)
            assert _NODES ** d @ _KRONROD == pytest.approx(want, abs=1e-15)

    def test_exact_on_cubic(self):
        got = gauss_kronrod(lambda x: 4.0 * x ** 3 + 3.0 * x ** 2 + 1.0, 0.0, 2.0)
        assert got == pytest.approx(2.0 ** 4 + 2.0 ** 3 + 2.0, abs=1e-13)

    def test_exponential_to_the_default_tolerance(self):
        got = gauss_kronrod(np.exp, 0.0, 1.0)
        assert got == pytest.approx(math.e - 1.0, rel=1e-10)

    def test_kink_with_breakpoint_split(self):
        got = gauss_kronrod(np.abs, -1.0, 2.0, breakpoints=(0.0,))
        assert got == pytest.approx(2.5, abs=1e-12)

    def test_oscillatory_cancellation(self):
        got = gauss_kronrod(np.sin, 0.0, 2.0 * math.pi, abs_tol=1e-12)
        assert abs(got) < 1e-10

    def test_sharp_peak(self):
        got = gauss_kronrod(lambda x: 1.0 / (1.0 + 25.0 * x * x), -1.0, 1.0)
        assert got == pytest.approx(2.0 / 5.0 * math.atan(5.0), rel=1e-10)

    def test_step_integrand_with_declared_jump(self):
        got = gauss_kronrod(lambda x: np.where(x < 0.3, 1.0, 2.0), 0.0, 1.0,
                            breakpoints=(0.3,))
        assert got == pytest.approx(0.3 + 1.4, abs=1e-12)

    def test_panel_near_the_float_minimum_converges(self):
        width = 2.2250738585072014e-308
        got = gauss_kronrod(lambda x: np.full_like(x, 1.3), 0.0, width)
        assert got == pytest.approx(1.3 * width, rel=1e-12)

    def test_one_call_per_round_on_a_flat_node_array(self):
        sizes = []

        def f(x):
            assert x.ndim == 1
            sizes.append(x.size)
            return np.exp(-40.0 * x)

        got = gauss_kronrod(f, 0.0, 1.0, breakpoints=(0.25, 0.5))
        assert got == pytest.approx(-math.expm1(-40.0) / 40.0, rel=1e-13)
        assert sizes[0] == 3 * 15 and all(n % 15 == 0 for n in sizes)
        assert len(sizes) < 10

    def test_constant_returned_as_a_scalar_is_broadcast(self):
        assert gauss_kronrod(lambda x: 2.0, 0.0, 3.0) == 6.0

    def test_end_point_cusp_converges(self):
        # the cell at 0 has error ~ h^(3/2), which meets a share ~ h only
        # once h is far below 2^-40; it stops once the errors together fit
        got = gauss_kronrod(np.sqrt, 0.0, 1.0)
        assert got == pytest.approx(2.0 / 3.0, rel=1e-10)

    def test_end_point_pole_raises(self):
        # the cells at 0 of x^(-1/2) keep errors ~ h^(1/2): still 1e-6
        # after 40 halvings, with no extrapolation to reach the tolerance
        with pytest.raises(QuadratureError, match="missed its tolerance"):
            gauss_kronrod(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0)

    def test_non_finite_integrand_gives_infinity(self):
        assert gauss_kronrod(lambda x: np.where(x > 0.5, np.inf, 1.0), 0.0, 1.0) == math.inf
        assert gauss_kronrod(lambda x: np.full_like(x, np.nan), 0.0, 1.0) == math.inf

    def test_empty_and_reversed_intervals(self):
        assert gauss_kronrod(np.exp, 1.0, 1.0) == 0.0
        with pytest.raises(ParameterError):
            gauss_kronrod(np.exp, 1.0, 0.0)


_SLOPES = st.floats(-0.25, 0.25)
_INTERCEPTS = st.floats(0.3, 1.7)


@st.composite
def _affine_alphas(draw):
    """A linear or a piecewise-linear exponent with 1-4 breaks, values in [0.05, 1.95]."""
    if draw(st.booleans()):
        return AlphaFunction.linear(draw(_INTERCEPTS), draw(_SLOPES))
    breaks = sorted(set(draw(st.lists(st.floats(0.05, 0.95), min_size=1, max_size=4))))
    cells = len(breaks) + 1
    return AlphaFunction.piecewise_linear(
        breaks=breaks, intercepts=draw(st.lists(_INTERCEPTS, min_size=cells, max_size=cells)),
        slopes=draw(st.lists(_SLOPES, min_size=cells, max_size=cells)))


@given(af=_affine_alphas(),
       values=st.lists(st.one_of(st.just(0.0), st.floats(0.05, 5.0), st.floats(-5.0, -0.05)),
                       min_size=1, max_size=64),
       lam=st.floats(0.2, 5.0))
@settings(max_examples=100, deadline=None)
def test_callable_modular_matches_the_closed_form(af, values, lam):
    table = IntegrandFunction.from_table(values)
    wrapped = IntegrandFunction.from_callable(table, table.breakpoints)
    assert not wrapped.steps
    assert modular_integral(wrapped, af, lam) == pytest.approx(
        modular_integral(table, af, lam), rel=1e-12)
