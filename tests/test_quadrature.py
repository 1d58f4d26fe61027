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

import _oracles


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
        # with the bits of the same constant returned on every node
        for c, breaks in [(0.1, ()), (-2.7, (0.3, 1.9)), (1e-300, (2.5,))]:
            assert gauss_kronrod(lambda x: c, 0.0, 3.0, breakpoints=breaks) == gauss_kronrod(
                lambda x: np.full_like(x, c), 0.0, 3.0, breakpoints=breaks)

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


def _outcome(gk, f, a, b, **kwargs) -> str:
    """A Gauss-Kronrod result as its float.hex, or the miss it raised."""
    try:
        return float(gk(f, a, b, **kwargs)).hex()
    except ArithmeticError:
        return "missed"


def _both_signs(x):
    return np.where(x < 0.5, np.inf, -np.inf)


# name -> (f, a, b, keyword arguments)
ROUND_CASES = {
    "signed_sin": (np.sin, 0.0, 2.0 * math.pi, {}),
    "signed_sin_abs_tol": (np.sin, 0.0, 2.0 * math.pi, {"abs_tol": 1e-12}),
    "signed_cubic_split": (lambda x: x ** 3 - 0.3 * x, -1.0, 2.0, {"breakpoints": (0.5, 1.0)}),
    "non_negative_exp": (np.exp, 0.0, 1.0, {}),
    "non_negative_scalar": (lambda x: 2.0, 0.0, 3.0, {}),
    "all_zero": (np.zeros_like, 0.0, 1.0, {}),
    "minus_zero": (lambda x: np.full_like(x, -0.0), 0.0, 1.0, {}),
    "signed_zeros": (lambda x: np.where(x < 0.5, -0.0, 0.0), 0.0, 1.0, {"breakpoints": (0.5,)}),
    "minus_zero_and_positive": (lambda x: np.where(x < 0.5, -0.0, x), 0.0, 1.0, {}),
    "negative_exp": (lambda x: -np.exp(x), 0.0, 1.0, {}),
    "plus_inf": (lambda x: np.where(x > 0.5, np.inf, 1.0), 0.0, 1.0, {}),
    "minus_inf": (lambda x: np.where(x > 0.5, -np.inf, 1.0), 0.0, 1.0, {}),
    "plus_and_minus_inf_in_one_cell": (_both_signs, 0.0, 1.0, {}),
    "nan": (lambda x: np.full_like(x, np.nan), 0.0, 1.0, {}),
    "nan_in_one_panel": (lambda x: np.where(x > 0.9, np.nan, x), 0.0, 1.0, {"breakpoints": (0.9,)}),
    "end_point_cusp": (np.sqrt, 0.0, 1.0, {}),
    "interior_cusp": (lambda x: np.abs(x - 0.3) ** 0.5, 0.0, 1.0, {}),
    "signed_interior_cusp": (lambda x: np.sign(x - 0.3) * np.abs(x - 0.3) ** 0.5 + 0.1,
                             0.0, 1.0, {}),
    "pole_misses": (lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, {}),
    "sharp_peak": (lambda x: 1.0 / (1.0 + 2500.0 * x * x), -1.0, 1.0, {"breakpoints": (0.3,)}),
}


class TestRoundBits:
    """Each round's one product against the stacked weights gives the bits
    of the two products it replaced, on every kind of integrand."""

    @pytest.mark.parametrize("name", sorted(ROUND_CASES))
    def test_same_bits_as_two_products(self, name):
        f, a, b, kwargs = ROUND_CASES[name]
        got = _outcome(gauss_kronrod, f, a, b, **kwargs)
        # the replaced rule warned on inf - inf inside a cell's sum
        with np.errstate(invalid="ignore"):
            want = _outcome(_oracles.gauss_kronrod_two_products, f, a, b, **kwargs)
        assert got == want

    def test_the_oracle_uses_the_same_rule(self):
        assert _oracles.GK_NODES.tobytes() == _NODES.tobytes()
        assert _oracles.GK_KRONROD.tobytes() == _KRONROD.tobytes()
        assert _oracles.GK_GAUSS.tobytes() == _GAUSS.tobytes()

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_finite_cells_whose_sum_overflows(self, sign):
        # every cell's Kronrod sum is finite, so the estimate's overflow is
        # not taken for a non-finite f: the sign of the infinity is kept
        def f(x):
            return np.full_like(x, sign * 6e307)

        kwargs = {"breakpoints": (1.0, 2.0, 3.0)}
        with np.errstate(over="ignore"):
            got = _outcome(gauss_kronrod, f, 0.0, 4.0, **kwargs)
            want = _outcome(_oracles.gauss_kronrod_two_products, f, 0.0, 4.0, **kwargs)
        assert got == want == float(sign * math.inf).hex()

    def test_the_cases_need_later_rounds_and_miss(self):
        rounds = {}
        for name in ("end_point_cusp", "interior_cusp", "signed_interior_cusp"):
            f, a, b, kwargs = ROUND_CASES[name]
            calls = []
            gauss_kronrod(lambda x: calls.append(x.size) or f(x), a, b, **kwargs)
            rounds[name] = len(calls)
        assert min(rounds.values()) > 5, rounds
        assert _outcome(gauss_kronrod, *ROUND_CASES["pole_misses"][:3]) == "missed"

    @given(a=st.floats(-2.0, 1.0), width=st.floats(1e-3, 3.0),
           coeffs=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
           cusp=st.floats(-2.0, 4.0), power=st.floats(0.3, 2.5),
           breaks=st.lists(st.floats(-2.0, 4.0), max_size=3),
           abs_tol=st.sampled_from([0.0, 1e-12, 1e-3]))
    @settings(max_examples=150, deadline=None)
    def test_random_cusps_have_the_bits_of_two_products(self, a, width, coeffs, cusp, power,
                                                        breaks, abs_tol):
        c0, c1, c2 = coeffs

        def f(x):
            return c0 + c1 * x + c2 * np.abs(x - cusp) ** power

        b = a + width
        kwargs = {"abs_tol": abs_tol, "breakpoints": breaks}
        assert _outcome(gauss_kronrod, f, a, b, **kwargs) == _outcome(
            _oracles.gauss_kronrod_two_products, f, a, b, **kwargs)


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
