"""Tests for the adaptive Simpson quadrature with breakpoint splitting."""

from __future__ import annotations

import math

import pytest

from mslevy.errors import ParameterError
from mslevy.quadrature import adaptive_simpson, split_points


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
