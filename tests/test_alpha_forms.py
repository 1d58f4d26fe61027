"""Every exponent kind in one piecewise-affine form: the same bits as the
per-kind evaluation and segments it replaced (kept in ``_oracles``), the
two reads that form mends, and the rejection of non-finite parameters."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from mslevy import AlphaFunction, IntegrandFunction, exponent_integral
from mslevy.errors import ParameterError

import _oracles as oracle

DOMAINS = ((0.0, 1.0), (0.0, 3.0))
TABLE49_VALUES = [1.0 + 0.8 * (i % 2) for i in range(49)]


def _specs(width: float) -> dict:
    """Constructor name and arguments of each kind, scaled to a domain of
    the given width."""
    return {
        "constant": ("constant", (1.37,)),
        "linear": ("linear", (1.1, 0.23 / width)),
        "piecewise": ("piecewise", ((0.25 * width, 0.5 * width, 0.8 * width),
                                    (1.2, 1.8, 0.7, 1.5))),
        "piecewise_linear": ("piecewise_linear", ((0.25 * width, 0.6 * width),
                                                  (1.0, 1.4, 0.6),
                                                  (0.3 / width, -0.2 / width, 0.5 / width))),
        "table6": ("from_table", ([1.2, 1.7, 1.4, 1.9, 1.1, 1.6],)),
        "table49": ("from_table", (TABLE49_VALUES,)),
    }


def _pair(case: str, domain: tuple[float, float]):
    """The same exponent built in the new form and in the old per-kind one."""
    name, args = _specs(domain[1] - domain[0])[case]
    return (getattr(AlphaFunction, name)(*args, domain=domain),
            getattr(oracle.AlphaFunction, name)(*args, domain=domain))


def _grids(lo: float, hi: float) -> list[np.ndarray]:
    """Dyadic grids k/2^n (n = 4, 12, 20) on [lo, hi] and 10^5 random points."""
    grids = [np.arange(lo * 2 ** n, hi * 2 ** n + 1) / 2 ** n for n in (4, 12, 20)]
    return grids + [np.random.default_rng(8).uniform(lo, hi, 100_000)]


def _assert_same_bits_off_breaks(new, old, xs: np.ndarray, breaks) -> None:
    """new(xs) and old(xs) agree bit for bit, except where a table is read
    exactly at one of its breaks: there the old reader may give the left cell."""
    got, want = new(xs), old(xs)
    differ = got.view(np.uint64) != want.view(np.uint64)
    assert np.all(np.isin(xs[differ], breaks)), xs[differ][:5]


class TestSameBitsAsPerKindForm:
    @pytest.mark.parametrize("domain", DOMAINS, ids=["unit", "width3"])
    @pytest.mark.parametrize("case", sorted(_specs(1.0)))
    def test_evaluation(self, case, domain):
        new, old = _pair(case, domain)
        mended = new.breaks if case.startswith("table") else ()
        for xs in _grids(*domain):
            _assert_same_bits_off_breaks(new, old, xs, mended)
        for x in _grids(*domain)[0]:
            assert x in mended or new(float(x)) == old(float(x))

    @pytest.mark.parametrize("case,values", [
        ("table_aligned", [1.2, 1.7, 1.4, 1.9, 1.1, 1.6]),
        ("table_aligned9", [1.2, 1.7, 1.4, 1.9, 1.1, 1.6, 1.0, 1.8, 1.3]),
    ])
    def test_aligned_table_segments(self, case, values):
        new = AlphaFunction.from_table(values, domain=(0.0, 3.0))
        old = oracle.AlphaFunction.from_table(values, domain=(0.0, 3.0))
        for k in range(3):
            for xs in _grids(0.0, 1.0):
                _assert_same_bits_off_breaks(new.segment(k), old.segment(k), xs, ())

    @pytest.mark.parametrize("case", ["constant", "linear", "piecewise", "piecewise_linear"])
    def test_segments(self, case):
        new, old = _pair(case, (0.0, 3.0))
        for k in range(3):
            for xs in _grids(0.0, 1.0):
                _assert_same_bits_off_breaks(new.segment(k), old.segment(k), xs, ())

    @pytest.mark.parametrize("spec", [
        {"kind": "constant", "value": 1.5},
        {"kind": "linear", "domain": [0, 2], "intercept": 1.1, "slope": 0.3},
        {"kind": "piecewise", "breaks": [0.5], "values": [1.2, 1.8]},
        {"kind": "piecewise_linear", "breaks": [0.4], "intercepts": [1.0, 1.2],
         "slopes": [0.5, 0.0]},
        {"kind": "table", "domain": [0, 2], "values": [1.2, 1.5, 1.7]},
    ], ids=lambda spec: spec["kind"])
    def test_json_spelling_keeps_its_bytes(self, spec):
        echoed = AlphaFunction.from_json(json.dumps(spec)).to_json_dict()
        assert json.dumps(echoed) == json.dumps(spec)


class TestMendedReads:
    def test_table_read_at_each_break_gives_the_right_cell(self):
        af = AlphaFunction.from_table(TABLE49_VALUES)
        breaks = np.asarray(af.breaks)
        assert breaks.size == 48
        assert np.array_equal(af(breaks), TABLE49_VALUES[1:])
        assert [af(float(p)) for p in breaks] == TABLE49_VALUES[1:]

    def test_segment_of_an_unaligned_table_is_exact(self):
        af = AlphaFunction.from_table([1.2, 1.8, 1.5], domain=(0.0, 2.0))
        seg = af.segment(1)
        xs = np.random.default_rng(9).uniform(0.0, 1.0, 100_000)
        assert np.array_equal(seg(xs), af(xs + 1.0))
        for theta in (0.3, 2.0, 7.5):
            for k in (0, 1):
                want = exponent_integral(af, theta, float(k), float(k + 1))
                got = exponent_integral(af.segment(k), theta, 0.0, 1.0)
                assert got == pytest.approx(want, rel=1e-14, abs=0.0)


NON_FINITE_ALPHAS = {
    "table": lambda: AlphaFunction.from_table([1.2, math.nan, 1.5]),
    "piecewise_value": lambda: AlphaFunction.piecewise([0.5], [1.2, math.nan]),
    "piecewise_linear_break": lambda: AlphaFunction.piecewise_linear(
        [math.nan], [1.2, 1.3], [0.0, 0.0]),
    "piecewise_linear_slope": lambda: AlphaFunction.piecewise_linear(
        [0.5], [1.2, 1.3], [0.0, math.inf]),
    "constant": lambda: AlphaFunction.constant(math.inf),
    "linear": lambda: AlphaFunction.linear(1.2, math.nan),
    "domain": lambda: AlphaFunction.constant(1.5, domain=(0.0, math.inf)),
    "json_nan_literal": lambda: AlphaFunction.from_json(
        '{"kind": "table", "values": [1.2, NaN, 1.5]}'),
}


class TestNonFiniteRejected:
    @pytest.mark.parametrize("case", sorted(NON_FINITE_ALPHAS))
    def test_exponent(self, case):
        with pytest.raises(ParameterError, match="finite"):
            NON_FINITE_ALPHAS[case]()

    @pytest.mark.parametrize("values", [[1.0, math.nan, 2.0], [math.inf], [-math.inf, 1.0]])
    def test_integrand_table(self, values):
        with pytest.raises(ParameterError, match="finite"):
            IntegrandFunction.from_table(values)


@pytest.mark.parametrize("kind", [[1], None, "bogus"], ids=["list", "null", "unknown"])
def test_unknown_json_kind_rejected(kind):
    with pytest.raises(ParameterError, match="unknown exponent kind"):
        AlphaFunction.from_json(json.dumps({"kind": kind, "value": 1.5}))
