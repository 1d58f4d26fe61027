"""Tests for stability-exponent functions, the naive-scheme exponent, the
limiting characteristic functions, the variable-exponent quasinorm, and the
local-variation screening check."""

from __future__ import annotations

import bisect
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mslevy import (
    AlphaFunction,
    IntegrandFunction,
    KernelFunction,
    check_condition7,
    exponent_integral,
    integral_cf,
    lf_n_exponent,
    li_cf,
    modular_integral,
    plateau_identity_alpha,
    quasinorm,
    strong_localisability_check,
)
from mslevy import alpha_model
from mslevy.alpha_model import (_cell_alphas, _cell_time, _cell_times, _certified, _modular,
                                _piece_edges, grid_index)
from mslevy.errors import DomainError, InfiniteQuasinormError, ParameterError, QuadratureError
from mslevy.quadrature import adaptive_simpson, gauss_kronrod, gk_nodes

from _oracles import (
    PerDispatch,
    cf_of_increment_brute,
    exponent_integral_linear,
    lf_exponent_bruteforce,
    modular_fresh_gk,
    panel_power_sum,
    pieces_by_cells,
    pinned,
    quasinorm_bisection,
    quasinorm_fresh_gk,
    quasinorm_plain,
)

AF_LINEAR = AlphaFunction.linear(1.2, 0.6)
AF_STEP = AlphaFunction.piecewise(breaks=(0.5,), values=(1.2, 1.8))
# 49 alternating cells: i/49 * 49 rounds below i at seven of the 48 breaks,
# so a reader that evaluates the table exactly at a break gets the left cell
TABLE49_VALUES = [1.0 + 0.8 * (i % 2) for i in range(49)]
AF_TABLE49 = AlphaFunction.from_table(TABLE49_VALUES)
THETAS = np.linspace(-3.0, 3.0, 61).tolist()
AF_TABLE7 = AlphaFunction.from_table([1.3, 0.7, 1.9, 1.1, 1.5, 0.9, 1.7])
AF_FLAT_SLOPED_FLAT = AlphaFunction.piecewise_linear((0.1, 0.2), (1.4, 0.8, 1.7), (0.0, 4.5, 0.0))
# level-17 term counts just below, at and above multiples of 2^14 and of 8,
# where np.sum's pairwise tree changes shape
WALK_COUNTS = (2 ** 14 - 1, 2 ** 14, 2 ** 14 + 1, 3 * 2 ** 14 - 1, 3 * 2 ** 14 + 1,
               2 ** 15 + 8 * 37 - 1, 2 ** 15 + 8 * 37 + 1, 5 * 2 ** 14 + 7, 2 ** 17 - 1)


class TestAlphaFunction:
    def test_constant_and_linear_evaluation(self):
        assert AlphaFunction.constant(1.4)(0.37) == 1.4
        assert AF_LINEAR(0.5) == pytest.approx(1.5, abs=1e-15)
        xs = np.linspace(0.0, 1.0, 11)
        assert np.allclose(AF_LINEAR(xs), 1.2 + 0.6 * xs)

    def test_piecewise_is_right_continuous(self):
        assert AF_STEP(0.5) == 1.8
        assert AF_STEP(0.5 - 1e-12) == 1.2
        assert all(m == 0.0 for *_, m in AF_STEP.pieces(0.0, 1.0))
        assert all(m != 0.0 for *_, m in AF_LINEAR.pieces(0.0, 1.0))

    def test_range_attributes(self):
        assert AF_LINEAR.a == pytest.approx(1.2) and AF_LINEAR.b == pytest.approx(1.8)
        assert (AF_STEP.a, AF_STEP.b) == (1.2, 1.8)

    def test_breakpoints(self):
        assert AF_STEP.breaks == (0.5,)
        assert AF_LINEAR.breaks == ()

    def test_values_must_stay_admissible(self):
        with pytest.raises(ParameterError):
            AlphaFunction.constant(2.5)
        with pytest.raises(ParameterError):
            AlphaFunction.constant(0.0)
        with pytest.raises(ParameterError):
            AlphaFunction.linear(0.1, 2.3)  # exceeds 2 inside the domain
        with pytest.raises(ParameterError):
            AlphaFunction.piecewise(breaks=(0.7, 0.3), values=(1.0, 1.2, 1.4))

    def test_out_of_domain_evaluation_rejected(self):
        with pytest.raises(Exception):
            AF_LINEAR(1.5)

    def test_json_round_trip(self):
        for af in (AF_LINEAR, AF_STEP, AlphaFunction.from_table([1.1, 1.3, 1.7]),
                   AlphaFunction.piecewise_linear(breaks=(0.4,), intercepts=(1.0, 1.2),
                                                  slopes=(0.5, 0.0))):
            clone = AlphaFunction.from_json(af.to_json())
            xs = np.linspace(0.0, 1.0 - 1e-9, 97)
            assert np.array_equal(af(xs), clone(xs))

    def test_segment_shifts_the_domain(self):
        af = AlphaFunction.linear(1.0, 0.25, domain=(0.0, 2.0))
        seg = af.segment(1)
        assert seg.domain == (0.0, 1.0)
        assert seg(0.25) == pytest.approx(af(1.25))


# one exponent of every kind, on the unit interval and on a longer domain
PIECE_EXPONENTS = {
    "constant": AlphaFunction.constant(1.4),
    "linear": AF_LINEAR,
    "linear_on_0_3": AlphaFunction.linear(0.5, 0.4, domain=(0.0, 3.0)),
    "piecewise": AF_STEP,
    "piecewise_linear": AlphaFunction.piecewise_linear((0.3, 0.65), (1.1, 1.6, 0.5),
                                                       (0.4, 0.0, 1.3)),
    "plateau": plateau_identity_alpha(1.8),
    "table49": AF_TABLE49,
    "table_on_minus1_2": AlphaFunction.from_table([0.7, 1.9, 1.1], domain=(-1.0, 2.0)),
}


def _scalar_points(af):
    """Breaks and their float neighbours, both domain ends and 1e-13 past
    them, -0.0 where the domain holds it, and random interior points."""
    t0, t1 = af.domain
    rng = random.Random(27)
    points = [t0, t1, t0 - 1e-13, t1 + 1e-13, t0 + 1e-13, t1 - 1e-13,
              *(rng.uniform(t0, t1) for _ in range(200))]
    for p in af.breaks:
        points += [p, math.nextafter(p, -math.inf), math.nextafter(p, math.inf), p - 1e-13]
    return points + ([-0.0] if t0 - 1e-12 <= 0.0 <= t1 + 1e-12 else [])


class TestScalarCall:
    @pytest.mark.parametrize("name", sorted(PIECE_EXPONENTS))
    def test_same_bits_as_the_array_path(self, name):
        # a float takes bisect and c + m x in Python floats; every value
        # keeps the bits of the same point read through an array
        af = PIECE_EXPONENTS[name]
        points = _scalar_points(af)
        want = af(np.array(points))
        for x, w in zip(points, want.tolist()):
            for arg in (x, np.float64(x)):
                got = af(arg)
                assert type(got) is float and got.hex() == w.hex(), (x, type(arg))

    @pytest.mark.parametrize("name", sorted(PIECE_EXPONENTS))
    def test_every_real_scalar_takes_the_scalar_path(self, name):
        # ints, bools and numpy integers too: a Python float with the bits
        # of the array path; a 0-d array stays on the array path
        af = PIECE_EXPONENTS[name]
        t0, t1 = af.domain
        ints = list(range(math.ceil(t0), math.floor(t1) + 1))
        for arg in [*ints, *map(np.int64, ints), *(b for b in (False, True) if t0 <= b <= t1)]:
            got = af(arg)
            assert type(got) is float
            assert got.hex() == af(np.array([arg], dtype=float))[0].hex(), arg
        mid = np.array(0.5 * (t0 + t1))
        assert isinstance(af(mid), np.floating) and af(mid) == af(float(mid))

    @pytest.mark.parametrize("name", sorted(PIECE_EXPONENTS))
    def test_points_past_the_tolerance_are_rejected_on_both_paths(self, name):
        af = PIECE_EXPONENTS[name]
        t0, t1 = af.domain
        for x in (t0 - 1e-11, t1 + 1e-11, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="outside exponent domain"):
                af(x)
            with pytest.raises(DomainError, match="outside exponent domain"):
                af(np.float64(x))
            with pytest.raises(DomainError, match="outside exponent domain"):
                af(np.array([x]))

    def test_a_float32_reads_its_double(self):
        x = np.float32(0.37)
        assert AF_LINEAR(x) == AF_LINEAR(np.array([x], dtype=np.float64))[0]


def _piece_intervals(af):
    """The whole domain, random sub-intervals, intervals that start or end
    on a break (or both), and empty ones, on a break and off it."""
    t0, t1 = af.domain
    rng = random.Random(26)
    spans = [(t0, t1)] + [tuple(sorted(rng.uniform(t0, t1) for _ in range(2)))
                          for _ in range(20)]
    for p in af.breaks:
        spans += [(p, t1), (t0, p), (p, p), (p, min(p + 1e-13, t1))]
    spans += list(zip(af.breaks, af.breaks[1:])) + list(zip(af.breaks, af.breaks[2:]))
    return spans + [(t0, t0), (t1, t1), (0.5 * (t0 + t1),) * 2]


class TestPiecesBits:
    @pytest.mark.parametrize("name", sorted(PIECE_EXPONENTS))
    def test_same_cells_as_the_numpy_midpoints(self, name):
        # pieces works in Python floats; the cells it gives, their ends and
        # their coefficients keep every bit of the numpy form it replaced
        af = PIECE_EXPONENTS[name]
        for u1, u2 in _piece_intervals(af):
            got = af.pieces(u1, u2)
            want = pieces_by_cells(af, u1, u2)
            assert [tuple(map(float.hex, cell)) for cell in got] == \
                [tuple(map(float.hex, cell)) for cell in want], (u1, u2)
            assert all(type(v) is float for cell in got for v in cell)

    def test_an_empty_interval_has_no_cells(self):
        assert AF_STEP.pieces(0.5, 0.5) == [] and AF_LINEAR.pieces(0.3, 0.3) == []


class TestPlateauIdentityExponent:
    def test_shape(self):
        af = plateau_identity_alpha(1.8)
        assert af.breaks == (0.9,)
        assert af(0.0) == pytest.approx(0.9)
        assert af(0.45) == pytest.approx(0.9)
        assert af(0.95) == pytest.approx(0.95)
        assert af(1.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("b", [0.0, 2.0, -0.5, 2.6])
    def test_parameter_domain(self, b):
        with pytest.raises(ParameterError):
            plateau_identity_alpha(b)


class TestExponentIntegral:
    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0, 2.0, 3.7])
    def test_linear_alpha_closed_form(self, theta):
        got = exponent_integral(AF_LINEAR, theta, 0.1, 0.8)
        want = exponent_integral_linear(1.2, 0.6, theta, 0.1, 0.8)
        assert got == pytest.approx(want, abs=1e-11)

    @pytest.mark.parametrize("af,want", [
        (AF_STEP, 0.5 * 2.0 ** 1.2 + 0.5 * 2.0 ** 1.8),
        (AF_TABLE49, float(np.mean(2.0 ** np.asarray(TABLE49_VALUES)))),  # 2.7259766138046513
    ], ids=["step", "table49"])
    def test_piecewise_alpha_panel_sum(self, af, want):
        got = exponent_integral(af, 2.0, 0.0, 1.0)
        assert got == pytest.approx(want, rel=1e-14)

    def test_additive_over_subintervals(self):
        total = exponent_integral(AF_LINEAR, 1.7, 0.0, 1.0)
        split = (exponent_integral(AF_LINEAR, 1.7, 0.0, 0.3)
                 + exponent_integral(AF_LINEAR, 1.7, 0.3, 1.0))
        assert total == pytest.approx(split, rel=1e-11)


class TestPiecewiseConstantBits:
    """Exact sums under piecewise-constant exponents: the same bits as an
    independent cell-by-cell sum of (hi - lo) |theta|^v in cell order."""

    CASES = {
        "step": (AF_STEP, (0.5,), (1.2, 1.8)),
        "constant": (AlphaFunction.constant(1.4), (), (1.4,)),
        "table3": (AlphaFunction.from_table([1.1, 1.6, 0.9]), (1 / 3, 2 / 3), (1.1, 1.6, 0.9)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("u1,u2", [(0.0, 1.0), (0.1, 0.8)])
    def test_exponent_integral_is_the_panel_sum(self, case, u1, u2):
        af, breaks, values = self.CASES[case]
        edges = [u1, *(p for p in breaks if u1 < p < u2), u2]
        cells = [values[bisect.bisect_right(breaks, lo)] for lo in edges[:-1]]
        for theta in THETAS:
            assert exponent_integral(af, theta, u1, u2) == panel_power_sum(edges, cells, theta)

    @pytest.mark.parametrize("lam", [1.0, 2.0])
    def test_table_modular_is_the_panel_sum(self, lam):
        f = IntegrandFunction.from_table([0.5, -2.0, 1.5])
        edges = [0.0, 1 / 3, 0.5, 2 / 3, 1.0]
        f_cells, a_cells = (0.5, -2.0, -2.0, 1.5), (1.2, 1.2, 1.8, 1.8)
        want = 0.0
        for lo, hi, v, a in zip(edges, edges[1:], f_cells, a_cells):
            want += panel_power_sum([lo, hi], [a], v / lam)
        assert modular_integral(f, AF_STEP, lam) == want


_SLOPES = st.floats(-0.25, 0.25)
_INTERCEPTS = st.floats(0.3, 1.7)
_ABS_THETAS = st.floats(0.05, 20.0)


@st.composite
def _affine_alphas(draw):
    """A linear or a two-piece piecewise-linear exponent with values in [0.05, 1.95]."""
    if draw(st.booleans()):
        return AlphaFunction.linear(draw(_INTERCEPTS), draw(_SLOPES))
    brk = draw(st.floats(0.05, 0.95))
    return AlphaFunction.piecewise_linear(
        breaks=(brk,), intercepts=(draw(_INTERCEPTS), draw(_INTERCEPTS)),
        slopes=(draw(_SLOPES), draw(_SLOPES)))


class TestClosedFormMatchesSimpson:
    @given(af=_affine_alphas(), abs_theta=_ABS_THETAS, sign=st.sampled_from([-1.0, 1.0]),
           ends=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2))
    @settings(max_examples=200, deadline=None)
    def test_exponent_integral(self, af, abs_theta, sign, ends):
        u1, u2 = sorted(ends)
        got = exponent_integral(af, sign * abs_theta, u1, u2)
        want = adaptive_simpson(lambda s: abs_theta ** af(s), u1, u2,
                                breakpoints=af.breaks)
        assert got == pytest.approx(want, rel=1e-9)

    @given(values=st.lists(st.one_of(st.just(0.0), st.floats(0.05, 5.0), st.floats(-5.0, -0.05)),
                           min_size=1, max_size=8),
           lam=st.floats(0.2, 5.0), intercept=_INTERCEPTS, slope=_SLOPES)
    @settings(max_examples=100, deadline=None)
    def test_step_modular(self, values, lam, intercept, slope):
        af = AlphaFunction.linear(intercept, slope)
        f = IntegrandFunction.from_table(values)
        general = IntegrandFunction(f._fn, f.breakpoints)
        assert modular_integral(f, af, lam) == pytest.approx(
            modular_integral(general, af, lam), rel=1e-9)


class TestCallableModular:
    def test_steep_power_meets_its_tolerance(self):
        # (1e-104)^(0.1 + 1.5 s) falls by e^-359 across [0, 1]; adaptive
        # Simpson returned it 4.9e-10 off, above its own 1e-10 tolerance
        af = AlphaFunction.linear(0.1, 1.5)
        f = IntegrandFunction.from_callable(lambda x: np.full_like(x, 1e-104))
        assert modular_integral(f, af) == pytest.approx(
            exponent_integral(af, 1e-104, 0.0, 1.0), rel=1e-14)

    def test_undeclared_near_singularity_raises(self):
        f = IntegrandFunction.from_callable(lambda x: np.abs(x - 1.0 / 3.0) ** -0.999)
        with pytest.raises(QuadratureError):
            modular_integral(f, AlphaFunction.constant(1.0))


class TestNaiveSchemeExponent:
    @pytest.mark.parametrize("af", [AF_LINEAR, AF_STEP])
    @pytest.mark.parametrize("u,theta,n", [(0.3, 0.5, 4), (1.0, 2.0, 8), (0.95, 1.0, 6)])
    def test_matches_brute_force(self, af, u, theta, n):
        got = lf_n_exponent(af, u, theta, n)
        want = lf_exponent_bruteforce(af, u, theta, n)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("af,u,theta,n,bits", [
        (AF_LINEAR, 0.3, 0.5, 4, "0x1.f3e667f375ecfp-4"),
        (AF_LINEAR, 1.0, 2.0, 8, PerDispatch(avx512="0x1.eec46bd74decap+2",
                                             avx2="0x1.eec46bd74decbp+2")),
        (AF_STEP, 0.95, 1.0, 6, "0x1.3200000000001p+1"),
        (AF_STEP, 0.5 - 1e-13, 1.5, 10, "0x1.9fa7fe4e9b76cp-1"),
        (AF_LINEAR, 0.75 + 1e-13, -0.7, 12, "0x1.c5e2a0699ac7fp+0"),
        (plateau_identity_alpha(1.8), 0.95, 1.0, 20, "0x1.f0c48613c6deap+0"),
        # 22937 cells: the terms are formed in blocks of 2^14
        (AF_TABLE49, 0.7, 1.3, 15, "0x1.d62134810c4acp-2"),
    ], ids=lambda v: v["avx512"] if isinstance(v, PerDispatch) else None)
    def test_pinned_bits(self, af, u, theta, n, bits):
        # the cell count comes from grid_index and the cells from the
        # shared level-n cell times; neither may move a bit
        assert lf_n_exponent(af, u, theta, n) == float.fromhex(pinned(bits))

    @pytest.mark.parametrize("af,u,theta,n", [
        (AF_LINEAR, 1.0, 2.0, 8), (AF_STEP, 0.5 - 1e-13, 1.5, 10),
        (AF_TABLE49, 0.7, 1.3, 15), (AF_TABLE49, 1.0, 0.4, 16),
        (plateau_identity_alpha(1.8), 0.95, 3.7, 17),
        # sloped, flat, sloped: the flat piece starts inside the second block
        (AlphaFunction.piecewise_linear((0.3, 0.65), (1.1, 1.6, 0.5), (0.4, 0.0, 1.3)),
         0.9, 1.7, 16),
        # two sloped pieces that meet inside the first block
        (AlphaFunction.piecewise_linear((0.4,), (1.2, 0.9), (0.3, 0.8)), 0.85, 0.6, 15),
        (AlphaFunction.constant(1.4), 0.9, 2.5, 17),
        # three sloped cells past the plateau
        (plateau_identity_alpha(1.8), 0.9 + 3e-6, 1.3, 20),
        (AF_TABLE49, 0.83, 2.2, 18),
        # one sloped piece over 2^18 cells: sixteen full blocks of 2^14, and
        # at u = 0.9 fourteen full blocks and a partial one
        (AF_LINEAR, 1.0, 1.3, 18), (AF_LINEAR, 0.9, 0.7, 18),
        # seven table cells of 2^19 / 7 terms each: all but at most six of
        # the block-sized spans lie inside one cell
        (AF_TABLE7, 0.97, 1.6, 19),
        # 3,000 table cells of about 87 terms: every block-sized span meets
        # about 190 of them, and no span lies inside one
        (AlphaFunction.from_table([1.0 + 0.9 * ((7 * i) % 11) / 10 for i in range(3000)]),
         0.97, 1.2, 18),
        # flat, sloped, flat: the walk meets a sloped piece between two
        # runs of repeated terms
        (AF_FLAT_SLOPED_FLAT, 0.99, 0.8, 19),
        # one flat piece of 2^20 terms: only the flat sums, one per length
        (AlphaFunction.constant(1.4), 1.0, 0.8, 20),
        # count = 2^20 - 3, just below a multiple of 8 and of 2^14
        (plateau_identity_alpha(1.8), 1.0 - 3 * 2.0 ** -20, 1.3, 20),
    ] + [(af, count * 2.0 ** -17, theta, 17)
         for af, theta in ((AF_TABLE7, 1.4), (AF_FLAT_SLOPED_FLAT, 0.6))
         for count in WALK_COUNTS])
    def test_same_bits_as_one_pass_sum(self, af, u, theta, n):
        # the walk over np.sum's pairwise tree (one term per flat piece,
        # blocks on sloped ones, array bases) against np.sum over every term
        # at once, whose bases are broadcast scalars; it holds on every SIMD
        # dispatch of np.power, where pinned values need not
        alphas = af(_cell_times(2 ** n, 1, grid_index(n, u)))
        want = np.sum(abs(theta) ** alphas * (2.0 ** -n) ** (alphas / af(u)))
        assert np.float64(lf_n_exponent(af, u, theta, n)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("size", [2 ** 14 + 1, 2 ** 14 + 7, 2 ** 15 - 1, 3 * 2 ** 14 + 5,
                                      100003, 2 ** 17 + 8, 2 ** 20 - 1, 2 ** 20 + 7])
    def test_np_sum_splits_where_the_walk_does(self, size):
        # lf_n_exponent matches np.sum's bits only while np.sum adds a
        # contiguous float64 array by numpy's pairwise rule; a numpy release
        # that changes the rule fails here, before any pinned value moves
        def walk(xs):
            if xs.size <= alpha_model._TERM_BLOCK:
                return np.sum(xs)
            half = alpha_model._pairwise_half(xs.size)
            return walk(xs[:half]) + walk(xs[half:])

        rng = np.random.default_rng(size)
        xs = rng.standard_normal(size) * np.exp(rng.uniform(-20.0, 20.0, size))
        assert walk(xs).tobytes() == np.sum(xs).tobytes(), (
            "np.sum no longer splits a span of n > 128 terms at n // 2 - (n // 2) % 8 "
            "(numpy's pairwise_sum); lf_n_exponent's walk must follow the new rule")

    def test_memory_does_not_grow_with_the_level(self):
        # 3,984,588 terms, none of them held at once: a few block-sized
        # arrays, where a materialised sum would hold 32 MB
        tracemalloc.start()
        try:
            lf_n_exponent(plateau_identity_alpha(1.8), 0.95, 1.0, 22)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_u_past_one_is_rejected(self):
        # the dyadic cells stop at 1, also for an exponent defined beyond it
        af = AlphaFunction.linear(1.2, 0.1, domain=(0.0, 2.0))
        assert lf_n_exponent(af, 1.0, 1.0, 4) == pytest.approx(
            lf_exponent_bruteforce(af, 1.0, 1.0, 4), rel=1e-12)
        with pytest.raises(DomainError):
            lf_n_exponent(af, 1.5, 1.0, 4)

    def test_constant_alpha_is_exact(self):
        got = lf_n_exponent(AlphaFunction.constant(1.4), 0.7, 2.0, 6)
        assert got == pytest.approx(2.0 ** 1.4 * math.floor(2 ** 6 * 0.7) / 2 ** 6, rel=1e-14)

    def test_diverges_when_alpha_increases(self):
        # cells left of u carry a smaller exponent than alpha(u), so their
        # weights dwarf 2^-n and the sum grows without bound in n
        values = [lf_n_exponent(AF_LINEAR, 0.95, 1.0, n) for n in range(4, 14)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_zero_theta(self):
        assert lf_n_exponent(AF_LINEAR, 0.5, 0.0, 6) == 0.0


CELL_CASES = pytest.mark.parametrize("af,m,first,count", [
    (AlphaFunction.constant(1.4), 64, 1, 64),
    (AF_LINEAR, 2 ** 20, 1, 2 ** 20),
    (AF_STEP, 8, 0, 8),  # times 4/8 land on the break
    (AF_TABLE49, 49, 0, 49),  # every time i/49 lands on a break
    (AF_TABLE49, 2 ** 12, 5, 3000),
    (AlphaFunction.piecewise_linear((0.25, 0.6), (1.0, 1.4, 0.6), (0.3, -0.2, 0.5)),
     1000, 0, 1001),
    (plateau_identity_alpha(1.8), 2 ** 15, 1, 2 ** 15),
    (AlphaFunction.piecewise((0.5, 1.5), (1.2, 1.8, 0.7), domain=(0.0, 3.0)), 16, 0, 17),
    (AlphaFunction.piecewise((-0.5, 0.5), (1.2, 1.8, 0.7), domain=(-1.0, 2.0)), 4, 0, 5),
    (AlphaFunction.linear(1.2, 0.6, domain=(1e-13, 1.0)), 16, 0, 17),  # 0 is clipped
    (AF_LINEAR, 16, 17, 3),  # times past 1 stay at 1
    (AF_STEP, 16, 1, 0),
], ids=["constant", "linear", "step_on_break", "table49_on_breaks", "table49_offset",
        "piecewise_linear", "plateau", "wide_domain", "break_below_zero", "clipped",
        "past_one", "empty"])


class TestCellAlphas:
    """_cell_alphas reads alpha on the sorted cell times by piece slices,
    with the bits, the clip and the DomainError of a whole-array call."""

    @CELL_CASES
    def test_same_bits_as_call(self, af, m, first, count):
        got = _cell_alphas(af, m, first, count)
        want = af(_cell_times(m, first, count))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_domain_ending_before_one_is_rejected(self):
        af = AlphaFunction.linear(1.2, 0.6, domain=(0.0, 0.5))
        with pytest.raises(DomainError, match="outside exponent domain"):
            af(_cell_times(8, 1, 8))
        with pytest.raises(DomainError, match="outside exponent domain"):
            _cell_alphas(af, 8, 1, 8)

    @CELL_CASES
    def test_piece_edges_are_the_searchsorted_of_the_breaks(self, af, m, first, count):
        # lf_n_exponent finds its piece slices without building the times
        want = [0, *np.searchsorted(_cell_times(m, first, count), af.breaks).tolist(), count]
        assert _piece_edges(af, m, first, count) == want

    @pytest.mark.parametrize("m,first,count", [
        (64, 1, 64), (49, 0, 49), (1000, 0, 1001), (3, 1, 7), (2 ** 18, 1, 2 ** 18),
        (2 ** 18 - 1, 5, 2 ** 18)])
    def test_cell_time_has_the_bits_of_cell_times(self, m, first, count):
        # _piece_edges bisects _cell_time where the rest read _cell_times:
        # one formula, which a change to the grid arithmetic must keep
        got = np.array([_cell_time(j, m) for j in range(first, first + count)])
        assert got.tobytes() == _cell_times(m, first, count).tobytes()


class TestLimitCharacteristicFunctions:
    def test_single_time_reduces_to_exponent_integral(self):
        got = li_cf(AF_LINEAR, [0.5], [1.0])
        assert got == pytest.approx(math.exp(-exponent_integral(AF_LINEAR, 1.0, 0.0, 0.5)),
                                    abs=1e-12)

    def test_joint_cf_sums_window_exponents(self):
        t1, t2, th1, th2 = 0.25, 0.75, 0.8, -1.3
        got = li_cf(AF_LINEAR, [t1, t2], [th1, th2])
        want = math.exp(-exponent_integral(AF_LINEAR, abs(th1 + th2), 0.0, t1)
                        - exponent_integral(AF_LINEAR, abs(th2), t1, t2))
        assert got == pytest.approx(want, rel=1e-11)

    def test_matches_midpoint_rule_oracle(self):
        got = li_cf(AF_LINEAR, [0.8], [1.4])
        want = cf_of_increment_brute(AF_LINEAR, 1.4, 0.0, 0.8).real
        assert got == pytest.approx(want, abs=1e-8)

    def test_integral_cf_uses_the_modular(self):
        f = IntegrandFunction.from_table([0.5, 1.5, 1.0, 0.25])
        got = integral_cf([f], [0.9], AF_LINEAR)
        want = math.exp(-modular_integral(f.scaled(0.9), AF_LINEAR))
        assert got == pytest.approx(want, rel=1e-12)


class TestFloatRange:
    """|theta|^alpha past the float range is an infinite exponent, a zero CF."""

    @pytest.mark.parametrize("af", [AlphaFunction.constant(1.5), AF_LINEAR],
                             ids=["constant", "linear"])
    def test_overflowing_power_gives_a_zero_cf(self, af):
        assert exponent_integral(af, 1e250, 0.0, 1.0) == math.inf
        assert li_cf(af, [1.0], [1e250]) == 0.0

    def test_overflowing_expm1_keeps_a_finite_integral(self):
        # v^(1.9 - 1.8 s) at v = 1e-200: the anchor v^1.9 underflows while
        # expm1(x) overflows; the integral itself is about 1.2e-23
        af = AlphaFunction.linear(1.9, -1.8)
        want = exponent_integral_linear(1.9, -1.8, 1e-200, 0.0, 1.0)
        assert exponent_integral(af, 1e-200, 0.0, 1.0) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("af", [AlphaFunction.constant(1.5), AlphaFunction.linear(1.5, 1e-3)],
                             ids=["constant", "linear"])
    def test_narrow_cell_keeps_a_finite_integral(self, af):
        # |theta|^alpha is about 1e310 and overflows, but over a cell of
        # width 1e-10 the integral is about 3e300
        lo, hi = 0.5, 0.5 + 1e-10
        half_power = 1e207 ** (0.5 * float(af(0.5 * (lo + hi))))
        want = (hi - lo) * half_power * half_power
        assert math.isfinite(want)
        assert exponent_integral(af, 1e207, lo, hi) == pytest.approx(want, rel=1e-9)


class TestModularAndQuasinorm:
    def test_modular_closed_form_piecewise(self):
        f = IntegrandFunction.from_table([0.5, 2.0])
        got = modular_integral(f, AF_STEP)
        want = 0.5 * 0.5 ** 1.2 + 0.5 * 2.0 ** 1.8
        assert got == pytest.approx(want, rel=1e-12)

    def test_modular_scaling_argument(self):
        f = IntegrandFunction.from_table([0.5, 2.0, 1.0])
        assert modular_integral(f, AF_STEP, lam=2.0) == pytest.approx(
            modular_integral(f.scaled(0.5), AF_STEP), rel=1e-12)

    def test_constant_alpha_closed_form(self):
        rng = np.random.default_rng(1)
        alpha = 1.5
        for _ in range(5):
            values = rng.uniform(0.1, 3.0, 16)
            got = quasinorm(IntegrandFunction.from_table(values), AlphaFunction.constant(alpha))
            want = float(np.mean(values ** alpha)) ** (1.0 / alpha)
            assert got == pytest.approx(want, rel=1e-10)

    def test_matches_bisection_oracle_under_varying_alpha(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            values = rng.uniform(0.05, 4.0, 8)
            alphas = rng.uniform(0.4, 2.0, 4)
            got = quasinorm(IntegrandFunction.from_table(values),
                            AlphaFunction.from_table(alphas))
            want = quasinorm_bisection(values, alphas)
            assert got == pytest.approx(want, rel=1e-9)

    def test_zero_function(self):
        assert quasinorm(IntegrandFunction.constant(0.0), AF_LINEAR) == 0.0

    @given(
        values=st.lists(st.floats(0.01, 10.0), min_size=2, max_size=12),
        scale=st.floats(0.01, 50.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_absolute_homogeneity(self, values, scale):
        f = IntegrandFunction.from_table(values)
        base = quasinorm(f, AF_STEP)
        assert quasinorm(f.scaled(scale), AF_STEP) == pytest.approx(scale * base, rel=1e-8)

    @given(values=st.lists(st.floats(0.01, 10.0), min_size=2, max_size=12),
           shrink=st.floats(0.05, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_pointwise_domination(self, values, shrink):
        f = IntegrandFunction.from_table(values)
        g = IntegrandFunction.from_table([v * shrink for v in values])
        assert quasinorm(g, AF_STEP) <= quasinorm(f, AF_STEP) * (1.0 + 1e-9)

    def test_modular_at_the_norm_equals_one(self):
        f = IntegrandFunction.from_table([0.3, 1.2, 2.4, 0.8])
        lam = quasinorm(f, AF_LINEAR)
        assert modular_integral(f, AF_LINEAR, lam=lam) == pytest.approx(1.0, abs=1e-9)


class TestStepModularBits:
    """The step modular and the quasinorm keep their bits: the lam-free cell
    work is built once per call, and only the scaling of |f| and the cell sum
    run per lam.  Python-float powers, so one value serves every dispatch."""

    @pytest.mark.parametrize("values,af,bits", [
        ([0.5, -2.0, 1.5], AF_LINEAR, "0x1.6da6fb5a4dd4ap+0"),
        ([0.75, 1.25, -0.3, 2.0, 0.0], AF_STEP, "0x1.156948f2126f0p+0"),
        ([1.0, 2.0, 0.5], AlphaFunction.constant(1.5), "0x1.3f7540f4d7d2ep+0"),
        ([0.2, 3.0, -1.0, 0.7], plateau_identity_alpha(1.8), "0x1.2df437685bd50p+0"),
        ([1.5, -0.25, 0.8], AF_TABLE49, "0x1.d989b3ab949d0p-1"),
    ], ids=["linear", "step", "constant", "plateau", "table49"])
    def test_quasinorm_pinned_bits(self, values, af, bits):
        assert quasinorm(IntegrandFunction.from_table(values), af) == float.fromhex(bits)

    @pytest.mark.parametrize("af,lam,bits", [
        (AF_LINEAR, 0.3, "0x1.72b234bb7c613p+3"),
        (AF_LINEAR, 1.0, "0x1.be4aea36f1f1ep+0"),
        (AF_LINEAR, 2.5, "0x1.addb3a40d037ap-2"),
        (AF_STEP, 0.7, "0x1.9d12c37c2978ap+1"),
        (AF_TABLE49, 1.9, "0x1.512cfaa3887c1p-1"),
    ])
    def test_modular_pinned_bits(self, af, lam, bits):
        f = IntegrandFunction.from_table([0.5, -2.0, 1.5])
        assert modular_integral(f, af, lam) == float.fromhex(bits)


def _strong_increments(w: IntegrandFunction, af: AlphaFunction, x: float, r: float, pairs):
    """The increments strong_localisability_check takes the quasinorm of,
    for the weighted-running kernel of w, built the way it builds them."""
    kernel = KernelFunction.weighted_running(w)
    scale = r ** (-1.0 / float(af(x)))
    return [(kernel.slice(x + r * t) - kernel.slice(x + r * v)).scaled(scale) for t, v in pairs]


# the numerics benchmark's strong-localisability radius and pairs
STRONG_PAIRS = ((0.0, 1.0), (0.0, 0.5), (0.0, 0.25), (0.0, 0.125))
STRONG_RADIUS = 2.0 ** -4
CUSP = IntegrandFunction.from_callable(lambda s: np.abs(s - 1.0 / 3.0) ** 0.4, (1.0 / 3.0,))


def _callable_integrands():
    flat = IntegrandFunction.from_callable(lambda s: np.full_like(s, 0.93), label="const 0.93")
    rows = [(f"weighted_running_{i}", f, AF_LINEAR)
            for i, f in enumerate(_strong_increments(flat, AF_LINEAR, 0.5, STRONG_RADIUS,
                                                     STRONG_PAIRS))]
    rows += [("cusp_linear", CUSP, AF_LINEAR), ("cusp_step", CUSP.scaled(2.5), AF_STEP),
             ("cusp_increment", _strong_increments(CUSP, AF_TABLE49, 0.25, 0.5,
                                                   [(0.0, 1.0)])[0], AF_TABLE49),
             ("scalar", IntegrandFunction.from_callable(lambda s: 0.7), AF_LINEAR),
             ("scalar_step_alpha", IntegrandFunction.from_callable(lambda s: -1.3, (0.2,)),
              AF_STEP)]
    return rows


CALLABLE_INTEGRANDS = _callable_integrands()


class TestCallableModularBits:
    """The Gauss-Kronrod modular holds |f| and alpha on its first-round
    nodes between calls; every value keeps the bits of a fresh
    gauss_kronrod that evaluates f and alpha on every round's nodes
    (oracle), on whatever np.power dispatch runs."""

    @pytest.mark.parametrize("name,f,af", CALLABLE_INTEGRANDS,
                             ids=[row[0] for row in CALLABLE_INTEGRANDS])
    def test_quasinorm_is_the_fresh_bisection(self, name, f, af):
        assert not f.steps
        assert quasinorm(f, af) == quasinorm_fresh_gk(f, af, gauss_kronrod)

    @pytest.mark.parametrize("name,f,af", CALLABLE_INTEGRANDS,
                             ids=[row[0] for row in CALLABLE_INTEGRANDS])
    @pytest.mark.parametrize("lam", [0.05, 0.37, 1.0, 2.9])
    def test_modular_is_one_fresh_gauss_kronrod(self, name, f, af, lam):
        assert modular_integral(f, af, lam) == modular_fresh_gk(f, af, lam, gauss_kronrod)

    def test_cusp_needs_rounds_past_the_first(self):
        sizes = []

        def probe(x):
            sizes.append(x.size)
            return np.abs(x - 1.0 / 3.0) ** 0.4

        modular_integral(IntegrandFunction.from_callable(probe, CUSP.breakpoints), AF_LINEAR)
        assert sizes[0] == 2 * 15 and len(sizes) > 2

    def test_a_later_round_as_large_as_the_first_evaluates_its_own_nodes(self):
        sizes = []

        def probe(x):
            sizes.append(x.size)
            return np.full_like(x, 0.6)

        # at lam = 6e-7 the power climbs by e^8 across [0.4, 1], which only
        # that panel's two halves resolve: a second round of 30 nodes
        f = IntegrandFunction.from_callable(probe, (0.4,))
        got = modular_integral(f, AF_LINEAR, 6e-7)
        assert sizes == [30, 30]
        assert got == modular_fresh_gk(f, AF_LINEAR, 6e-7, gauss_kronrod)

    def test_first_round_is_evaluated_once_per_quasinorm(self):
        seen = []

        def probe(x):
            seen.append(x.tobytes())
            return np.full_like(x, 0.6)

        f = IntegrandFunction.from_callable(probe, (0.4,))
        first = gk_nodes(np.array([0.0, 0.4]), np.array([0.4, 1.0]))[1].tobytes()
        q = quasinorm(f, AF_LINEAR)
        # the sup probe, then the two panels' 30 nodes once for every
        # bisection step of the call; only steps that need a second round
        # (lam near 0, where the power is steep) evaluate again
        assert seen.count(first) == 1 and 1 < len(seen) < 10
        seen.clear()
        assert q == quasinorm_fresh_gk(f, AF_LINEAR, gauss_kronrod)
        assert seen.count(first) > 40

    def test_strong_localisability_quasinorm_eta_is_the_oracle_fit(self):
        w = IntegrandFunction.from_callable(lambda s: np.full_like(s, 1.07), label="const 1.07")
        rep = strong_localisability_check(KernelFunction.weighted_running(w), AF_LINEAR, 0.5,
                                          [STRONG_RADIUS], list(STRONG_PAIRS),
                                          independent_increments=True, with_quasinorm=True)
        deltas = _strong_increments(w, AF_LINEAR, 0.5, STRONG_RADIUS, STRONG_PAIRS)
        gaps = [abs(t - v) for t, v in STRONG_PAIRS]
        energies = [modular_fresh_gk(d, AF_LINEAR, 1.0, gauss_kronrod) for d in deltas]
        qnorms = [quasinorm_fresh_gk(d, AF_LINEAR, gauss_kronrod) for d in deltas]
        q_slope, _ = np.polyfit(np.log(gaps), np.log(qnorms), 1)
        assert rep.lhs_table == (tuple(energies),)
        assert rep.quasinorm_eta_by_r == (float(q_slope),)


def _pole(p: float) -> IntegrandFunction:
    """|s - 1/3|^p with its pole declared: sup_bound probes the pole and
    reads inf."""
    def f(s):
        with np.errstate(divide="ignore"):
            return np.abs(s - 1.0 / 3.0) ** p
    return IntegrandFunction.from_callable(f, (1.0 / 3.0,))


class TestQuasinormExits:
    """quasinorm returns a finite value or raises: an infinite sup starts
    the bracket at 1, a modular infinite at every scaling raises, and only
    an integrand vanishing off a null set gives 0."""

    @pytest.mark.parametrize("p", [-0.2, -0.1])
    def test_pole_at_a_breakpoint_gets_its_norm(self, p):
        # under alpha = 1 the quasinorm is the integral of |f|
        exact = ((1.0 / 3.0) ** (1.0 + p) + (2.0 / 3.0) ** (1.0 + p)) / (1.0 + p)
        assert _pole(p).sup_bound() == math.inf
        got = quasinorm(_pole(p), AlphaFunction.constant(1.0))
        assert got == pytest.approx(exact, rel=1e-9)

    def test_pole_beyond_gauss_kronrod_raises(self):
        with pytest.raises(QuadratureError):
            quasinorm(_pole(-0.4), AlphaFunction.constant(1.0))

    def test_modular_infinite_at_every_scaling_raises(self):
        # 0.5 is the centre Kronrod node of the one panel [0, 1]
        f = IntegrandFunction.from_callable(lambda s: np.where(s == 0.5, np.inf, 1.0))
        with pytest.raises(InfiniteQuasinormError, match="non-finite for every lam"):
            quasinorm(f, AF_LINEAR)

    def test_null_set_support_is_zero(self):
        # 0.25 is on the sup probe grid but is no first-round Kronrod node
        f = IntegrandFunction.from_callable(lambda s: np.where(s == 0.25, 1.0, 0.0))
        assert f.sup_bound() == 1.0
        assert quasinorm(f, AF_LINEAR) == 0.0


def _random_alpha(rng, kind: int) -> AlphaFunction:
    """Constant, linear, step, table or plateau alpha, by kind 0 to 4."""
    if kind == 0:
        return AlphaFunction.constant(float(rng.uniform(0.2, 2.0)))
    if kind == 1:
        return AlphaFunction.linear(float(rng.uniform(0.3, 1.2)), float(rng.uniform(-0.2, 0.8)))
    if kind == 2:
        return AlphaFunction.piecewise(breaks=(float(rng.uniform(0.2, 0.8)),),
                                       values=tuple(rng.uniform(0.2, 2.0, 2).tolist()))
    if kind == 3:
        return AlphaFunction.from_table(rng.uniform(0.2, 2.0, int(rng.integers(1, 20))).tolist())
    return plateau_identity_alpha(float(rng.uniform(0.3, 1.9)))


def _random_step_case(rng, i: int):
    """A table of 1 to 40 signed values, some 0, at magnitudes 1e-6 to 1e6,
    under the alpha of kind i mod 5."""
    size = int(rng.integers(1, 41))
    values = (10.0 ** rng.uniform(-6, 6) * rng.uniform(-1, 1, size)
              * 10.0 ** rng.uniform(-3, 0, size))
    if rng.random() < 0.2:
        values[rng.integers(size)] = 0.0
    return IntegrandFunction.from_table(values.tolist()), _random_alpha(rng, i % 5)


def _random_cusp(rng, i: int):
    """s |x - c|^p with its cusp declared, p in (-0.3, 1), s in 1e-3 to 1e3."""
    c, p = float(rng.uniform(0.05, 0.95)), float(rng.uniform(-0.3, 1.0))
    s = 10.0 ** rng.uniform(-3, 3)

    def f(x):
        with np.errstate(divide="ignore"):
            return s * np.abs(x - c) ** p
    return IntegrandFunction.from_callable(f, (c,)), _random_alpha(rng, i % 3)


def _outcome(call):
    """call()'s value, or the type of what it raised."""
    try:
        return call()
    except ArithmeticError as exc:
        return type(exc)


def _bench_shapes(seed: int):
    """The numerics benchmark's 15 quasinorm calls, at its input ranges:
    tables of 4 (linear alpha), 8 (step alpha) and 2 to 8 (constant alpha)
    values, the strong-localisability increments and the CLI's 3 values."""
    rng = np.random.default_rng(seed)

    def signed(size):
        return (rng.uniform(0.25, 2.0, size) * rng.choice([-1.0, 1.0], size)).tolist()

    lin = AlphaFunction.linear(float(rng.uniform(1.1, 1.3)), float(rng.uniform(0.4, 0.6)))
    step = AlphaFunction.piecewise(breaks=(float(rng.uniform(0.3, 0.7)),),
                                   values=tuple(rng.uniform(0.6, 1.9, 2).tolist()))
    const = AlphaFunction.constant(float(rng.uniform(0.5, 1.9)))
    flat = float(rng.uniform(0.75, 1.25))
    w = IntegrandFunction.from_callable(lambda s: np.full_like(s, flat))
    steps = [(IntegrandFunction.from_table(signed(4)), lin) for _ in range(2)]
    steps += [(IntegrandFunction.from_table(signed(8)), step) for _ in range(3)]
    steps += [(IntegrandFunction.from_table(signed(int(rng.integers(2, 9)))), const)
              for _ in range(5)]
    steps.append((IntegrandFunction.from_table(signed(3)), lin))
    gk = [(d, lin) for d in _strong_increments(w, lin, 0.5, STRONG_RADIUS, STRONG_PAIRS)]
    return steps, gk


class _Synthetic:
    """A strictly decreasing modular sum_i c_i (s/lam)^p_i plus a noise of
    at most eps that is a fixed function of lam, carrying ``margin``."""

    def __init__(self, rng, margin: float, eps: float):
        self.margin, self.eps = margin, eps
        self.s = 10.0 ** rng.uniform(-4, 4)
        self.c = rng.uniform(0.1, 1.0, 3) * rng.uniform(0.3, 3.0)
        self.p = rng.uniform(0.2, 2.0, 3)

    def __call__(self, lam: float) -> float:
        exact = float(np.sum(self.c * (self.s / lam) ** self.p))
        return exact + random.Random(lam).uniform(-self.eps, self.eps)


class _Fault:
    """The modular passed in, except that its call number ``at`` returns
    ``value`` or, when ``value`` is None, raises QuadratureError."""

    def __init__(self, modular, at: int, value=None):
        self.modular, self.at, self.value, self.calls = modular, at, value, 0
        self.margin = modular.margin

    def __call__(self, lam: float) -> float:
        self.calls += 1
        if self.calls != self.at:
            return self.modular(lam)
        if self.value is None:
            raise QuadratureError("injected")
        return self.value


def _counter(modular):
    """modular, counting its calls in .calls."""
    return _Fault(modular, at=0)


class TestCertifiedBisection:
    """quasinorm evaluates the modular only at the bisection midpoints
    between two points certified by Illinois steps; every verdict, and so
    every value, is the one the plain bisection over the same modular
    reaches (oracle: quasinorm_plain)."""

    def test_step_cases_are_the_plain_bisection(self):
        rng = np.random.default_rng(2025)
        for i in range(2000):
            f, af = _random_step_case(rng, i)
            assert quasinorm(f, af) == quasinorm_plain(_modular(f, af), f), i

    def test_callables_and_random_cusps_are_the_plain_bisection(self):
        rng = np.random.default_rng(2026)
        cases = [row[1:] for row in CALLABLE_INTEGRANDS]
        cases += [_random_cusp(rng, i) for i in range(60)]
        outcomes = set()
        for i, (f, af) in enumerate(cases):
            got = _outcome(lambda: quasinorm(f, af))
            assert got == _outcome(lambda: quasinorm_plain(_modular(f, af), f)), i
            outcomes.add(isinstance(got, float))
        assert outcomes == {True, False}  # some cusps are beyond Gauss-Kronrod

    @pytest.mark.parametrize("margin", [1e-12, 1e-8])
    @pytest.mark.parametrize("share", [0.0, 0.25, 0.5])
    def test_noise_inside_half_the_margin_keeps_every_verdict(self, monkeypatch, margin, share):
        rng = np.random.default_rng([7, int(share * 4), int(-math.log10(margin))])
        for i in range(150):
            modular = _Synthetic(rng, margin, share * margin)
            f = IntegrandFunction.from_table([modular.s])
            monkeypatch.setattr(alpha_model, "_modular", lambda f, af: modular)
            assert quasinorm(f, AF_LINEAR) == quasinorm_plain(modular, f), i

    @pytest.mark.parametrize("value", [math.nan, math.inf, None],
                             ids=["nan", "inf", "quadrature_error"])
    @pytest.mark.parametrize("at", [1, 2, 3])
    def test_a_failed_step_certifies_nothing_after_it(self, monkeypatch, value, at):
        rng, tested = np.random.default_rng(11), 0
        for i in range(100):
            f, af = _random_step_case(rng, 5 * i + 1)
            modular, sup = _modular(f, af), f.sup_bound()
            g_hi, g_lo = modular(sup), modular(sup * 1e-6)
            steps = _counter(modular)
            _certified(steps, sup * 1e-6, g_lo, sup, g_hi)
            if not (g_hi <= 1.0 <= g_lo and at <= steps.calls):
                continue  # the bracket takes more than hi = sup and lo, or the steps end sooner
            want = quasinorm_plain(_counter(modular), f)
            fault = _Fault(modular, at=2 + at, value=value)
            monkeypatch.setattr(alpha_model, "_modular", lambda f, af: fault)
            assert quasinorm(f, af) == want, i
            plain = _counter(modular)
            quasinorm_plain(plain, f)
            # the error does not propagate, and every midpoint is evaluated
            assert (fault.calls == plain.calls + at) if value is None else (
                fault.calls <= plain.calls + at), i
            tested += 1
        assert tested >= 50

    @pytest.mark.parametrize("value", [math.nan, math.inf, None],
                             ids=["nan", "inf", "quadrature_error"])
    def test_the_steps_stop_at_a_failed_value(self, value):
        f = IntegrandFunction.from_table([0.5, -2.0, 1.5])
        modular = _modular(f, AF_LINEAR)
        hi, lo = f.sup_bound(), f.sup_bound() * 1e-6
        clean = _counter(modular)
        assert _certified(clean, lo, modular(lo), hi, modular(hi)) != (lo, hi)
        assert clean.calls > 3
        fault = _Fault(modular, at=3, value=value)
        call = lambda: _certified(fault, lo, modular(lo), hi, modular(hi))  # noqa: E731
        if value is None:
            with pytest.raises(QuadratureError):
                call()
        else:
            first_two = _certified(_Fault(modular, at=3, value=math.nan), lo, modular(lo),
                                   hi, modular(hi))
            assert call() == first_two
        assert fault.calls == 3

    @pytest.mark.parametrize("seed", range(8))
    def test_the_benchmark_shapes_take_few_evaluations(self, monkeypatch, seed):
        steps, gk = _bench_shapes(seed)
        counted = []

        def counting(f, af):
            counted.append(_counter(_modular(f, af)))
            return counted[-1]

        monkeypatch.setattr(alpha_model, "_modular", counting)
        for cases, most in ((steps, 20), (gk, 30)):
            for f, af in cases:
                plain = _counter(_modular(f, af))
                assert quasinorm(f, af) == quasinorm_plain(plain, f)
                assert counted[-1].calls <= most < 40 <= plain.calls


class TestLocalVariationCheck:
    X_GRID = np.linspace(0.0, 1.0, 257)
    DEEP_LAGS = tuple(2.0 ** -k for k in range(2, 21))

    def test_smooth_exponent_is_satisfied(self):
        report = check_condition7(AF_LINEAR, self.X_GRID, self.DEEP_LAGS)
        assert report.verdict == "satisfied"
        assert report.values[-1] <= report.threshold

    def test_shallow_lags_are_inconclusive(self):
        report = check_condition7(AF_LINEAR, self.X_GRID, tuple(2.0 ** -k for k in range(2, 7)))
        assert report.verdict == "inconclusive"

    def test_jump_is_violated_when_probes_straddle_it(self):
        xs = np.union1d(self.X_GRID, [0.5 - lag / 2.0 for lag in self.DEEP_LAGS])
        report = check_condition7(AF_STEP, xs, self.DEEP_LAGS)
        assert report.verdict == "violated"

    @pytest.mark.parametrize("bad", [-0.5, 1.5, 1.0 + 1e-11])
    def test_a_probe_point_outside_the_domain_is_rejected(self, bad):
        # a usage error, as a NaN point is, not a point to drop
        with pytest.raises(DomainError, match="probe points"):
            check_condition7(AF_LINEAR, [bad, 0.2, 0.5], [0.25])

    @pytest.mark.parametrize("name", sorted(PIECE_EXPONENTS))
    def test_values_keep_the_bits_of_one_read_per_lag(self, name):
        # alpha at the probe points is read once; each lag still drops the
        # points whose x + t leaves the domain, and every value keeps the
        # bits of reading alpha at the kept points lag by lag
        af = PIECE_EXPONENTS[name]
        t0, t1 = af.domain
        xs = np.concatenate([np.linspace(t0, t1, 97), af.breaks, [t0 - 1e-13, t1 + 1e-13]])
        lags = (0.75, 0.5, 0.25, 0.03, 2.0 ** -10, 1e-12)
        want = []
        for t in lags:
            kept = xs[(xs >= t0) & (xs + t <= t1 + 1e-12)]
            want.append(float(np.max(np.abs((af(kept) - af(np.minimum(kept + t, t1)))
                                            * math.log(t)))))
        assert check_condition7(af, xs, lags).values == tuple(want)

    def test_a_lag_past_every_point_is_named(self):
        with pytest.raises(DomainError, match="no probe point"):
            check_condition7(AF_LINEAR, [0.8, 0.9], [0.5])
