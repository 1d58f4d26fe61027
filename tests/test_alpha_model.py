"""Tests for stability-exponent functions, the naive-scheme exponent, the
limiting characteristic functions, the variable-exponent quasinorm, and the
local-variation screening check."""

from __future__ import annotations

import bisect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mslevy import (
    AlphaFunction,
    IntegrandFunction,
    check_condition7,
    exponent_integral,
    integral_cf,
    lf_n_exponent,
    li_cf,
    modular_integral,
    plateau_identity_alpha,
    quasinorm,
)
from mslevy.alpha_model import _cell_alphas, _cell_times, grid_index
from mslevy.errors import DomainError, ParameterError, QuadratureError
from mslevy.quadrature import adaptive_simpson

from _oracles import (
    cf_of_increment_brute,
    exponent_integral_linear,
    lf_exponent_bruteforce,
    panel_power_sum,
    quasinorm_bisection,
)

AF_LINEAR = AlphaFunction.linear(1.2, 0.6)
AF_STEP = AlphaFunction.piecewise(breaks=(0.5,), values=(1.2, 1.8))
# 49 alternating cells: i/49 * 49 rounds below i at seven of the 48 breaks,
# so a reader that evaluates the table exactly at a break gets the left cell
TABLE49_VALUES = [1.0 + 0.8 * (i % 2) for i in range(49)]
AF_TABLE49 = AlphaFunction.from_table(TABLE49_VALUES)
THETAS = np.linspace(-3.0, 3.0, 61).tolist()


class TestAlphaFunction:
    def test_constant_and_linear_evaluation(self):
        assert AlphaFunction.constant(1.4)(0.37) == 1.4
        assert AF_LINEAR(0.5) == pytest.approx(1.5, abs=1e-15)
        xs = np.linspace(0.0, 1.0, 11)
        assert np.allclose(AF_LINEAR(xs), 1.2 + 0.6 * xs)

    def test_piecewise_is_right_continuous(self):
        assert AF_STEP(0.5) == 1.8
        assert AF_STEP(0.5 - 1e-12) == 1.2
        assert AF_STEP.max_jump() == pytest.approx(0.6)
        assert AlphaFunction.from_table([1.0] + [1.5] * 48).max_jump() == 0.5
        assert all(m == 0.0 for *_, m in AF_STEP.pieces(0.0, 1.0))
        assert all(m != 0.0 for *_, m in AF_LINEAR.pieces(0.0, 1.0))

    def test_range_attributes(self):
        assert AF_LINEAR.a == pytest.approx(1.2) and AF_LINEAR.b == pytest.approx(1.8)
        assert (AF_STEP.a, AF_STEP.b) == (1.2, 1.8)

    def test_breakpoints(self):
        assert AF_STEP.breakpoints == (0.5,)
        assert AF_LINEAR.breakpoints == ()

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


class TestPlateauIdentityExponent:
    def test_shape(self):
        af = plateau_identity_alpha(1.8)
        assert af.breakpoints == (0.9,)
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
                                breakpoints=af.breakpoints)
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
        (AF_LINEAR, 1.0, 2.0, 8, "0x1.eec46bd74decap+2"),
        (AF_STEP, 0.95, 1.0, 6, "0x1.3200000000001p+1"),
        (AF_STEP, 0.5 - 1e-13, 1.5, 10, "0x1.9fa7fe4e9b76cp-1"),
        (AF_LINEAR, 0.75 + 1e-13, -0.7, 12, "0x1.c5e2a0699ac7fp+0"),
        (plateau_identity_alpha(1.8), 0.95, 1.0, 20, "0x1.f0c48613c6deap+0"),
        # 22937 cells: the terms are formed in blocks of 2^14
        (AF_TABLE49, 0.7, 1.3, 15, "0x1.d62134810c4acp-2"),
    ])
    def test_pinned_bits(self, af, u, theta, n, bits):
        # the cell count comes from grid_index and the cells from the
        # shared level-n cell times; neither may move a bit
        assert lf_n_exponent(af, u, theta, n) == float.fromhex(bits)

    @pytest.mark.parametrize("af,u,theta,n", [
        (AF_LINEAR, 1.0, 2.0, 8), (AF_STEP, 0.5 - 1e-13, 1.5, 10),
        (AF_TABLE49, 0.7, 1.3, 15), (AF_TABLE49, 1.0, 0.4, 16),
        (plateau_identity_alpha(1.8), 0.95, 3.7, 17),
    ])
    def test_same_bits_as_one_pass_sum(self, af, u, theta, n):
        # the blocked sum against the whole-array form it replaced; it holds
        # on every SIMD dispatch of np.power, where pinned values need not
        alphas = af(_cell_times(2 ** n, 1, grid_index(n, u)))
        want = np.sum(abs(theta) ** alphas * (2.0 ** -n) ** (alphas / af(u)))
        assert np.float64(lf_n_exponent(af, u, theta, n)).tobytes() == want.tobytes()

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


class TestCellAlphas:
    """_cell_alphas reads alpha on the sorted cell times by piece slices,
    with the bits, the clip and the DomainError of a whole-array call."""

    @pytest.mark.parametrize("af,m,first,count", [
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
        assert quasinorm(IntegrandFunction.zero(), AF_LINEAR) == 0.0

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
