"""Every weighted-sum driver against one sequential reference sum.

The schemes, integrals and ensemble drivers all compute
[0, cumsum(base^(1/alpha_k) f(k/2^n) X_k)] for their own choice of base,
f and draws.  Each case below redraws X by calling the samplers directly and
asserts exact equality with the reference in ``tests/_oracles.py``, so the
drivers keep their bits whatever code they share.  The last test holds the
input checks every driver applies the same way.
"""

from __future__ import annotations

import numpy as np
import pytest

from mslevy import (
    AlphaFunction,
    IntegrandFunction,
    RandomStream,
    factorization_test,
    SchemeConfig,
    grid_index,
    half_open_indicator,
    joint_integral_ensemble,
    li_window_ensemble,
    localisability_test,
    marginal_ensemble,
    poisson_arrivals,
    sample_integral,
    sample_symmetric,
    simulate_lc,
    simulate_li,
    simulate_lr,
    simulate_sn,
    simulate_stable_fclt,
    sn_boundary_ensemble,
    symmetric_from_uniform_pairs,
    weighted_mslm,
)
from mslevy.errors import ParameterError
from mslevy.stable_core import _chunk_rows

from _oracles import dyadic_address, weighted_sum_path

# substream tags of the arrival draws and of the dyadic addresses
TAG_ARRIVALS = 0xA121
TAG_DYADIC = 0xD1AD

N = 6
M = 2 ** N
ROWS = 3
ALPHAS = {
    "constant": AlphaFunction.constant(1.5),
    "linear": AlphaFunction.linear(1.2, 0.6),
    "piecewise": AlphaFunction.piecewise([0.5], [1.0, 1.7]),
}
WEIGHT = IntegrandFunction.from_table([0.5, 2.0, 1.0, -1.5])
INDICATOR = half_open_indicator(0.25, 0.75)


def grid_alphas(af, count=M, k0=0, n=N):
    return np.asarray(af(np.minimum((k0 + np.arange(1, count + 1, dtype=float)) / 2 ** n,
                                    1.0)))


def ref_li(af, stream, nested=False, n=N):
    alphas = grid_alphas(af, 2 ** n, n=n)
    if nested:
        u = np.array([stream.child(TAG_DYADIC, dyadic_address(k, N)).generator().random(2)
                      for k in range(1, M + 1)])
        x = symmetric_from_uniform_pairs(alphas, u[:, 0], u[:, 1])
    else:
        x = sample_symmetric(alphas, stream)
    return weighted_sum_path(alphas, 2.0 ** -n, 1.0, x)


def ref_lc(af, stream, gamma=None):
    if gamma is None:
        gamma = float(stream.child(TAG_ARRIVALS).generator().gamma(shape=M))
    alphas = grid_alphas(af)
    return weighted_sum_path(alphas, 1.0 / gamma, 1.0, sample_symmetric(alphas, stream))


def ref_lr(af, stream, n=N):
    counts = np.floor(poisson_arrivals(1.0, 2 ** n, stream.child(TAG_ARRIVALS)))
    counts = counts.astype(int)
    alphas = grid_alphas(af, int(counts[-1]), n=n)
    prefix = weighted_sum_path(alphas, 2.0 ** -n, 1.0, sample_symmetric(alphas, stream))
    return np.concatenate([[0.0], prefix[counts]])


def ref_integral_path(f, af, stream, n=N):
    alphas = grid_alphas(af, 2 ** n, n=n)
    fx = np.asarray(f(np.arange(1, 2 ** n + 1, dtype=float) / 2 ** n))
    return weighted_sum_path(alphas, 2.0 ** -n, fx, sample_symmetric(alphas, stream))


def ref_fclt(alpha, n_terms, stream):
    alphas = np.full(n_terms, alpha)
    return weighted_sum_path(alphas, 1.0, n_terms ** (-1.0 / alpha),
                             sample_symmetric(alphas, stream))


def rows(ref_row):
    return np.array([ref_row(RandomStream(7).child(r)) for r in range(ROWS)])


US = [0.25, 0.5, 1.0]
COLS = [grid_index(N, u) for u in US]
K0, OFFSETS = 5, [1, 3, 7]
REF_SCHEMES = {"li": ref_li, "lr": ref_lr, "lc": ref_lc}
# a single path of 2^15 cells is drawn in more than one block of _CMS_BLOCK
# = 2^14 pairs; the FCLT counts sit just below and above one block and past
# three, at alpha = 1 + 5e-9 (the alpha = 1 branch) and at alpha = 2, and at
# 7 terms, where (1/7)^(1/alpha) rounds away from 7^(-1/alpha) at both
LONG_N = 15
FCLT_TERMS = (7, 2 ** 14 - 1, 2 ** 14 + 1, 3 * 2 ** 14 + 7)
FCLT_ALPHAS = (1.0 + 5e-9, 2.0)

CASES = {
    "simulate_li": (
        lambda af, s: simulate_li(SchemeConfig(n=N, af=af, stream=s)).values,
        ref_li),
    "simulate_li_nested": (
        lambda af, s: simulate_li(SchemeConfig(n=N, af=af, stream=s, nested=True)).values,
        lambda af, s: ref_li(af, s, nested=True)),
    "simulate_lc_drawn_gamma": (
        lambda af, s: simulate_lc(SchemeConfig(n=N, af=af, stream=s)).values,
        ref_lc),
    "simulate_lc_gamma_value": (
        lambda af, s: simulate_lc(SchemeConfig(n=N, af=af, stream=s), gamma_value=3.7).values,
        lambda af, s: ref_lc(af, s, gamma=3.7)),
    "simulate_lr": (
        lambda af, s: simulate_lr(SchemeConfig(n=N, af=af, stream=s)).values,
        ref_lr),
    "simulate_stable_fclt": (
        lambda af, s: simulate_stable_fclt(float(af(0.3)), 50, s).values,
        lambda af, s: ref_fclt(float(af(0.3)), 50, s)),
    "weighted_mslm": (
        lambda af, s: weighted_mslm(WEIGHT, af, N, s).values,
        lambda af, s: ref_integral_path(WEIGHT, af, s)),
    "sample_integral": (
        lambda af, s: sample_integral(INDICATOR, af, N, s),
        lambda af, s: ref_integral_path(INDICATOR, af, s)[-1]),
    "joint_integral_ensemble": (
        lambda af, s: joint_integral_ensemble([WEIGHT, INDICATOR], af, N, ROWS, s),
        lambda af, s: rows(lambda sr: [ref_integral_path(f, af, sr)[-1]
                                       for f in (WEIGHT, INDICATOR)])),
    "li_window_ensemble": (
        lambda af, s: li_window_ensemble(af, N, K0, OFFSETS, ROWS, s),
        lambda af, s: rows(lambda sr: weighted_sum_path(
            grid_alphas(af, max(OFFSETS), K0), 2.0 ** -N, 1.0,
            sample_symmetric(grid_alphas(af, max(OFFSETS), K0), sr))[OFFSETS])),
    **{f"marginal_ensemble_{scheme}": (
        lambda af, s, scheme=scheme: marginal_ensemble(scheme, af, N, US, ROWS, s),
        lambda af, s, ref=ref: rows(lambda sr: ref(af, sr)[COLS]))
       for scheme, ref in REF_SCHEMES.items()},
    "marginal_ensemble_li_nested": (
        lambda af, s: marginal_ensemble("li", af, N, US, ROWS, s, nested=True),
        lambda af, s: rows(lambda sr: ref_li(af, sr, nested=True)[COLS])),
    "simulate_li_long": (
        lambda af, s: simulate_li(SchemeConfig(n=LONG_N, af=af, stream=s)).values,
        lambda af, s: ref_li(af, s, n=LONG_N)),
    "simulate_lr_long": (
        lambda af, s: simulate_lr(SchemeConfig(n=LONG_N, af=af, stream=s)).values,
        lambda af, s: ref_lr(af, s, n=LONG_N)),
    "weighted_mslm_long": (
        lambda af, s: weighted_mslm(WEIGHT, af, LONG_N, s).values,
        lambda af, s: ref_integral_path(WEIGHT, af, s, n=LONG_N)),
    **{f"simulate_stable_fclt_{terms}_terms_alpha_{alpha!r}": (
        lambda af, s, a=alpha, t=terms: simulate_stable_fclt(a, t, s).values,
        lambda af, s, a=alpha, t=terms: ref_fclt(a, t, s))
       for terms in FCLT_TERMS for alpha in FCLT_ALPHAS},
}


@pytest.mark.parametrize("kind", sorted(ALPHAS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_driver_matches_reference_sum(case, kind):
    driver, reference = CASES[case]
    af = ALPHAS[kind]
    actual = np.asarray(driver(af, RandomStream(7)))
    expected = np.asarray(reference(af, RandomStream(7)))
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


# Batched ensembles draw replicates in chunks of _chunk_rows(pairs per row)
# rows; each case runs at one chunk less, exactly one chunk and one more.
CHUNK_SIZES = pytest.mark.parametrize("extra", [-1, 0, 1], ids=["below", "at", "above"])
SCHEME_RUNS = {"li": simulate_li, "lr": simulate_lr, "lc": simulate_lc}


@CHUNK_SIZES
@pytest.mark.parametrize("scheme,nested", [("li", False), ("lr", False), ("lc", False),
                                           ("li", True)], ids=["li", "lr", "lc", "li_nested"])
def test_marginal_rows_across_chunk_boundaries(scheme, nested, extra):
    n, af, stream = 10, ALPHAS["linear"], RandomStream(11)
    size = _chunk_rows(2 ** n) + extra
    ens = marginal_ensemble(scheme, af, n, US, size, stream, nested=nested)
    cols = [grid_index(n, u) for u in US]
    assert ens.shape == (size, len(US))
    for r in range(size):
        path = SCHEME_RUNS[scheme](SchemeConfig(n=n, af=af, stream=stream.child(r),
                                                nested=nested))
        assert np.array_equal(ens[r], path.values[cols]), r


@CHUNK_SIZES
def test_sn_boundary_rows_across_chunk_boundaries(extra):
    n, d, af, stream = 8, 1.5, ALPHAS["linear"], RandomStream(12)
    ks = [1, 64, 200, 256]
    size = _chunk_rows(2 ** n * (n + 1)) + extra
    ens = sn_boundary_ensemble(n, af, stream, ks, size, d=d, levels=n)
    mesh = np.arange(2 ** n + 1, dtype=float) / 2 ** n
    assert ens.shape == (size, len(ks))
    for r in range(size):
        path = simulate_sn(n, af, stream.child(r), mesh, d=d, levels=n)
        assert np.array_equal(ens[r], path.values[ks]), r


@CHUNK_SIZES
def test_window_rows_across_chunk_boundaries(extra):
    n, k0, offsets, af, stream = 12, 100, [1, 100, 1024], ALPHAS["piecewise"], RandomStream(13)
    size = _chunk_rows(max(offsets)) + extra
    ens = li_window_ensemble(af, n, k0, offsets, size, stream)
    alphas = np.asarray(af((k0 + np.arange(1, max(offsets) + 1, dtype=float)) / 2 ** n))
    assert ens.shape == (size, len(offsets))
    for r in range(size):
        want = weighted_sum_path(alphas, 2.0 ** -n, 1.0,
                                 sample_symmetric(alphas, stream.child(r)))[offsets]
        assert np.array_equal(ens[r], want), r


@CHUNK_SIZES
def test_joint_integral_rows_across_chunk_boundaries(extra):
    n, af, stream = 10, ALPHAS["constant"], RandomStream(14)
    size = _chunk_rows(2 ** n) + extra
    ens = joint_integral_ensemble([WEIGHT, INDICATOR], af, n, size, stream)
    assert ens.shape == (size, 2)
    for r in range(size):
        want = [sample_integral(f, af, n, stream.child(r)) for f in (WEIGHT, INDICATOR)]
        assert np.array_equal(ens[r], want), r


# ---------------------------------------------------------------------------
# drivers that reduce to the field-local path under the same stream (lc at
# Gamma = 2^n and the unit-weight motion: tests/test_msl_schemes.py and
# tests/test_integrals.py)
# ---------------------------------------------------------------------------

def li_values(af, stream):
    return simulate_li(SchemeConfig(n=N, af=af, stream=stream)).values


def test_indicator_integrals_are_li_values():
    af, stream = ALPHAS["linear"], RandomStream(9)
    li = li_values(af, stream)
    for k in (1, M // 3, M):
        assert sample_integral(IntegrandFunction.indicator(0.0, k / M), af, N, stream) == li[k]


AF = ALPHAS["linear"]


@pytest.mark.parametrize("call", [
    lambda: li_window_ensemble(AF, N, 0, [1], 0, RandomStream(1)),
    lambda: li_window_ensemble(AF, 0, 0, [1], 2, RandomStream(1)),
    lambda: li_window_ensemble(AF, 27, 0, [1], 2, RandomStream(1)),
    lambda: sn_boundary_ensemble(4, AlphaFunction.constant(1.5), RandomStream(1), [16], 0,
                                 d=3.0, levels=8),
    lambda: sn_boundary_ensemble(0, AlphaFunction.constant(1.5), RandomStream(1), [1], 2,
                                 d=3.0, levels=8),
    lambda: sn_boundary_ensemble(4, AlphaFunction.constant(0.5), RandomStream(1), [16], 2,
                                 d=1.0, levels=8),
    lambda: marginal_ensemble("li", AF, 4, [-0.5], 2, RandomStream(1)),
    lambda: marginal_ensemble("li", AF, 4, [1.5], 2, RandomStream(1)),
    lambda: li_window_ensemble(AF, N, 0, [], 2, RandomStream(1)),
    lambda: joint_integral_ensemble([], AF, N, 2, RandomStream(1)),
    lambda: factorization_test("li", AF, [], N, 2, RandomStream(1)),
    lambda: localisability_test(AF, 0.5, 1.0, [], 12, 1000, RandomStream(1)),
], ids=["window_ensemble_0", "window_n_0", "window_n_27", "sn_ensemble_0", "sn_n_0",
        "sn_d_at_most_1_over_alpha", "marginal_time_below_0", "marginal_time_above_1",
        "window_no_offsets", "joint_integral_no_integrands", "factorization_no_intervals",
        "localisability_no_radii"])
def test_shared_input_checks(call):
    with pytest.raises(ParameterError):
        call()
