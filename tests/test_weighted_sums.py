"""Every weighted-sum driver against one sequential reference sum.

The schemes, integrals and ensemble drivers all compute
[0, cumsum(base^(1/alpha_k) f(k/2^n) X_k)] for their own choice of base,
f and draws.  Each case below redraws X by calling the samplers directly and
asserts exact equality with the reference in ``tests/_oracles.py``, so the
drivers keep their bits whatever code they share.  The last test holds the
input checks every driver applies the same way.

The kernel holds the last single-stream draws for the next call on the
same stream and alpha grid; the tests of that memo compare warm calls with
cold ones (nothing held), and the suite's conftest starts every test cold.
"""

from __future__ import annotations

from itertools import permutations

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
from mslevy import msl_schemes
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


def grid_alphas(af, count=M, k0=0):
    return np.asarray(af(np.minimum((k0 + np.arange(1, count + 1, dtype=float)) / M, 1.0)))


def ref_li(af, stream, nested=False):
    alphas = grid_alphas(af)
    if nested:
        u = np.array([stream.child(TAG_DYADIC, dyadic_address(k, N)).generator().random(2)
                      for k in range(1, M + 1)])
        x = symmetric_from_uniform_pairs(alphas, u[:, 0], u[:, 1])
    else:
        x = sample_symmetric(alphas, stream)
    return weighted_sum_path(alphas, 2.0 ** -N, 1.0, x)


def ref_lc(af, stream, gamma=None):
    if gamma is None:
        gamma = float(stream.child(TAG_ARRIVALS).generator().gamma(shape=M))
    alphas = grid_alphas(af)
    return weighted_sum_path(alphas, 1.0 / gamma, 1.0, sample_symmetric(alphas, stream))


def ref_lr(af, stream):
    counts = np.floor(poisson_arrivals(1.0, M, stream.child(TAG_ARRIVALS)).times).astype(int)
    alphas = grid_alphas(af, int(counts[-1]))
    prefix = weighted_sum_path(alphas, 2.0 ** -N, 1.0, sample_symmetric(alphas, stream))
    return np.concatenate([[0.0], prefix[counts]])


def ref_integral_path(f, af, stream):
    alphas = grid_alphas(af)
    fx = np.asarray(f(np.arange(1, M + 1, dtype=float) / M))
    return weighted_sum_path(alphas, 2.0 ** -N, fx, sample_symmetric(alphas, stream))


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
}


@pytest.mark.parametrize("kind", sorted(ALPHAS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_driver_matches_reference_sum(case, kind):
    driver, reference = CASES[case]
    af = ALPHAS[kind]
    actual = driver(af, RandomStream(7))
    expected = reference(af, RandomStream(7))
    assert np.shape(actual) == np.shape(expected)
    assert np.array_equal(actual, expected)


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
# the held single-stream draws: warm calls give the cold bits
# ---------------------------------------------------------------------------

MEMO_RUNS = {
    "li": lambda af, s: simulate_li(SchemeConfig(n=N, af=af, stream=s)).values,
    "lr": lambda af, s: simulate_lr(SchemeConfig(n=N, af=af, stream=s)).values,
    "lc": lambda af, s: simulate_lc(SchemeConfig(n=N, af=af, stream=s)).values,
    "lc_gamma": lambda af, s: simulate_lc(SchemeConfig(n=N, af=af, stream=s),
                                          gamma_value=float(M)).values,
    "weighted_mslm": lambda af, s: weighted_mslm(WEIGHT, af, N, s).values,
    "sample_integral": lambda af, s: sample_integral(INDICATOR, af, N, s),
}


def lr_cells(stream):
    """Cells the lr scheme sums under ``stream``: floor(Gamma_M)."""
    return int(np.floor(poisson_arrivals(1.0, M, stream.child(TAG_ARRIVALS)).times[-1]))


def cold(call):
    msl_schemes._held.clear()
    return call()


def held():
    (key, x), = msl_schemes._held.items()
    return key, x


@pytest.fixture
def draws(monkeypatch):
    """The number of held entries at each single-stream draw, in call order."""
    seen = []
    sample = msl_schemes.sample_symmetric

    def counted(alphas, stream):
        seen.append(len(msl_schemes._held))
        return sample(alphas, stream)

    monkeypatch.setattr(msl_schemes, "sample_symmetric", counted)
    return seen


# lr sums more than M cells under stream 23 and fewer under stream 22
@pytest.mark.parametrize("seed", [22, 23])
@pytest.mark.parametrize("first,second", list(permutations(sorted(MEMO_RUNS), 2)))
def test_warm_draws_give_the_cold_bits(first, second, seed, draws):
    af, stream = ALPHAS["linear"], RandomStream(seed)
    want = cold(lambda: MEMO_RUNS[second](af, stream))
    cold(lambda: MEMO_RUNS[first](af, stream))
    cells = {name: M for name in MEMO_RUNS}
    cells["lr"] = lr_cells(stream)
    assert cells["lr"] != M
    del draws[:]
    assert np.array_equal(MEMO_RUNS[second](af, stream), want)
    # served from the held draws exactly when they cover the cells asked for
    assert len(draws) == (cells[second] > cells[first])


def test_lr_past_the_held_cells_draws_again_and_holds_the_longer_run(draws):
    af, stream = ALPHAS["piecewise"], RandomStream(23)
    want_lr, want_li = cold(lambda: MEMO_RUNS["lr"](af, stream)), \
        cold(lambda: MEMO_RUNS["li"](af, stream))
    assert held()[1].size == M
    assert np.array_equal(MEMO_RUNS["lr"](af, stream), want_lr)
    assert held()[1].size == lr_cells(stream) > M
    assert np.array_equal(MEMO_RUNS["li"](af, stream), want_li)
    assert draws == [0, 0, 0]


def test_nested_and_plain_draws_are_held_apart():
    af, stream = ALPHAS["linear"], RandomStream(5)
    nested = SchemeConfig(n=N, af=af, stream=stream, nested=True)
    want = cold(lambda: simulate_li(nested).values)
    plain = cold(lambda: MEMO_RUNS["li"](af, stream))
    got = simulate_li(nested).values
    assert np.array_equal(got, want)
    assert not np.array_equal(got, plain)
    assert held()[0][-1] is True
    assert np.array_equal(MEMO_RUNS["li"](af, stream), plain)


def test_substituted_exponent_keys_the_draws():
    af, sub, stream = ALPHAS["linear"], ALPHAS["piecewise"], RandomStream(6)
    cfg = SchemeConfig(n=N, af=af, stream=stream, alpha_n=sub)
    want = cold(lambda: simulate_li(cfg).values)
    # held under the exponent actually used, not the configured one
    assert held()[0][1] == sub
    cold(lambda: MEMO_RUNS["li"](af, stream))
    assert np.array_equal(simulate_li(cfg).values, want)
    assert np.array_equal(MEMO_RUNS["li"](sub, stream), want)


EQUAL_VALUED = [AlphaFunction.constant(1.5), AlphaFunction.linear(1.5, 0.0),
                AlphaFunction.piecewise([0.5], [1.5, 1.5]), AlphaFunction.from_table([1.5]),
                AlphaFunction.piecewise_linear([], [1.5], [0.0])]


@pytest.mark.parametrize("first", range(len(EQUAL_VALUED)))
def test_equal_valued_exponents_of_another_kind_miss(first, draws):
    stream, afs = RandomStream(8), EQUAL_VALUED[first:] + EQUAL_VALUED[:first]
    wants = [cold(lambda: MEMO_RUNS["lc_gamma"](af, stream)) for af in afs]
    cold(lambda: MEMO_RUNS["li"](afs[0], stream))
    del draws[:]
    # the first call is served from the held draws, each later one draws anew
    for af, want in zip(afs, wants):
        assert np.array_equal(MEMO_RUNS["lc_gamma"](af, stream), want)
        assert held()[0][1].kind == af.kind
    assert len(draws) == len(afs) - 1


def test_cross_scheme_identities_hold_cold():
    af, stream = ALPHAS["linear"], RandomStream(9)
    li = cold(lambda: MEMO_RUNS["li"](af, stream))
    assert np.array_equal(cold(lambda: MEMO_RUNS["lc_gamma"](af, stream)), li)
    assert np.array_equal(cold(lambda: weighted_mslm(IntegrandFunction.constant(1.0), af,
                                                     N, stream).values), li)
    for k in (1, M // 3, M):
        value = cold(lambda: sample_integral(IntegrandFunction.indicator(0.0, k / M),
                                             af, N, stream))
        assert value == li[k]


def test_held_draws_are_read_only_and_never_returned():
    af, stream = ALPHAS["linear"], RandomStream(10)
    want = {name: cold(lambda run=run: run(af, stream)) for name, run in MEMO_RUNS.items()}
    for name, run in MEMO_RUNS.items():
        got = run(af, stream)
        x = held()[1]
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.0
        assert not np.shares_memory(got, x)
        if np.ndim(got):
            got[:] = np.nan
        assert np.array_equal(run(af, stream), want[name]), name


def test_nothing_above_the_cap_is_held(monkeypatch):
    # an n = 26 path is never held
    assert msl_schemes._HELD_MAX_DRAWS < 2 ** 26
    af, stream = ALPHAS["linear"], RandomStream(11)
    monkeypatch.setattr(msl_schemes, "_HELD_MAX_DRAWS", M)
    MEMO_RUNS["li"](af, stream)
    assert held()[1].size == M
    MEMO_RUNS["lr"](af, RandomStream(23))
    assert not msl_schemes._held
    simulate_stable_fclt(1.5, M + 1, stream)
    assert not msl_schemes._held


def test_a_miss_drops_the_held_draws_before_drawing(draws):
    af = ALPHAS["linear"]
    for seed in (1, 2, 1):
        MEMO_RUNS["li"](af, RandomStream(seed))
        assert held()[0][0] == RandomStream(seed)
    assert draws == [0, 0, 0]


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
