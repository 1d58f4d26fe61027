"""The blocked in-place Chambers-Mallows-Stuck kernel: bit identity with the
two-step transform it replaced (kept in ``_oracles``), NaN-free output at
small alpha, the chunked S_n boundary scales and the row-batched CSV
writers."""

from __future__ import annotations

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mslevy import (
    AlphaFunction,
    RandomStream,
    StableParams,
    compute_C_alpha,
    sample_stable,
    sample_symmetric,
    symmetric_from_uniform_pairs,
)
from mslevy import cli
from mslevy.continuous_paths import _sigma_tilde_boundary, _sn_cell_draws
from mslevy.msl_schemes import _TAG_DYADIC, _dyadic_addresses, _symmetric_draws
from mslevy.stable_core import _CHUNK_PAIRS, _CMS_BLOCK, _cms, _uniform_pairs

import _oracles as oracle

B = _CMS_BLOCK
SIZES = (B - 1, B, B + 1, 3 * B + 7)


def same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    """Equal shapes and bytes: every sign of zero, inf and NaN included."""
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def _alphas(case: str, n: int) -> np.ndarray:
    k = np.arange(n)
    if case == "constant":
        return np.full(n, 1.5)
    if case == "linear":
        return np.linspace(0.3, 2.0, n)
    if case == "two":
        return np.full(n, 2.0)
    # within 1e-8 of 1 only in the second block, elsewhere linear
    return np.where((k // B == 1) & (k % 3 == 0), 1.0 + 5e-9 * np.cos(k),
                    np.linspace(0.4, 1.9, n))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("case", ["constant", "linear", "two", "near_one_in_some_blocks"])
def test_symmetric_matches_two_step_oracle(case, n):
    stream = RandomStream(7, 3)
    alphas = _alphas(case, n)
    u = _uniform_pairs(stream, n)
    want = oracle.cms_symmetric(alphas, u)
    assert same_bits(sample_symmetric(alphas, stream), want)
    assert same_bits(symmetric_from_uniform_pairs(alphas, u[:, 0], u[:, 1]), want)
    assert same_bits(_cms(u, alphas), want)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("params", [
    (1.5, 1.0, 0.0, 0.0),            # beta = 0
    (0.7, 1.0, 0.0, 0.0),
    (2.0, 1.7, 0.0, 0.5),            # alpha = 2, sigma != 1, mu != 0
    (1.3, 1.0, 0.5, 0.0),            # beta != 0
    (0.6, 1.0, -0.8, 0.0),
    (0.5, 1.0, 1.0, 0.0),            # exponent (1 - a)/a = 1
    (1.0, 1.0, 0.0, 0.0),            # alpha = 1, symmetric
    (1.0, 1.0, 0.5, 0.0),            # alpha = 1, beta != 0
    (1.0 + 5e-9, 1.0, -0.3, 0.0),
    (1.3, 2.5, 0.5, -1.2),           # sigma != 1 and mu != 0
    (1.0, 0.3, 0.7, 0.4),            # alpha = 1: the ln(sigma) shift
    (1.0, 0.5, 0.0, 1.0),            # alpha = 1, beta = 0: a -0.0 shift
])
def test_sample_stable_matches_oracle_on_every_branch(params, n):
    stream = RandomStream(5, 1)
    want = oracle.cms_stable(*params, _uniform_pairs(stream, n))
    assert same_bits(sample_stable(StableParams(*params), n, stream), want)


@pytest.mark.parametrize("rows,cells", [(3, 5), (17, 1000), (2, 3 * B + 7)])
@pytest.mark.parametrize("nested", [False, True])
def test_batched_rows_take_one_alpha_per_cell(rows, cells, nested):
    stream = RandomStream(11)
    alphas = np.linspace(0.4, 2.0, cells)
    alphas[cells // 2] = 1.0
    got = _symmetric_draws(alphas, stream, 2 ** 16, nested, np.arange(rows))
    if nested:
        u = _uniform_pairs(stream, 1, np.arange(rows)[:, None], _TAG_DYADIC,
                           _dyadic_addresses(16)[:cells])[..., 0, :]
    else:
        u = _uniform_pairs(stream, cells, np.arange(rows))
    assert same_bits(got, oracle.cms_symmetric(alphas, u))


@pytest.mark.parametrize("cells,count,rows", [(700, 30, None), (20, 3000, None),
                                              (50, 9, np.arange(40))])
def test_sn_cell_draws_take_one_alpha_per_cell(cells, count, rows):
    stream = RandomStream(13)
    alphas = np.linspace(0.8, 1.9, cells)
    got = _sn_cell_draws(alphas, stream, count, np.arange(cells), rows)
    path = (0xCE11, np.arange(cells)) if rows is None else (rows[:, None], 0xCE11,
                                                            np.arange(cells))
    u = _uniform_pairs(stream, count, *path)
    assert same_bits(got, oracle.cms_symmetric(alphas[:, None], u))


def _log_abs_cms(alpha: float, u: np.ndarray) -> np.ndarray:
    """log|X| of the symmetric CMS formula, taken term by term in logs."""
    phi, w = np.pi * (u[:, 0] - 0.5), -np.log1p(-u[:, 1])
    return (np.log(np.abs(np.sin(alpha * phi))) - np.log(np.cos(phi)) / alpha
            + (1.0 - alpha) / alpha * (np.log(np.cos((1.0 - alpha) * phi)) - np.log(w)))


class TestSmallAlpha:
    def test_out_of_range_factors_are_mended_and_the_rest_keep_their_bits(self):
        n = 100_000
        x = sample_symmetric(np.full(n, 0.005), RandomStream(1))
        u = _uniform_pairs(RandomStream(1), n)
        with np.errstate(all="ignore"):
            old = oracle.cms_symmetric(np.full(n, 0.005), u)
        # the two-step transform gave 721 NaN, where a factor underflowed to
        # 0 and another overflowed, and spurious infs and zeros, where one
        # factor left the float range but the product does not
        assert np.isnan(old).sum() == 721
        kept = np.isfinite(old) & (old != 0.0)
        assert same_bits(x[kept], old[kept])
        assert not np.isnan(x).any()
        mended = x[~kept]
        log_abs = _log_abs_cms(0.005, u[~kept])
        with np.errstate(over="ignore"):
            assert np.allclose(np.abs(mended), np.exp(log_abs), rtol=1e-9, atol=0.0)
        assert np.isfinite(mended).sum() > 1000 and np.isinf(mended).any()
        # the sign is that of sin(alpha phi), i.e. of phi
        assert np.array_equal(np.signbit(mended), u[~kept, 0] < 0.5)

    def test_infs_are_the_true_overflows(self):
        n, alpha = 100_000, 0.01
        x = sample_symmetric(np.full(n, alpha), RandomStream(1))
        overflows = _log_abs_cms(alpha, _uniform_pairs(RandomStream(1), n)) > np.log(
            np.finfo(float).max)
        assert np.array_equal(np.isinf(x), overflows) and not np.isnan(x).any()
        # 82 of them, where the tail C_alpha x^-alpha at the float maximum gives
        # 82.2; the two-step transform gave 123 infs
        expected = n * compute_C_alpha(alpha) * np.finfo(float).max ** -alpha
        assert abs(overflows.sum() - expected) < 3.0 * np.sqrt(expected)

    @given(alpha=st.floats(0.0, 2.0, exclude_min=True), seed=st.integers(0, 2 ** 32 - 1),
           beta=st.sampled_from([0.0, 1.0, -0.5]))
    @settings(max_examples=60, deadline=None)
    def test_never_nan_and_finite_from_a_tenth(self, alpha, seed, beta):
        x = sample_symmetric(np.full(2048, alpha), RandomStream(seed))
        if alpha < 2.0:
            x = np.concatenate([x, sample_stable(StableParams(alpha, beta=beta), 2048,
                                                 RandomStream(seed, 1))])
        assert not np.isnan(x).any()
        if alpha >= 0.1:
            assert np.all(np.isfinite(x))


def test_sigma_tilde_boundary_matches_the_unchunked_sum():
    n, d = 13, 1.3
    assert 2 ** n > _CHUNK_PAIRS // (n + 1)     # more than one chunk of cells
    alphas = AlphaFunction.linear(0.9, 0.8)(np.arange(2 ** n) / 2 ** n)
    js = np.arange(n + 1, dtype=float)
    coef = 2.0 ** (-js * d) * 2.0 ** (js - n)
    want = (coef[None, :] ** alphas[:, None]).sum(axis=1) ** (1.0 / alphas)
    assert same_bits(_sigma_tilde_boundary(alphas, d, n), want)


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "9", "--seed", "4"],
    ["simulate", "--scheme", "lr", "--n", "6", "--seed", "8", "--ensemble", "3"],
])
def test_cli_csv_bytes_equal_the_per_row_reference(argv, tmp_path):
    target = tmp_path / "out.csv"
    assert cli.main(argv + ["--out", str(target)]) == 0
    got = target.read_bytes()
    meta = json.loads(got.decode().splitlines()[0][2:])
    stream = RandomStream(meta["seed"])
    paths = [cli._simulate_path(dict(meta), cli._alpha_of(dict(meta)), stream.child(r))
             for r in range(meta["ensemble"])]
    ref = io.StringIO()
    if len(paths) == 1:
        oracle.path_to_csv(paths[0], ref, meta)
    else:
        oracle.ensemble_to_csv(paths, ref, meta)
    assert got == ref.getvalue().encode()
