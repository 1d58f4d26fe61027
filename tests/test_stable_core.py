"""Tests for the stable-law core: tail-normalizing constant, characteristic
function, sampling, stream splitting, the counter-addressed Philox kernel
and Poisson arrivals."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mslevy import (
    RandomStream,
    StableParams,
    compute_C_alpha,
    poisson_arrivals,
    sample_stable,
    sample_symmetric,
    stable_cf,
    symmetric_from_uniform_pairs,
)
from mslevy.errors import DomainError, ParameterError
from mslevy.stable_core import (_KERNEL_MAX_PAIRS, _KERNEL_MIN_STREAMS, _child_ids,
                                 _generators, _uniform_pairs, _uniforms)
from mslevy.verify_stats import ecf_report

from _oracles import C_ALPHA_ORACLE, sine_integral_live


class TestTailConstant:
    def test_matches_frozen_oracle(self):
        worst = max(abs(compute_C_alpha(u) - expected) for u, expected in C_ALPHA_ORACLE)
        assert worst < 1e-12

    def test_matches_live_oracle_spot_checks(self):
        for u in (0.25, 0.75, 1.0, 1.25, 1.75):
            assert compute_C_alpha(u) == pytest.approx(1.0 / sine_integral_live(u), abs=1e-8)

    def test_value_at_one(self):
        assert abs(compute_C_alpha(1.0) - 2.0 / math.pi) < 1e-12

    def test_continuous_across_one(self):
        left = compute_C_alpha(1.0 - 1e-9)
        right = compute_C_alpha(1.0 + 1e-9)
        assert abs(left - 2.0 / math.pi) < 1e-7
        assert abs(right - 2.0 / math.pi) < 1e-7

    @pytest.mark.parametrize("u", [0.0, 2.0, -0.3, 2.4])
    def test_domain_is_open_zero_two(self, u):
        with pytest.raises(DomainError):
            compute_C_alpha(u)

    def test_decreasing_in_u(self):
        us = np.linspace(0.05, 1.95, 100)
        vals = [compute_C_alpha(float(u)) for u in us]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestCharacteristicFunction:
    @pytest.mark.parametrize("alpha,sigma", [(0.7, 1.0), (1.0, 0.5), (1.5, 2.0), (2.0, 1.0)])
    def test_symmetric_closed_form(self, alpha, sigma):
        thetas = np.linspace(-4.0, 4.0, 41)
        got = stable_cf(StableParams(alpha, sigma), thetas)
        expected = np.exp(-(sigma ** alpha) * np.abs(thetas) ** alpha)
        assert np.max(np.abs(got - expected)) < 1e-14

    @given(
        alpha=st.floats(0.3, 2.0),
        sigma=st.floats(0.1, 3.0),
        beta=st.floats(-1.0, 1.0),
        mu=st.floats(-2.0, 2.0),
        theta=st.floats(-10.0, 10.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_modulus_and_symmetry(self, alpha, sigma, beta, mu, theta):
        params = StableParams(alpha, sigma, beta if alpha < 2.0 else 0.0, mu)
        value = stable_cf(params, theta)
        assert abs(value) <= 1.0 + 1e-12
        assert stable_cf(params, 0.0) == pytest.approx(1.0, abs=1e-14)
        assert stable_cf(params, -theta) == pytest.approx(np.conj(value), abs=1e-12)


class TestSampling:
    def test_deterministic_per_seed_and_stream(self):
        params = StableParams(1.5)
        a = sample_stable(params, 64, RandomStream(42))
        b = sample_stable(params, 64, RandomStream(42))
        c = sample_stable(params, 64, RandomStream(42, stream_id=1))
        d = sample_stable(params, 64, RandomStream(43))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_child_streams_are_stable_and_distinct(self):
        s = RandomStream(7)
        a = s.child(5).generator().random(8)
        b = s.child(5).generator().random(8)
        c = s.child(6).generator().random(8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_nested_children_differ_from_flat(self):
        s = RandomStream(7)
        a = s.child(1).child(2).generator().random(4)
        b = s.child(1, 2).generator().random(4)
        c = s.child(2).child(1).generator().random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_uniform_pair_transform_is_elementwise(self):
        rng = np.random.default_rng(0)
        alphas = rng.uniform(0.3, 2.0, 32)
        u1, u2 = rng.random(32), rng.random(32)
        full = symmetric_from_uniform_pairs(alphas, u1, u2)
        head = symmetric_from_uniform_pairs(alphas[:10], u1[:10], u2[:10])
        assert np.array_equal(full[:10], head)

    def test_uniform_pair_lengths_must_match(self):
        alphas = np.full(4, 1.5)
        with pytest.raises(ParameterError):
            symmetric_from_uniform_pairs(alphas, np.full(3, 0.3), np.full(4, 0.6))
        with pytest.raises(ParameterError):
            symmetric_from_uniform_pairs(alphas, np.full(4, 0.3), np.full(5, 0.6))

    def test_gaussian_case_has_variance_two_sigma_squared(self):
        sigma = 0.8
        x = sample_stable(StableParams(2.0, sigma), 40_000, RandomStream(11))
        assert np.var(x) == pytest.approx(2.0 * sigma ** 2, rel=0.05)

    @pytest.mark.parametrize("alpha,sigma,seed", [(0.8, 1.0, 1), (1.0, 1.0, 2), (1.5, 0.7, 3)])
    def test_ecf_matches_symmetric_cf(self, alpha, sigma, seed):
        x = sample_stable(StableParams(alpha, sigma), 20_000, RandomStream(seed))
        rep = ecf_report(x, lambda th: np.exp(-(sigma ** alpha) * np.abs(th) ** alpha))
        assert rep.sup_deviation < 5.0 * rep.mc_stderr

    def test_skewed_ecf_matches_cf(self):
        params = StableParams(1.3, 1.0, beta=0.5, mu=0.2)
        x = sample_stable(params, 40_000, RandomStream(17))
        thetas = np.linspace(-3.0, 3.0, 61)
        ecf = np.exp(1j * np.outer(thetas, x)).mean(axis=1)
        dev = np.max(np.abs(ecf - stable_cf(params, thetas)))
        assert dev < 5.0 / math.sqrt(40_000)


U64 = st.integers(0, 2 ** 64 - 1)
INDEX = st.integers(-2 ** 63, 2 ** 63 - 1)


class TestCounterKernel:
    """The vectorised Philox4x64-10 and splitmix64 fold against numpy's C
    generator and RandomStream.child, bit for bit."""

    @given(seed=U64, ids=st.lists(U64, min_size=1, max_size=4), n=st.integers(1, 41))
    @example(seed=0, ids=[0], n=1)
    @example(seed=2 ** 64 - 1, ids=[2 ** 63, 2 ** 64 - 1], n=41)
    @settings(max_examples=200, deadline=None)
    def test_kernel_matches_numpy_philox(self, seed, ids, n):
        got = _uniforms(seed, np.array(ids, dtype=np.uint64), n)
        assert got.shape == (len(ids), n)
        for row, sid in zip(got, ids):
            assert np.array_equal(row, RandomStream(seed, sid).generator().random(n))

    @given(sid=U64, path=st.lists(st.lists(INDEX, min_size=3, max_size=3),
                                  min_size=1, max_size=3))
    @example(sid=0, path=[[-1, 0, 2 ** 63 - 1]])
    @settings(max_examples=200, deadline=None)
    def test_vectorised_child_fold_matches_child(self, sid, path):
        got = _child_ids(sid, *(np.array(ix, dtype=np.int64) for ix in path))
        want = [RandomStream(5, sid).child(*ix).stream_id for ix in zip(*path)]
        assert got.tolist() == want

    @pytest.mark.parametrize("seed", [0, 11, 2 ** 64 - 1])
    def test_rekeyed_generators_match_fresh_ones(self, seed):
        # one Philox re-keyed through a state of Python ints, stream by stream
        ids = np.concatenate([np.array([0, 2 ** 64 - 1, 2 ** 63, 1], dtype=np.uint64),
                              _child_ids(seed, np.arange(196))])
        for sid, gen in zip(ids.tolist(), _generators(seed, ids)):
            # a draw that crosses the 4-double buffer, then one more
            got = np.concatenate([gen.random(7), gen.random(1)])
            assert got.tobytes() == RandomStream(seed, sid).generator().random(8).tobytes()

    # short reads from at least _KERNEL_MIN_STREAMS streams take the kernel;
    # long reads, and short reads from fewer streams, take the generators
    @pytest.mark.parametrize("count,rows,cols,kernel", [
        (3, np.arange(-32, 32), 4, True), (100, np.array([0, 5, -2]), 4, False),
        (3, np.array([5]), 1, False), (13, np.arange(-32, 32), 4, False),
        (3, np.arange(-32, 31), 4, False),
    ], ids=["kernel", "generators", "short_one_stream", "past_the_kernel_pairs",
            "below_the_kernel_streams"])
    def test_many_stream_read_matches_child_streams(self, count, rows, cols, kernel):
        assert (count <= _KERNEL_MAX_PAIRS and rows.size * cols >= _KERNEL_MIN_STREAMS) == kernel
        stream = RandomStream(2 ** 64 - 7, 2 ** 63 + 3)
        u = _uniform_pairs(stream, count, rows[:, None], 0xCE11, np.arange(cols))
        assert u.shape == (rows.size, cols, count, 2)
        for i, r in enumerate(rows):
            for k in range(cols):
                assert np.array_equal(u[i, k], _uniform_pairs(stream.child(r, 0xCE11, k), count))


class TestPoissonArrivals:
    def test_structure_and_determinism(self):
        times = poisson_arrivals(1.0, 500, RandomStream(3))
        again = poisson_arrivals(1.0, 500, RandomStream(3))
        assert isinstance(times, np.ndarray)
        assert times.shape == (500,)
        assert times[0] > 0.0 and np.all(np.diff(times) > 0.0)
        assert np.array_equal(times, again)

    def test_mean_spacing_matches_rate(self):
        times = poisson_arrivals(2.0, 4000, RandomStream(4))
        assert times[-1] / 4000 == pytest.approx(1.0 / 2.0, rel=0.05)

    def test_invalid_arguments(self):
        with pytest.raises(ParameterError):
            poisson_arrivals(0.0, 10, RandomStream(1))
        with pytest.raises(ParameterError):
            poisson_arrivals(1.0, -3, RandomStream(1))
        assert poisson_arrivals(1.0, 0, RandomStream(1)).shape == (0,)


class TestTailAsymptote:
    def test_empirical_tail_agrees(self):
        # P(Z > lam) ~ (C_alpha / 2) lam^-alpha for a standard symmetric law
        alpha, lam = 1.2, 15.0
        x = sample_stable(StableParams(alpha), 200_000, RandomStream(23))
        empirical = np.mean(x > lam)
        predicted = 0.5 * compute_C_alpha(alpha) * lam ** -alpha
        assert empirical == pytest.approx(predicted, rel=0.25)

    def test_scale_enters_the_tail_as_sigma_to_the_alpha(self):
        alpha, sigma, lam = 1.2, 1.3, 15.0
        x = sample_stable(StableParams(alpha, sigma), 200_000, RandomStream(29))
        predicted = 0.5 * compute_C_alpha(alpha) * sigma ** alpha * lam ** -alpha
        assert np.mean(x > lam) == pytest.approx(predicted, rel=0.25)
        assert np.mean(x < -lam) == pytest.approx(predicted, rel=0.25)

    def test_skewness_splits_the_tails(self):
        # P(X > lam) ~ (1 + beta) C_alpha/2 lam^-alpha, P(X < -lam) with 1 - beta
        alpha, lam = 1.5, 15.0
        x = sample_stable(StableParams(alpha, 1.0, beta=0.4), 200_000, RandomStream(23))
        symmetric = 0.5 * compute_C_alpha(alpha) * lam ** -alpha
        assert np.mean(x > lam) == pytest.approx(1.4 * symmetric, rel=0.25)
        assert np.mean(x < -lam) == pytest.approx(0.6 * symmetric, rel=0.25)


def test_sample_symmetric_respects_varying_alpha():
    alphas = np.array([0.8, 2.0, 1.4])
    draws = sample_symmetric(alphas, RandomStream(5))
    assert draws.shape == (3,)
    assert np.array_equal(draws, sample_symmetric(alphas, RandomStream(5)))


@pytest.mark.parametrize("shape", [(2, 3), (3, 1, 4), (3, 2 ** 13), (2, 0)],
                         ids=["2x3", "3x1x4", "past_one_cms_block", "empty"])
def test_sample_symmetric_keeps_the_shape_of_alphas(shape):
    alphas = np.linspace(0.6, 2.0, math.prod(shape)).reshape(shape)
    draws = sample_symmetric(alphas, RandomStream(5))
    assert draws.shape == shape and draws.flags.c_contiguous
    flat = sample_symmetric(alphas.reshape(-1), RandomStream(5))
    assert draws.tobytes() == flat.tobytes()


def test_sample_symmetric_reads_fortran_ordered_alphas_in_c_order():
    alphas = np.asfortranarray(np.linspace(0.6, 2.0, 6).reshape(2, 3))
    draws = sample_symmetric(alphas, RandomStream(5))
    assert draws.shape == (2, 3) and draws.flags.c_contiguous
    assert draws.tobytes() == sample_symmetric(alphas.ravel(), RandomStream(5)).tobytes()
    assert np.array_equal(sample_symmetric(np.full((2, 3), 1.5), RandomStream(5)),
                          sample_symmetric(np.full(6, 1.5), RandomStream(5)).reshape(2, 3))
