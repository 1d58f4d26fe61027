"""Alpha-stable building blocks: parameters, seeded random streams,
Chambers-Mallows-Stuck sampling, characteristic functions, tail constants
and unit-rate arrival times.

Conventions follow the classical S_alpha(sigma, beta, mu) parameterisation:
the symmetric characteristic function is exp(-sigma^alpha |theta|^alpha),
and alpha = 2 is Gaussian with variance 2 sigma^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ParameterError

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

# Switch to the dedicated alpha = 1 formula inside this window to avoid the
# 0/0 forms of the generic CMS branch.
ALPHA_ONE_TOLERANCE = 1e-8

# Philox4x64-10 multipliers and Weyl key increments (Salmon et al., SC'11).
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10

# Many-stream draws of at most this many pairs per stream go through the
# counter kernel; longer streams are cheaper on numpy's C generator (about
# 0.2 us per 4-double block in the kernel, against 3 us to re-key the C
# generator plus 0.05 us per block; the two meet between 32 and 48 pairs).
_KERNEL_MAX_PAIRS = 32

# Batched draws hold at most this many pairs per chunk of replicates or cells.
_CHUNK_PAIRS = 2 ** 16

# Integer arguments are checked as floats: every integer up to here is exact
# as a float, and no larger one rounds down to it.
_INT_MAX = 2 ** 53 - 1

# The CMS kernel transforms this many pairs at a time, so that its four
# block buffers stay in cache.
_CMS_BLOCK = 2 ** 14


def _splitmix64(x):
    """One round of the splitmix64 mixer (public-domain constants), on a
    Python int or elementwise on a uint64 array."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _child_ids(stream_id: int, *path) -> np.ndarray:
    """Vectorised :meth:`RandomStream.child`: the flattened stream ids of
    the children of ``stream_id`` at every broadcast index of ``path``
    (ints or integer arrays; negative indices wrap as in ``child``)."""
    cols = [np.ravel(ix) for ix in np.broadcast_arrays(*path)]
    sid = np.full(cols[0].size, stream_id & _MASK64, dtype=np.uint64)
    for ix in cols:
        sid = _splitmix64(sid ^ _splitmix64(ix.astype(np.uint64)))
    return sid


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of a * b, built from 32-bit halves."""
    a_lo, a_hi = a & _MASK32, a >> 32
    b_lo = b & _MASK32
    b_hi = b >> 32
    ll = b_lo * a_lo
    lh = b_lo * a_hi
    hl = b_hi * a_lo
    hi = b_hi * a_hi
    hi += lh >> 32
    hi += hl >> 32
    ll >>= 32
    ll += lh & _MASK32
    ll += hl & _MASK32
    hi += ll >> 32
    return hi, b * a


def _uniforms(seed: int, stream_ids: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` doubles of every stream (seed, id), as a
    (len(stream_ids), count) array: ``RandomStream(seed, id).generator()
    .random(count)`` for all ids in one numpy Philox4x64-10 evaluation.

    Position p of a stream is lane p % 4 of the block at counter 1 + p // 4
    (numpy bumps the counter before it fills its buffer), keyed by
    (seed, id); a double is (raw >> 11) 2^-53.
    """
    k1 = np.asarray(stream_ids, dtype=np.uint64).reshape(-1, 1)
    blocks = -(-count // 4)
    c0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64), (k1.size, blocks))
    c1 = c2 = c3 = np.zeros((k1.size, blocks), dtype=np.uint64)
    k0 = seed & _MASK64
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0 = (k0 + _PHILOX_W[0]) & _MASK64
            k1 = k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        hi1 ^= c1
        hi1 ^= k0
        hi0 ^= c3
        hi0 ^= k1
        c0, c1, c2, c3 = hi1, lo1, hi0, lo0
    raw = np.stack([c0, c1, c2, c3], axis=-1).reshape(k1.size, 4 * blocks)[:, :count]
    return (raw >> 11) * 2.0 ** -53


def _chunk_rows(pairs_per_row: int) -> int:
    """Rows (replicates or S_n cells) per chunk of a batched draw whose rows
    draw ``pairs_per_row`` pairs each: at least one, at most _CHUNK_PAIRS pairs."""
    return max(1, _CHUNK_PAIRS // max(pairs_per_row, 1))


def _row_chunks(rows: int, pairs_per_row: int):
    """Row indices 0..rows-1 as arrays of _chunk_rows rows."""
    step = _chunk_rows(pairs_per_row)
    return (np.arange(lo, min(lo + step, rows)) for lo in range(0, rows, step))


@dataclass(frozen=True)
class RandomStream:
    """A reproducible, addressable source of randomness.

    Identical (seed, stream_id) pairs always produce identical draw
    sequences; distinct stream_ids under one seed are statistically
    independent.  Backed by the counter-based Philox4x64-10 generator keyed
    on (seed, stream_id), so streams never share state: position p of a
    stream is lane p % 4 of the block at counter 1 + p // 4, a pure function
    of (seed, stream_id, p).

    A single stream is read through numpy's C generator (:meth:`generator`).
    Many short streams at once (replicate ensembles, S_n cells, dyadic
    addresses) are read by one vectorised numpy evaluation of the same
    counter function, with the same bits; see ``_uniform_pairs``.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        return np.random.Generator(np.random.Philox(key=self._key()))

    def _key(self) -> np.ndarray:
        return np.array([self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64)

    def child(self, *indices: int) -> "RandomStream":
        """Derive an independent substream addressed by an index path.

        The stream_id of the child is a splitmix64 fold of the parent id
        and the indices, so different index paths give (for all practical
        purposes) non-colliding, independent streams.
        """
        sid = self.stream_id & _MASK64
        for ix in indices:
            sid = _splitmix64(sid ^ _splitmix64(int(ix) & _MASK64))
        return RandomStream(self.seed, sid)


@dataclass(frozen=True)
class StableParams:
    """Parameters of a stable law S_alpha(sigma, beta, mu)."""

    alpha: float
    sigma: float = 1.0
    beta: float = 0.0
    mu: float = 0.0

    def __post_init__(self) -> None:
        _check_alphas(self.alpha)
        if not (0.0 <= self.sigma < math.inf and math.isfinite(self.mu)):
            raise ParameterError(f"need a finite sigma >= 0 and a finite mu, "
                                 f"got sigma = {self.sigma}, mu = {self.mu}")
        if not (-1.0 <= self.beta <= 1.0):
            raise ParameterError(f"beta must lie in [-1, 1], got {self.beta}")
        if self.alpha == 2.0 and self.beta != 0.0:
            raise ParameterError("beta must be 0 when alpha = 2")


def _uniform_pairs(stream: RandomStream, count: int, *path, block: int | None = None):
    """The first ``count`` uniform pairs of a stream, as the rows of a
    (count, 2) array: column 0 feeds the angle, column 1 the exponential.

    With an index ``path`` (ints or integer arrays that broadcast to a shape
    B), the pairs of every child ``stream.child(*path)``, as a B + (count, 2)
    array: one counter-kernel call when the streams are short, one C
    generator per stream otherwise, with the same bits either way.

    Every sampler reads its uniforms through here.  Pairs are interleaved,
    so draws are prefix-consistent: asking a stream for m < n pairs yields
    exactly the first m rows of the longer request, which makes dyadic and
    level-indexed draws reusable.  So ``block`` (one stream) yields the same
    pairs in successive blocks of at most ``block`` rows, each overwriting
    the last in one buffer.
    """
    if not path:
        if block is None:
            return stream.generator().random(2 * count).reshape(count, 2)
        gen, buf = stream.generator(), np.empty((min(block, count), 2))
        return (gen.random(out=buf[:min(block, count - lo)]) for lo in range(0, count, block))
    shape = np.broadcast_shapes(*(np.shape(ix) for ix in path))
    ids = _child_ids(stream.stream_id, *path)
    u = np.empty((ids.size, 2 * count))
    if count <= _KERNEL_MAX_PAIRS:
        step = _chunk_rows(count)
        for lo in range(0, ids.size, step):
            u[lo:lo + step] = _uniforms(stream.seed, ids[lo:lo + step], 2 * count)
    else:
        for row, gen in zip(u, _generators(stream.seed, ids)):
            gen.random(out=row)
    return u.reshape(shape + (count, 2))


def _generators(seed: int, stream_ids: np.ndarray):
    """``RandomStream(seed, id).generator()`` for each id in turn, as one C
    generator re-keyed per stream: 3 us a stream, where a fresh generator
    takes 18 us (its unused SeedSequence reads os.urandom).  Each yielded
    generator is the same object, valid until the next one is yielded."""
    bits = np.random.Philox(key=RandomStream(seed)._key())
    gen = np.random.Generator(bits)
    fresh = bits.state
    for sid in stream_ids.tolist():
        fresh["state"]["key"] = RandomStream(seed, sid)._key()
        bits.state = fresh
        yield gen


def _exponential(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # inverse-CDF W = -ln(1 - u), into ``out`` if given; floored for the 2^-53 zero draw
    out = np.negative(u, out=out)
    return np.maximum(np.negative(np.log1p(out, out=out), out=out), 1e-16, out=out)


def _check_alphas(alphas) -> None:
    """The one (0, 2] check of a stability index or an array of them; NaN fails."""
    ok = (alphas > 0.0) & (alphas <= 2.0)
    if not np.all(ok):
        bad = np.ravel(alphas)[~np.ravel(ok)][0]
        raise ParameterError(f"the stability index must lie in (0, 2], got {bad}")


def _check_ints(values, lo: int, hi: int | None, what: str):
    """The one check of an integer argument (a level, size or index) or a
    list of them: whole numbers in [lo, hi], hi at most _INT_MAX (None:
    _INT_MAX).  Integral floats and numpy integers pass; NaN, infinities,
    fractions, values out of range and non-numbers (strings, bools, ints
    too large for int64) raise ParameterError naming ``what`` and the
    first bad value.  Returns a Python int for a scalar, an int64 array
    for a list."""
    hi = _INT_MAX if hi is None else min(hi, _INT_MAX)
    v = np.asarray(values)
    f = v.astype(float) if v.dtype.kind in "iuf" else np.full(v.shape, np.nan)
    ok = (f >= lo) & (f <= hi) & (f == np.floor(f))
    if not np.all(ok):
        bad = np.ravel(v)[~np.ravel(ok)][0] if v.ndim else values
        raise ParameterError(f"{what} must be {'integers' if v.ndim else 'an integer'} "
                             f"in [{lo}, {hi}], got {bad}")
    return f.astype(np.int64) if v.ndim else int(f)


def _cms_saturated(a, p, w, b0: float, scale0: float) -> np.ndarray:
    """The CMS formula in log space, for draws whose factors leave the float range
    (0 * inf, or a spurious inf or 0): saturated only past the range itself."""
    t = a * (p + b0)
    s = np.sin(t)
    log_x = (math.log(scale0) + np.log(np.abs(s))
             + ((1.0 - a) * (np.log(np.cos(p - t)) - np.log(w)) - np.log(np.cos(p))) / a)
    return np.where(s == 0.0, s, np.copysign(np.exp(log_x), s))


def _cms(u, alpha, beta: float = 0.0, out: np.ndarray | None = None) -> np.ndarray:
    """Chambers-Mallows-Stuck S_alpha(1, beta, 0) variates from the uniform
    pairs (phi = pi (u1 - 1/2), W = -ln(1 - u2)) of a B + (2,) array, or of a
    stream read block by block into ``out``; ``alpha`` broadcasts to B (one
    float when beta != 0).  Each block of _CMS_BLOCK runs the textbook ufuncs
    in place, so the bits do not depend on the blocking."""
    shape = u.shape[:-1] if out is None else out.shape
    out = np.empty(shape) if out is None else out
    alphas = np.broadcast_to(alpha, shape)
    inner = math.prod(shape[1:])
    if inner > _CMS_BLOCK:
        for i in range(shape[0]):
            _cms(u[i], alphas[i], beta, out[i])
        return out
    step = max(1, _CMS_BLOCK // inner)
    b0, scale0 = 0.0, 1.0
    if beta != 0.0:
        zeta = beta * math.tan(0.5 * np.pi * alpha)
        b0, scale0 = math.atan(zeta) / alpha, (1.0 + zeta * zeta) ** (0.5 / alpha)
    bufs = np.empty((4, min(step, shape[0]) * inner))
    pairs = (_uniform_pairs(u, shape[0], block=step) if isinstance(u, RandomStream)
             else (u[lo:lo + step] for lo in range(0, shape[0], step)))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for lo, ub in zip(range(0, shape[0], step), pairs):
            o, a = out[lo:lo + step], alphas[lo:lo + step]
            nb = np.abs(a - 1.0) < ALPHA_ONE_TOLERANCE
            p, w, s, t = (b[:o.size].reshape(o.shape) for b in bufs)
            np.multiply(np.subtract(ub[..., 0], 0.5, out=p), np.pi, out=p)
            _exponential(ub[..., 1], out=w)
            if nb.all():
                np.tan(p, out=o)
                if beta != 0.0:
                    # (2/pi) (b tan(phi) - beta ln(pi/2 W cos(phi) / b)), b = pi/2 + beta phi
                    o *= np.add(np.multiply(beta, p, out=t), 0.5 * np.pi, out=t)
                    w *= 0.5 * np.pi
                    w *= np.cos(p, out=s)
                    o -= np.multiply(np.log(np.divide(w, t, out=w), out=w), beta, out=w)
                    o *= 2.0 / np.pi
                continue
            if beta != 0.0:
                # scale0 sin(a (phi + b0)) / cos(phi)^(1/a) * (cos(phi - a (phi + b0))
                #   / W)^((1 - a)/a); float exponents under ** keep its scalar fast paths
                np.sin(np.multiply(np.add(p, b0, out=t), alpha, out=t), out=o)
                o *= scale0
                np.cos(p, out=s)
                s **= 1.0 / alpha
                o /= s
                np.divide(np.cos(np.subtract(p, t, out=s), out=s), w, out=s)
                s **= (1.0 - alpha) / alpha
                o *= s
            else:
                # sin(a p) / cos(p)^(1/a) * (cos((1 - a) p) / W)^((1 - a)/a), the
                # exponents arrays: numpy's power takes fast paths for scalars
                np.sin(np.multiply(a, p, out=o), out=o)
                o /= np.power(np.cos(p, out=s), np.divide(1.0, a, out=t), out=s)
                t *= np.subtract(1.0, a, out=s)
                s *= p
                o *= np.power(np.divide(np.cos(s, out=s), w, out=s), t, out=s)
            bad = (o == 0.0) | ~np.isfinite(o)
            if bad.any():
                o[bad] = _cms_saturated(a[bad], p[bad], w[bad], b0, scale0)
            if nb.any():
                o[nb] = np.tan(p[nb])
    return out


def sample_symmetric(alphas: np.ndarray, stream: RandomStream) -> np.ndarray:
    """Draw independent symmetric standard stable variates, one per entry of
    ``alphas`` (each entry may differ).  Deterministic given the stream."""
    alphas = np.ascontiguousarray(alphas, dtype=float)
    if alphas.size == 0:
        return np.empty(0)
    _check_alphas(alphas)
    return _cms(stream, alphas, out=np.empty(alphas.size))


def symmetric_from_uniform_pairs(alphas: np.ndarray, u1, u2) -> np.ndarray:
    """Symmetric standard stable variates from explicit uniform pairs.

    Lets callers manage draw addressing themselves (e.g. one pair per dyadic
    rational) while staying bit-identical to :func:`sample_symmetric` fed the
    same uniforms.
    """
    alphas = np.ascontiguousarray(alphas, dtype=float)
    u1, u2 = (np.ascontiguousarray(v, dtype=float) for v in (u1, u2))
    if not alphas.shape == u1.shape == u2.shape:
        raise ParameterError(f"alphas, u1 and u2 must have one shape, got "
                             f"{alphas.shape}, {u1.shape} and {u2.shape}")
    _check_alphas(alphas)
    return _cms(np.stack([u1, u2], axis=-1), alphas)


def sample_stable(params: StableParams, n: int, stream: RandomStream) -> np.ndarray:
    """Draw ``n`` i.i.d. variates from S_alpha(sigma, beta, mu) via the
    Chambers-Mallows-Stuck method.

    Uses the dedicated alpha = 1 branch within ALPHA_ONE_TOLERANCE of 1 and
    the skewed CMS branch otherwise; n = 0 returns an empty array.
    """
    n = _check_ints(n, 0, None, "sample size n")
    a, sigma, beta, mu = params.alpha, params.sigma, params.beta, params.mu
    x = _cms(stream, a, beta, out=np.empty(n))
    x *= sigma
    if abs(a - 1.0) < ALPHA_ONE_TOLERANCE:
        # scaling a 1-stable law shifts the location by (2/pi) beta sigma ln sigma
        x += (2.0 / np.pi) * beta * sigma * math.log(sigma) if sigma > 0.0 else 0.0
    x += mu
    return x


def stable_cf(params: StableParams, theta) -> np.ndarray | complex:
    """Characteristic function of S_alpha(sigma, beta, mu).

    Returns exp(-sigma^alpha |theta|^alpha [1 - i beta sgn(theta)
    tan(pi alpha / 2)] + i mu theta) for alpha != 1 and the log-corrected
    form at alpha = 1; beta = 0 collapses to exp(-sigma^alpha|theta|^alpha).
    """
    a, sigma, beta, mu = params.alpha, params.sigma, params.beta, params.mu
    th = np.asarray(theta, dtype=float)
    abs_th = np.abs(th)
    if abs(a - 1.0) < ALPHA_ONE_TOLERANCE:
        with np.errstate(divide="ignore", invalid="ignore"):
            log_term = np.where(abs_th > 0.0, np.log(abs_th), 0.0)
        exponent = (-sigma * abs_th
                    * (1.0 + 1j * beta * (2.0 / np.pi) * np.sign(th) * log_term)
                    + 1j * mu * th)
    else:
        skew = 1.0 - 1j * beta * np.sign(th) * math.tan(0.5 * np.pi * a)
        exponent = -(sigma ** a) * abs_th ** a * skew + 1j * mu * th
    out = np.exp(exponent)
    if np.isscalar(theta):
        return complex(out)
    return out


def compute_C_alpha(u: float) -> float:
    """Normalising constant C_u = (integral_0^inf x^-u sin x dx)^-1.

    Closed form (1 - u) / (Gamma(2 - u) cos(pi u / 2)) for u != 1 and 2/pi
    at u = 1; defined for u in (0, 2).
    """
    if not (0.0 < u < 2.0):
        raise DomainError(f"the tail constant is defined for u in (0, 2), got {u}")
    if abs(u - 1.0) < 1e-12:
        return 2.0 / math.pi
    return (1.0 - u) / (math.gamma(2.0 - u) * math.cos(0.5 * math.pi * u))


class TailAsymptote(NamedTuple):
    upper: float
    lower: float


def tail_asymptote(params: StableParams, lam: float) -> TailAsymptote:
    """Asymptotic tail values for a stable law with alpha < 2.

    Returns (upper, lower) where P(Z > lam) ~ upper and P(Z < -lam) ~ lower
    as lam -> infinity:

        upper = C_alpha (1 + beta)/2 sigma^alpha lam^-alpha
        lower = C_alpha (1 - beta)/2 sigma^alpha lam^-alpha
    """
    if params.alpha >= 2.0:
        raise DomainError("power tails require alpha < 2 (the Gaussian tail decays faster)")
    if not lam > 0.0:
        raise DomainError(f"lam must be positive, got {lam}")
    base = compute_C_alpha(params.alpha) * params.sigma ** params.alpha * lam ** -params.alpha
    return TailAsymptote(upper=0.5 * (1.0 + params.beta) * base,
                         lower=0.5 * (1.0 - params.beta) * base)


@dataclass(frozen=True)
class PoissonArrivals:
    """Arrival times of a homogeneous Poisson process."""

    rate: float
    times: np.ndarray

    def __post_init__(self) -> None:
        if not 0.0 < self.rate < math.inf:
            raise ParameterError(f"rate must be positive and finite, got {self.rate}")
        t = np.asarray(self.times, dtype=float)
        if t.size and not (t[0] > 0.0 and np.all(np.diff(t) > 0.0)):
            raise ParameterError("arrival times must be strictly increasing and positive")
        object.__setattr__(self, "times", t)

    def __len__(self) -> int:
        return int(self.times.size)


def poisson_arrivals(rate: float, count: int, stream: RandomStream) -> PoissonArrivals:
    """First ``count`` arrival times of a rate-``rate`` Poisson process.

    Inter-arrival gaps are drawn with the same prefix-consistent pair
    convention as the stable sampler, so shorter requests are prefixes of
    longer ones under the same stream.
    """
    count = _check_ints(count, 0, None, "arrival count")
    with np.errstate(divide="ignore"):  # PoissonArrivals rejects a zero rate
        gaps = _exponential(_uniform_pairs(stream, count)[:, 1]) / rate
    return PoissonArrivals(rate=rate, times=np.cumsum(gaps))
