"""Variable stability exponents, integrands, characteristic-function
exponent integrals and the variable-exponent (Luxemburg) quasinorm.

An exponent function u -> alpha(u) is cadlag on a closed interval with
values in a band [a, b] inside (0, 2].  Integrands live on [0, 1] as
vectorised handles with declared breakpoints; step functions (uniform-grid
tables, indicators, constants) are marked as such.  Every exponent kind is
stored in one piecewise-affine form, so exponent integrals and the modulars
of step functions are exact closed-form cell sums.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, InfiniteQuasinormError, ParameterError, QuadratureError
from .quadrature import gauss_kronrod, gk_nodes, split_points
from .stable_core import _check_ints

# JSON spelling of each exponent kind: the constructor and the fields it reads
_SPELLINGS = {
    "constant": ("constant", ("value",)),
    "linear": ("linear", ("intercept", "slope")),
    "piecewise": ("piecewise", ("breaks", "values")),
    "piecewise_linear": ("piecewise_linear", ("breaks", "intercepts", "slopes")),
    "table": ("from_table", ("values",)),
}
_EDGE_TOL = 1e-12
# Grid reads snap a time u up to u + _GRID_SNAP before finding its dyadic
# cell, so that k/2^n computed with rounding error still reads cell k.
_GRID_SNAP = 1e-12
# lf_n_exponent forms its terms this many cells at a time, so that each
# block's temporaries stay in cache.
_TERM_BLOCK = 2 ** 14


def grid_index(n: int, u: float) -> int:
    """Index of the last dyadic grid point <= u + _GRID_SNAP: the one read
    of a cadlag step path at time u."""
    return int(math.floor(math.ldexp(u + _GRID_SNAP, n)))


def _cell_time(j: int, m: int) -> float:
    """min(j/m, 1), the time of cell j at level m: one rounded division and
    a min, as ``_cell_times`` forms each of its entries."""
    return min(j / m, 1.0)


def _cell_times(m: int, first: int, count: int) -> np.ndarray:
    """``_cell_time(first + i, m)``, i < count, with the same bits (the
    tests hold the two to this): a level-m grid (first = 0) or cell times.
    Built in place: extra temporaries of 2^20-cell rows fragment glibc's
    heap, which raised the peak RSS of long-path runs."""
    xs = np.arange(first, first + count, dtype=float)
    xs /= m
    return np.minimum(xs, 1.0, out=xs)


def _piece_edges(af: AlphaFunction, m: int, first: int, count: int) -> list[int]:
    """Piece j of af holds the cells edges[j] <= i < edges[j + 1] of
    ``_cell_times(m, first, count)``: the searchsorted of the breaks on
    those sorted times, one bisection of ``_cell_time`` per break, without
    building them.  A clip to the domain moves no time across a break."""
    cells = range(first, first + count)
    cuts = [bisect.bisect_left(cells, p, key=lambda j: _cell_time(j, m)) for p in af.breaks]
    return [0, *cuts, count]


def _cell_alphas(af: AlphaFunction, m: int, first: int, count: int) -> np.ndarray:
    """af at ``_cell_times(m, first, count)``, with the bits of af(xs).

    The times are sorted, so checking the two ends checks them all, and
    each affine piece is one slice, found by one searchsorted of the
    breaks, that gets intercept + slope x in place: no per-cell bisect or
    gather."""
    xs = _cell_times(m, first, count)
    if count:
        t0, t1 = af.domain
        if not (xs[0] >= t0 - _EDGE_TOL and xs[-1] <= t1 + _EDGE_TOL):
            raise DomainError(f"argument outside exponent domain [{t0}, {t1}]")
        if xs[0] < t0 or xs[-1] > t1:
            np.clip(xs, t0, t1, out=xs)
    edges = [0, *np.searchsorted(xs, af.breaks, side="left").tolist(), count]
    for lo, hi, c, slope in zip(edges, edges[1:], af.intercepts, af.slopes):
        piece = xs[lo:hi]
        piece *= slope
        piece += c
    return xs


@dataclass(frozen=True)
class AlphaFunction:
    """A cadlag stability-exponent function on a closed interval.

    Every shape (constant value, affine ramp, piecewise-constant steps,
    piecewise-affine ramps, uniform-grid tables) is stored in one form:
    interior ``breaks`` and, per cell between them, alpha(x) =
    intercepts[i] + slopes[i] x, right-continuous at each break.  ``kind``
    only names the JSON spelling.  Construction validates that the range
    stays inside (0, 2]; the attained band is exposed as ``a`` (infimum)
    and ``b`` (supremum).
    """

    kind: str
    domain: tuple[float, float] = (0.0, 1.0)
    breaks: tuple[float, ...] = ()
    intercepts: tuple[float, ...] = ()
    slopes: tuple[float, ...] = ()
    a: float = field(init=False, default=0.0)
    b: float = field(init=False, default=0.0)

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, value: float, domain=(0.0, 1.0)) -> "AlphaFunction":
        return cls("constant", tuple(domain), (), (float(value),), (0.0,))

    @classmethod
    def linear(cls, intercept: float, slope: float, domain=(0.0, 1.0)) -> "AlphaFunction":
        return cls("linear", tuple(domain), (), (float(intercept),), (float(slope),))

    @classmethod
    def piecewise(cls, breaks: Sequence[float], values: Sequence[float],
                  domain=(0.0, 1.0)) -> "AlphaFunction":
        return cls._steps("piecewise", breaks, values, domain)

    @classmethod
    def piecewise_linear(cls, breaks: Sequence[float], intercepts: Sequence[float],
                         slopes: Sequence[float], domain=(0.0, 1.0)) -> "AlphaFunction":
        return cls("piecewise_linear", tuple(domain), tuple(float(x) for x in breaks),
                   tuple(float(x) for x in intercepts), tuple(float(x) for x in slopes))

    @classmethod
    def from_table(cls, values: Sequence[float], domain=(0.0, 1.0)) -> "AlphaFunction":
        """Right-continuous steps on the uniform grid t0 + (t1 - t0) i/m."""
        m = len(values)
        if m < 1:
            raise ParameterError("table needs at least one value")
        t0, t1 = domain
        return cls._steps("table", [t0 + (t1 - t0) * i / m for i in range(1, m)],
                          values, domain)

    @classmethod
    def _steps(cls, kind: str, breaks, values, domain) -> "AlphaFunction":
        values = tuple(float(x) for x in values)
        return cls(kind, tuple(domain), tuple(float(x) for x in breaks), values,
                   (0.0,) * len(values))

    # -- validation -------------------------------------------------------

    def __post_init__(self) -> None:
        if self.kind not in _SPELLINGS:
            raise ParameterError(f"unknown exponent kind {self.kind!r}")
        t0, t1 = self.domain
        if not all(map(math.isfinite, (*self.domain, *self.breaks,
                                       *self.intercepts, *self.slopes))):
            raise ParameterError("exponent domain, breaks and values must be finite")
        if not (t0 < t1):
            raise ParameterError(f"domain must be a proper interval, got {self.domain}")
        if not (len(self.intercepts) == len(self.slopes) == len(self.breaks) + 1):
            raise ParameterError("an exponent needs one value per cell: "
                                 "len(breaks) + 1 intercepts and slopes")
        br = np.asarray(self.breaks, dtype=float)
        if br.size and (np.any(np.diff(br) <= 0.0)
                        or br[0] <= t0 + _EDGE_TOL or br[-1] >= t1 - _EDGE_TOL):
            raise ParameterError("breaks must be strictly increasing interior points")

        ends = [c + m * x for lo, hi, c, m in self.pieces(t0, t1) for x in (lo, hi)]
        lo, hi = min(ends), max(ends)
        object.__setattr__(self, "a", lo)
        object.__setattr__(self, "b", hi)
        if not (0.0 < lo and hi <= 2.0):
            raise ParameterError(
                f"exponent values must stay in (0, 2], attained range is [{lo}, {hi}]")

    # -- evaluation -------------------------------------------------------

    def __call__(self, u):
        scalar = np.isscalar(u)
        x = np.asarray(u, dtype=float)
        t0, t1 = self.domain
        if not np.all((x >= t0 - _EDGE_TOL) & (x <= t1 + _EDGE_TOL)):
            raise DomainError(f"argument outside exponent domain [{t0}, {t1}]")
        x = np.clip(x, t0, t1)
        if self.breaks:
            idx = np.searchsorted(self.breaks, x, side="right")
            out = np.asarray(self.slopes)[idx]
            out *= x
            out += np.asarray(self.intercepts)[idx]
        else:  # one cell: Python-float coefficients keep the cost of c + m x
            out = x
            out *= self.slopes[0]
            out += self.intercepts[0]
        return float(out) if scalar else out

    # -- structure --------------------------------------------------------

    def _affine(self, s: np.ndarray) -> tuple[list[float], list[float]]:
        """Intercepts c and slopes m with alpha(x) = c + m x on the piece
        that holds each point of ``s`` (read away from any break)."""
        idx = [bisect.bisect_right(self.breaks, x) for x in s.tolist()]
        return [self.intercepts[i] for i in idx], [self.slopes[i] for i in idx]

    def pieces(self, u1: float, u2: float) -> list[tuple[float, float, float, float]]:
        """(lo, hi, c, m) cells covering [u1, u2] between breakpoints, on each
        of which alpha(s) = c + m s; each cell is read at its midpoint.  In
        Python floats: numpy arrays of a few edges would cost more than the
        rest of an exponent integral."""
        edges = split_points(u1, u2, self.breaks)
        cells = []
        for lo, hi in zip(edges, edges[1:]):
            i = bisect.bisect_right(self.breaks, 0.5 * (lo + hi))
            cells.append((lo, hi, self.intercepts[i], self.slopes[i]))
        return cells

    def segment(self, k: int) -> "AlphaFunction":
        """Exponent x -> alpha(x + k) restricted to the unit interval: the
        cells over (k, k + 1), shifted left by k, for every kind exactly.
        Used when gluing unit-interval processes along the line."""
        t0, t1 = self.domain
        if k < t0 - _EDGE_TOL or k + 1 > t1 + _EDGE_TOL:
            raise DomainError(f"segment [{k}, {k + 1}] outside domain [{t0}, {t1}]")
        first = bisect.bisect_right(self.breaks, k)
        inner = [p - k for p in self.breaks[first:] if p < k + 1]
        cells = range(first, first + len(inner) + 1)
        return AlphaFunction.piecewise_linear(
            inner, [self.intercepts[i] + self.slopes[i] * k for i in cells],
            [self.slopes[i] for i in cells])

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        d: dict = {"kind": self.kind}
        if self.domain != (0.0, 1.0):
            d["domain"] = list(self.domain)
        stored = {"value": self.intercepts[0], "intercept": self.intercepts[0],
                  "slope": self.slopes[0], "breaks": list(self.breaks),
                  "values": list(self.intercepts), "intercepts": list(self.intercepts),
                  "slopes": list(self.slopes)}
        d.update((key, stored[key]) for key in _SPELLINGS[self.kind][1])
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, spec: str | dict) -> "AlphaFunction":
        d = json.loads(spec) if isinstance(spec, str) else dict(spec)
        kind = d.get("kind")
        if not isinstance(kind, str) or kind not in _SPELLINGS:
            raise ParameterError(f"unknown exponent kind {kind!r}")
        constructor, keys = _SPELLINGS[kind]
        try:
            args = [d[key] for key in keys]
        except KeyError as exc:
            raise ParameterError(f"missing field {exc} for exponent kind {kind!r}") from exc
        return getattr(cls, constructor)(*args, tuple(d.get("domain", (0.0, 1.0))))


# ---------------------------------------------------------------------------
# integrands
# ---------------------------------------------------------------------------

class IntegrandFunction:
    """A deterministic integrand on [0, 1]: a vectorised handle with declared
    breakpoints.  ``steps`` marks a step function, constant between its
    breakpoints (tables, indicators, constants and their differences and
    scalings), whose integrals are then exact.
    """

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray],
                 breakpoints: Sequence[float] = (), label: str = "",
                 steps: bool = False):
        self._fn = fn
        self.breakpoints = tuple(sorted(set(float(p) for p in breakpoints if 0.0 < p < 1.0)))
        self.label = label or "integrand"
        self.steps = steps

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_callable(cls, fn, breakpoints=(), label="") -> "IntegrandFunction":
        return cls(lambda x: np.asarray(fn(x), dtype=float), breakpoints, label)

    @classmethod
    def from_table(cls, values) -> "IntegrandFunction":
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise ParameterError("table integrand needs a non-empty 1-d value array")
        if not np.all(np.isfinite(vals)):
            raise ParameterError("table integrand values must be finite")
        m = vals.size

        def fn(x):
            idx = np.clip(np.floor(np.asarray(x, dtype=float) * m).astype(int), 0, m - 1)
            return vals[idx]

        return cls(fn, [i / m for i in range(1, m)], "table", steps=True)

    @classmethod
    def indicator(cls, lo: float, hi: float) -> "IntegrandFunction":
        if not (0.0 <= lo < hi <= 1.0):
            raise ParameterError(f"indicator needs 0 <= lo < hi <= 1, got ({lo}, {hi})")

        def fn(x):
            x = np.asarray(x, dtype=float)
            return ((x >= lo) & (x <= hi)).astype(float)

        return cls(fn, [lo, hi], f"indicator[{lo},{hi}]", steps=True)

    @classmethod
    def constant(cls, c: float) -> "IntegrandFunction":
        c = float(c)
        return cls(lambda x: np.full_like(np.asarray(x, dtype=float), c), (), f"const({c})",
                   steps=True)

    # -- evaluation and algebra -------------------------------------------

    def __call__(self, x):
        scalar = np.isscalar(x)
        x = np.asarray(x, dtype=float)
        # min and max pass a NaN on and, unlike isfinite(x), allocate nothing
        if x.size and not (math.isfinite(x.min()) and math.isfinite(x.max())):
            raise DomainError("integrand argument must be finite")
        out = self._values(x)
        return float(out) if scalar else out

    def _values(self, x: np.ndarray) -> np.ndarray:
        """f at an array of finite points that the caller built itself
        (cell times, midpoints, quadrature nodes): the call without its
        argument check, which would rescan every node."""
        return np.asarray(self._fn(x), dtype=float)

    def __sub__(self, other: "IntegrandFunction") -> "IntegrandFunction":
        return IntegrandFunction(lambda x: self._fn(x) - other._fn(x),
                                 self.breakpoints + other.breakpoints,
                                 f"({self.label} - {other.label})",
                                 steps=self.steps and other.steps)

    def scaled(self, c: float) -> "IntegrandFunction":
        c = float(c)
        if not math.isfinite(c):
            raise ParameterError(f"scale factor must be finite, got {c}")
        return IntegrandFunction(lambda x: c * self._fn(x), self.breakpoints,
                                 f"{c}*{self.label}", steps=self.steps)

    # -- helpers ------------------------------------------------------------

    def sup_bound(self) -> float:
        """Estimated sup of |f| over [0, 1] (exact for step functions)."""
        xs = _cells(0.0, 1.0, self.breakpoints)[1] if self.steps else _probe_grid(self.breakpoints)
        return float(np.max(np.abs(self(xs))))


def _cells(u1: float, u2: float, breakpoints: Sequence[float]) -> tuple[list[float], np.ndarray]:
    """Edges of [u1, u2] split at the interior breakpoints, and the midpoints
    of the cells between them."""
    edges = split_points(u1, u2, breakpoints)
    e = np.asarray(edges)
    return edges, 0.5 * (e[:-1] + e[1:])


def _probe_grid(breakpoints: Sequence[float]) -> np.ndarray:
    """4097 equispaced points on [0, 1], plus each breakpoint p and its
    neighbours p -+ 1e-9 (clipped to [0, 1]): where sup and sign scans look."""
    xs = np.linspace(0.0, 1.0, 4097)
    extra = [q for p in breakpoints for q in (max(p - 1e-9, 0.0), p, min(p + 1e-9, 1.0))]
    return np.concatenate([xs, extra]) if extra else xs


# ---------------------------------------------------------------------------
# exponent integrals and characteristic functions
# ---------------------------------------------------------------------------

def _check_interval(af: AlphaFunction, u1: float, u2: float) -> None:
    t0, t1 = af.domain
    if not (t0 - _EDGE_TOL <= u1 <= u2 <= t1 + _EDGE_TOL):
        raise DomainError(f"need {t0} <= u1 <= u2 <= {t1}, got ({u1}, {u2})")


def _power_integral(v: float, c: float, m: float, lo: float, hi: float) -> float:
    """integral_lo^hi v^(c + m s) ds for v >= 0, in closed form.

    Written as (hi - lo) v^(c + m lo) expm1(x)/x with x = m ln(v) (hi - lo),
    which stays exact for cells so narrow that x underflows; with m = 0 it
    is the plain (hi - lo) v^c.  Where a power or expm1(x) leaves the float
    range, the integral is anchored at the end where the integrand peaks,
    formed in log space so that a narrow cell keeps a finite value; only
    that peak can then overflow, and it gives an infinite exponent.
    """
    if v == 0.0 or hi <= lo:
        return 0.0
    x = m * math.log(v) * (hi - lo)
    try:
        base = (hi - lo) * v ** (c + m * lo)
        return base if x == 0.0 else base * (math.expm1(x) / x)
    except OverflowError:
        try:
            peak = math.exp(math.log(hi - lo) + (c + m * (hi if x > 0.0 else lo)) * math.log(v))
        except OverflowError:
            return math.inf
        return peak if x == 0.0 else peak * (-math.expm1(-abs(x)) / abs(x))


def exponent_integral(af: AlphaFunction, theta: float, u1: float, u2: float) -> float:
    """integral_{u1}^{u2} |theta|^alpha(s) ds, exact: a closed-form sum over
    the affine pieces of alpha.  |theta| = 1 short-circuits to u2 - u1."""
    _check_interval(af, u1, u2)
    abs_t = abs(float(theta))
    if math.isnan(abs_t):
        raise ParameterError("theta must not be NaN")
    if u2 <= u1:
        return 0.0
    if abs_t == 1.0:
        return u2 - u1
    return sum(_power_integral(abs_t, c, m, lo, hi) for lo, hi, c, m in af.pieces(u1, u2))


def li_cf(af: AlphaFunction, times: Sequence[float], thetas: Sequence[float]) -> float:
    """Joint characteristic function of the limiting motion at ``times``.

    Evaluates exp(-integral_0^1 |sum_j theta_j 1_[0, t_j](s)|^alpha(s) ds),
    splitting the integral at the (sorted) evaluation times where the inner
    step function changes value.
    """
    if len(times) != len(thetas):
        raise ParameterError("times and thetas must have equal length")
    if af.domain[0] != 0.0:
        raise ParameterError("the limiting motion starts at 0; exponent domain must too")
    t_end = af.domain[1]
    ts = np.asarray(times, dtype=float)
    if ts.size == 0:
        return 1.0
    if not np.all((ts >= 0.0) & (ts <= t_end + _EDGE_TOL)):
        raise DomainError(f"evaluation times must lie in [0, {t_end}]")
    th = np.asarray(thetas, dtype=float)
    # checked here, as a theta at time 0 reaches no cell's exponent integral
    if np.isnan(th).any():
        raise ParameterError("theta must not be NaN")
    edges = sorted(set(ts.tolist()) | {0.0})
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        coeff = float(th[ts >= hi].sum())
        total += exponent_integral(af, coeff, lo, hi)
    return math.exp(-total)


def integral_cf(fs: Sequence[IntegrandFunction], thetas: Sequence[float],
                af: AlphaFunction) -> float:
    """Joint CF exp(-integral_0^1 |sum_j theta_j f_j(x)|^alpha(x) dx) of
    weighted-sum integrals; raises if the combination is not integrable."""
    if len(fs) != len(thetas):
        raise ParameterError("integrands and thetas must have equal length")
    if not fs:
        return 1.0
    th = [float(t) for t in thetas]
    if any(map(math.isnan, th)):
        raise ParameterError("theta must not be NaN")
    g = IntegrandFunction(lambda x: sum(t * f._values(x) for t, f in zip(th, fs)),
                          [p for f in fs for p in f.breakpoints],
                          steps=all(f.steps for f in fs))
    total = modular_integral(g, af)
    if not math.isfinite(total):
        raise DomainError("the combined integrand is not integrable under this exponent")
    return math.exp(-total)


def plateau_identity_alpha(b: float) -> AlphaFunction:
    """The exponent that stays flat at b/2 on [0, b/2] and then follows the
    identity, alpha(u) = u, up to 1.

    This is the canonical witness that the naive field-based scheme diverges:
    feed it to :func:`lf_n_exponent` at any u > b/2.  The plateau cells
    k/2^n <= b/2 alone give the lower bound

        P(n) = floor((b/2) 2^n) |theta|^(b/2) 2^(-n b / (2 alpha(u))),

    which grows geometrically, like 2^(n (1 - b/(2u))).  Requires 0 < b < 2
    so the plateau height and the break both lie inside the admissible band.
    """
    if not 0.0 < b < 2.0:
        raise ParameterError(f"plateau parameter must lie in (0, 2), got {b}")
    half = b / 2.0
    return AlphaFunction.piecewise_linear(
        breaks=(half,), intercepts=(half, 0.0), slopes=(0.0, 1.0))


def lf_n_exponent(af: AlphaFunction, u: float, theta: float, n: int) -> float:
    """Exact finite-sum CF exponent of the naive field-based scheme,

        sum_{k=1}^{floor(2^n u)} |theta|^alpha(k/2^n) (2^-n)^(alpha(k/2^n)/alpha(u)),

    for u in [0, 1], where the dyadic schemes live.  Its growth in n
    witnesses that rescaling by the evaluation point's own exponent cannot
    converge when alpha varies below the evaluation point.
    For :func:`plateau_identity_alpha` (b) at u > b/2 the sum is at least the
    plateau part P(n) = floor((b/2) 2^n) |theta|^(b/2) 2^(-n b / (2 alpha(u)))
    and diverges at the geometric rate 2^(n (1 - b/(2u))): slowly, since
    b = 1.8, u = 0.95, theta = 1 gives 1.94 at n = 20 and passes 1e3 only
    near n = 192.
    """
    n = _check_ints(n, 0, None, "level n")
    _check_interval(af, 0.0, u)
    if u > 1.0 + _EDGE_TOL:
        raise DomainError(f"the field-based scheme lives on [0, 1], got u = {u}")
    count = grid_index(n, u)
    abs_t = abs(float(theta))
    if math.isnan(abs_t):
        raise ParameterError("theta must not be NaN")
    if count == 0 or abs_t == 0.0:
        return 0.0
    alpha_u = af(u)
    # the bases |theta| and 2^-n as arrays, sliced to each block: numpy's
    # AVX-512 power loop reads a broadcast scalar operand by gather, about
    # twice the cost of a contiguous one, and both forms give the same bits
    bases = np.full((2, min(count, _TERM_BLOCK)), [[abs_t], [2.0 ** -n]])

    def form(block, alphas):
        size = alphas.size
        np.power(bases[0, :size], alphas, out=block)
        alphas /= alpha_u
        block *= np.power(bases[1, :size], alphas, out=alphas)

    # a flat piece shares one alpha, so its term is formed once, by the same
    # calls on one cell; a sloped piece forms its terms a block at a time,
    # while the block's cells sit in cache.  One sum over all terms keeps
    # numpy's pairwise tree, and with it the bits
    terms = np.empty(count)
    edges = _piece_edges(af, 2 ** n, 1, count)
    for lo, hi, c, slope in zip(edges, edges[1:], af.intercepts, af.slopes):
        if slope != 0.0:
            for start in range(lo, hi, _TERM_BLOCK):
                alphas = _cell_alphas(af, 2 ** n, 1 + start, min(_TERM_BLOCK, hi - start))
                form(terms[start:start + alphas.size], alphas)
        elif lo < hi:
            form(terms[lo:lo + 1], np.full(1, c))
            terms[lo + 1:hi] = terms[lo]
    return float(np.sum(terms))


# ---------------------------------------------------------------------------
# variable-exponent quasinorm
# ---------------------------------------------------------------------------

def modular_integral(f: IntegrandFunction, af: AlphaFunction, lam: float = 1.0) -> float:
    """integral_0^1 |f(x)/lam|^alpha(x) dx, the modular behind the quasinorm
    (at lam = 1, the variable-exponent energy of f): exact for step functions,
    by Gauss-Kronrod cells for general integrands (0^alpha = 0 as alpha > 0)."""
    if not lam > 0.0:
        raise ParameterError(f"scale must be positive, got {lam}")
    return _modular(f, af)(lam)


def _modular(f: IntegrandFunction, af: AlphaFunction) -> Callable[[float], float]:
    """lam -> modular_integral(f, af, lam).  For a step f the lam-free part
    (the cells, |f| at their midpoints and alpha's c + m s on each) is
    built once, so a call only scales |f| and sums the cells.  Any other f
    is integrated by Gauss-Kronrod, whose first round always lies on the
    panels' nodes: |f| and alpha there are held, and a call forms only their
    power for its lam; later rounds evaluate on their own nodes, held by none."""
    breakpoints = (*af.breaks, *f.breakpoints)
    if not f.steps:
        panels = np.asarray(split_points(0.0, 1.0, breakpoints))
        x0 = gk_nodes(panels[:-1], panels[1:])[1].ravel()
        first = (np.abs(f._values(x0)), af(x0))

        def gk_modular(lam: float) -> float:
            held = [first]  # gauss_kronrod calls its integrand once a round

            def integrand(x):
                abs_f, alpha = held.pop() if held else (np.abs(f._values(x)), af(x))
                return (abs_f / lam) ** alpha

            return gauss_kronrod(integrand, 0.0, 1.0, breakpoints=breakpoints)

        gk_modular.margin = 1e-8  # 100 times gauss_kronrod's relative tolerance
        return gk_modular
    edges, mids = _cells(0.0, 1.0, breakpoints)
    abs_f = np.abs(f._values(mids))
    cells = list(zip(edges, edges[1:], *af._affine(mids)))

    def step_modular(lam: float) -> float:
        vs = (abs_f / lam).tolist()
        return sum(_power_integral(v, c, m, lo, hi) for v, (lo, hi, c, m) in zip(vs, cells))

    step_modular.margin = 1e-12  # exact up to rounding
    return step_modular


def _certified(modular, lo: float, g_lo: float, hi: float, g_hi: float) -> tuple[float, float]:
    """lo <= a <= b <= hi with the computed modular >= 1 at lam <= a and < 1 at
    lam >= b: <= 12 Illinois steps on (log lam, log modular), each aimed 4
    margins past 1 on the side the last one missed (4 times further after a
    value in 1 -+ margin), until a value is not in (0, inf) or both ends are
    within 16 margins of 1."""
    margin, a, b = modular.margin, lo, hi
    if not 0.0 < g_hi < g_lo < math.inf:
        return a, b
    xa, ya, xb, yb = math.log(lo), math.log(g_lo), math.log(hi), math.log(g_hi)
    wa, wb, aim, last = ya, yb, 4.0 * margin, 0
    for _ in range(12):
        if ya <= 16.0 * margin and -yb <= 16.0 * margin:
            break
        x = xa + ((-aim if last > 0 else aim) - wa) * (xb - xa) / (wb - wa)
        x = x if xa < x < xb else 0.5 * (xa + xb)
        g = modular(lam := math.exp(x))
        if not 0.0 < g < math.inf:
            break
        if g >= 1.0 + margin:
            a, xa, ya = max(a, lam), x, math.log(g)
            wa, wb, last = ya, 0.5 * wb if last > 0 else wb, 1
        elif g <= 1.0 - margin:
            b, xb, yb = min(b, lam), x, math.log(g)
            wa, wb, last = 0.5 * wa if last < 0 else wa, yb, -1
        else:
            aim *= 4.0
    return a, b


def quasinorm(f: IntegrandFunction, af: AlphaFunction) -> float:
    """Luxemburg-style variable-exponent quasinorm

        ||f|| = inf { lam > 0 : integral_0^1 |f(x)/lam|^alpha(x) dx <= 1 },

    located by geometric bracket expansion followed by bisection on the
    strictly decreasing modular, to a relative bracket width of 1e-12.
    hi starts at ``f.sup_bound()`` (1 if not finite) and doubles while the
    modular exceeds 1; lo starts at min(sup * 1e-6, hi / 2) and quarters
    while it is below 1, giving 0 under 1e-300 (f vanishes off a null set).
    Its one error is InfiniteQuasinormError, after 200 doublings of hi.

    The bisection evaluates only the midpoints inside the a < b that
    :func:`_certified` places around the root; one at or below a moves lo,
    one at or above b moves hi.  The exact modular decreases in lam, so if
    the computed one is within eps <= margin/2 of it, a value >= 1 + margin
    at a keeps every computed value at a smaller lam >= 1, and likewise < 1
    past b: each verdict, and so the result's bits, hold.  The margin is
    1e-12 for a step f (its cell sum is exact up to rounding), 1e-8 for
    Gauss-Kronrod (100 x its tolerance); a QuadratureError there voids a, b.
    """
    sup = f.sup_bound()
    if sup == 0.0:
        return 0.0

    modular = _modular(f, af)
    finite = math.isfinite(sup)
    hi = start = sup if finite else 1.0
    while not (g_hi := modular(hi)) <= 1.0:
        hi *= 2.0
        if hi >= start * 2.0 ** 200:
            raise InfiniteQuasinormError(f"modular > 1 or non-finite for every lam < {hi:.3g}")

    lo = min(sup * 1e-6, 0.5 * hi) if finite else 0.5 * hi
    while not (g_lo := modular(lo)) >= 1.0:
        lo *= 0.25
        if lo < 1e-300:
            return 0.0

    try:
        a, b = _certified(modular, lo, g_lo, hi, g_hi)
    except QuadratureError:
        a, b = lo, hi
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if mid <= a or (mid < b and modular(mid) >= 1.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# localisability diagnostic on the exponent itself
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Condition7Report:
    """Result of the vanishing-oscillation diagnostic on alpha.

    ``values[i]`` is the sup over the probe grid of
    |(alpha(x) - alpha(x + t_i)) ln t_i|; the diagnostic is ``satisfied``
    when the value at the smallest lag falls below the threshold and
    ``violated`` when the sequence grows instead.
    """

    t_grid: tuple[float, ...]
    values: tuple[float, ...]
    threshold: float
    verdict: str


def check_condition7(af: AlphaFunction, x_grid, t_grid,
                     threshold: float = 1e-3) -> Condition7Report:
    """Probe whether exponent oscillations vanish faster than 1/|ln t|.

    ``t_grid`` must be strictly decreasing lags in (0, 1); the verdict keys
    off the value at the smallest lag (convention: satisfied below
    ``threshold``, violated when the sequence grows above it instead).
    """
    xs = np.asarray(x_grid, dtype=float)
    ts = np.asarray(t_grid, dtype=float)
    if np.isnan(xs).any():
        raise DomainError("probe points must not be NaN")
    if not (ts.size and np.all((ts > 0.0) & (ts < 1.0))):
        raise DomainError("lags must lie in (0, 1)")
    if not np.all(np.diff(ts) < 0.0):
        raise DomainError("lags must be strictly decreasing")
    if not threshold > 0.0:
        raise ParameterError(f"threshold must be positive, got {threshold}")
    t0, t1 = af.domain
    values = []
    for t in ts:
        valid = xs[(xs >= t0) & (xs + t <= t1 + _EDGE_TOL)]
        if valid.size == 0:
            raise DomainError(f"no probe point x with x + {t} inside the domain")
        osc = np.abs((af(valid) - af(np.minimum(valid + t, t1))) * math.log(t))
        values.append(float(np.max(osc)))
    if values[-1] <= threshold:
        verdict = "satisfied"
    elif values[-1] > max(values[0], threshold):
        verdict = "violated"
    else:
        verdict = "inconclusive"
    return Condition7Report(t_grid=tuple(float(t) for t in ts),
                            values=tuple(values), threshold=threshold,
                            verdict=verdict)
