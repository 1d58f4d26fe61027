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

from .errors import DomainError, InfiniteQuasinormError, ParameterError
from .quadrature import gauss_kronrod, split_points
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
    """Index of the last dyadic grid point <= u (paths are cadlag steps);
    u is snapped up by _GRID_SNAP first, as in PathGrid.value_at."""
    return int(math.floor(math.ldexp(u + _GRID_SNAP, n)))


def _cell_times(m: int, first: int, count: int) -> np.ndarray:
    """min((first + i)/m, 1), i < count: a level-m grid (first = 0) or cell
    times.  Built in place: extra temporaries of 2^20-cell rows fragment
    glibc's heap, which raised the peak RSS of long-path runs."""
    xs = np.arange(first, first + count, dtype=float)
    xs /= m
    return np.minimum(xs, 1.0, out=xs)


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

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """Interior points where the exponent may jump or kink."""
        return self.breaks

    def _affine(self, s: np.ndarray) -> tuple[list[float], list[float]]:
        """Intercepts c and slopes m with alpha(x) = c + m x on the piece
        that holds each point of ``s`` (read away from any break)."""
        idx = [bisect.bisect_right(self.breaks, x) for x in s.tolist()]
        return [self.intercepts[i] for i in idx], [self.slopes[i] for i in idx]

    def pieces(self, u1: float, u2: float) -> list[tuple[float, float, float, float]]:
        """(lo, hi, c, m) cells covering [u1, u2] between breakpoints, on each
        of which alpha(s) = c + m s; each cell is read at its midpoint."""
        edges, mids = _cells(u1, u2, self.breaks)
        return list(zip(edges, edges[1:], *self._affine(mids)))

    def max_jump(self) -> float:
        """Largest discontinuity across interior breakpoints (0 if continuous)."""
        cells = self.pieces(*self.domain)
        return max((abs((c1 + m1 * x) - (c2 + m2 * x))
                    for (_, x, c1, m1), (_, _, c2, m2) in zip(cells, cells[1:])), default=0.0)

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
    def from_table(cls, values, label="table") -> "IntegrandFunction":
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise ParameterError("table integrand needs a non-empty 1-d value array")
        if not np.all(np.isfinite(vals)):
            raise ParameterError("table integrand values must be finite")
        m = vals.size

        def fn(x):
            idx = np.clip(np.floor(np.asarray(x, dtype=float) * m).astype(int), 0, m - 1)
            return vals[idx]

        return cls(fn, [i / m for i in range(1, m)], label, steps=True)

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

    @classmethod
    def zero(cls) -> "IntegrandFunction":
        return cls.constant(0.0)

    # -- evaluation and algebra -------------------------------------------

    def __call__(self, x):
        scalar = np.isscalar(x)
        out = self._fn(np.asarray(x, dtype=float))
        return float(out) if scalar else np.asarray(out, dtype=float)

    def __sub__(self, other: "IntegrandFunction") -> "IntegrandFunction":
        return IntegrandFunction(lambda x: self._fn(x) - other._fn(x),
                                 self.breakpoints + other.breakpoints,
                                 f"({self.label} - {other.label})",
                                 steps=self.steps and other.steps)

    def scaled(self, c: float) -> "IntegrandFunction":
        c = float(c)
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
    if u2 <= u1:
        return 0.0
    abs_t = abs(float(theta))
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
    g = IntegrandFunction(lambda x: sum(t * f(x) for t, f in zip(th, fs)),
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
    if count == 0 or abs_t == 0.0:
        return 0.0
    # every term of a block is formed while its cells sit in cache; one sum
    # over all terms keeps numpy's pairwise tree, and with it the bits
    alpha_u, scale = af(u), 2.0 ** -n
    terms = np.empty(count)
    for lo in range(0, count, _TERM_BLOCK):
        alphas = _cell_alphas(af, 2 ** n, 1 + lo, min(_TERM_BLOCK, count - lo))
        block = terms[lo:lo + alphas.size]
        np.power(abs_t, alphas, out=block)
        alphas /= alpha_u
        block *= np.power(scale, alphas, out=alphas)
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
    breakpoints = (*af.breakpoints, *f.breakpoints)
    if f.steps:
        edges, mids = _cells(0.0, 1.0, breakpoints)
        vs = (np.abs(f(mids)) / lam).tolist()
        return sum(_power_integral(v, c, m, lo, hi)
                   for lo, hi, v, c, m in zip(edges, edges[1:], vs, *af._affine(mids)))
    return gauss_kronrod(lambda x: (np.abs(f(x)) / lam) ** af(x), 0.0, 1.0,
                         breakpoints=breakpoints)


def quasinorm(f: IntegrandFunction, af: AlphaFunction) -> float:
    """Luxemburg-style variable-exponent quasinorm

        ||f|| = inf { lam > 0 : integral_0^1 |f(x)/lam|^alpha(x) dx <= 1 },

    located by geometric bracket expansion followed by bisection on the
    strictly decreasing modular, to a relative bracket width of 1e-12.
    The zero integrand has quasinorm 0; a modular that stays infinite
    signals a non-normable integrand.
    """
    sup = f.sup_bound()
    if sup == 0.0:
        return 0.0

    hi = sup
    for _ in range(200):
        g_hi = modular_integral(f, af, hi)
        if math.isinf(g_hi):
            hi *= 2.0
            if hi > sup * 2.0 ** 200:
                raise InfiniteQuasinormError(
                    "modular integral is non-finite for every scaling")
            continue
        if g_hi <= 1.0:
            break
        hi *= 2.0
    else:
        raise InfiniteQuasinormError("modular never drops below 1 under expansion")

    lo = min(sup * 1e-6, 0.5 * hi)
    for _ in range(600):
        if modular_integral(f, af, lo) >= 1.0:
            break
        lo *= 0.25
        if lo < 1e-300:
            return 0.0
    else:  # pragma: no cover - modular must blow up as lam -> 0 for f != 0
        return 0.0

    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if modular_integral(f, af, mid) >= 1.0:
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
