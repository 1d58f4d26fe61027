"""Independent numerical oracles for the test suite.

Nothing in this module imports the package under test.  The frozen table
below was produced by two independent high-precision evaluations of the
oscillatory integral I(u) = integral_0^inf x^-u sin(x) dx (power series on
[0, pi] plus, separately, mpmath.quadosc from pi and an accelerated
alternating pi-panel sum); the two methods agreed to every printed digit at
30 significant digits before rounding to float.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

# (u, 1 / I(u)) pairs: the tail-normalizing constant at 50 midpoints of
# (0.05, 1.95).  Frozen output of the dual high-precision computation.
C_ALPHA_ORACLE = (
    (0.069, 0.9627162449674632),
    (0.107, 0.944106435301615),
    (0.145, 0.9266504077976957),
    (0.183, 0.9102044939798426),
    (0.221, 0.8946407055617102),
    (0.259, 0.8798442647634882),
    (0.297, 0.8657115669107411),
    (0.335, 0.8521484893823135),
    (0.373, 0.8390689800344996),
    (0.411, 0.826393872671639),
    (0.449, 0.8140498881702574),
    (0.487, 0.801968788365419),
    (0.525, 0.7900866564060506),
    (0.563, 0.778343282443606),
    (0.601, 0.7666816375776497),
    (0.639, 0.7550474221976111),
    (0.677, 0.7433886774234177),
    (0.715, 0.7316554504036735),
    (0.753, 0.719799505888696),
    (0.791, 0.7077740778415527),
    (0.829, 0.6955336559484195),
    (0.867, 0.6830338027907034),
    (0.905, 0.6702309981849099),
    (0.943, 0.6570825078131878),
    (0.981, 0.6435462737822778),
    (1.019, 0.6295808251806253),
    (1.057, 0.615145207068103),
    (1.095, 0.6001989266424869),
    (1.133, 0.5847019155914412),
    (1.171, 0.5686145078662929),
    (1.209, 0.5518974323107687),
    (1.247, 0.5345118197493823),
    (1.285, 0.5164192242905361),
    (1.323, 0.49758165873213583),
    (1.361, 0.4779616440754092),
    (1.399, 0.45752227325799094),
    (1.437, 0.43622728931204596),
    (1.475, 0.41404117823877373),
    (1.513, 0.3909292769682761),
    (1.551, 0.36685789684445885),
    (1.589, 0.3417944631391185),
    (1.627, 0.31570767115822496),
    (1.665, 0.2885676595570572),
    (1.703, 0.2603462015295708),
    (1.741, 0.23101691458132165),
    (1.779, 0.2005554896344925),
    (1.817, 0.1689399402480041),
    (1.855, 0.13615087276519505),
    (1.893, 0.102171778225877),
    (1.931, 0.06698934689838745),
)


def sine_integral_live(u: float, n_panels: int = 240) -> float:
    """Float-precision re-derivation of I(u) = integral_0^inf x^-u sin x dx.

    Power series on the first pi-panel (exact alternating expansion), then
    composite Simpson on each subsequent pi-panel with iterated averaging of
    the alternating partial sums.  Good to ~1e-10 on (0.05, 1.95); used as a
    live sanity check of the frozen table above.
    """
    if not 0.0 < u < 2.0:
        raise ValueError(f"u must lie in (0, 2), got {u}")
    first, k = 0.0, 0
    while True:
        term = (-1.0) ** k * math.pi ** (2 * k + 2 - u) / (
            math.factorial(2 * k + 1) * (2 * k + 2 - u))
        first += term
        if abs(term) < 1e-18 and k > 2:
            break
        k += 1

    def panel(k: int) -> float:
        xs = np.linspace(k * math.pi, (k + 1) * math.pi, 201)
        ys = np.sin(xs) / xs ** u
        h = (xs[-1] - xs[0]) / (len(xs) - 1)
        return float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum()
                                + 2.0 * ys[2:-1:2].sum()))

    partial = np.cumsum([panel(k) for k in range(1, n_panels + 1)])
    row = partial
    for _ in range(60):
        if len(row) < 2:
            break
        row = 0.5 * (row[:-1] + row[1:])
    return first + float(row[-1])


def exponent_integral_linear(intercept: float, slope: float, theta: float,
                             u1: float, u2: float) -> float:
    """Closed form of integral_{u1}^{u2} |theta|^(intercept + slope*s) ds."""
    t = abs(theta)
    if t == 0.0:
        return 0.0
    if slope == 0.0 or t == 1.0:
        return (u2 - u1) * t ** (intercept + slope * 0.5 * (u1 + u2)) if t == 1.0 \
            else (u2 - u1) * t ** intercept
    log_t = math.log(t)
    return (t ** (intercept + slope * u2) - t ** (intercept + slope * u1)) / (slope * log_t)


def panel_power_sum(edges, values, theta: float) -> float:
    """Exact integral of |theta|^alpha(s) for a piecewise-constant alpha:
    the sum of (hi - lo) |theta|^v over the cells [edges[i], edges[i + 1]]
    with value values[i], accumulated in cell order in Python floats."""
    total = 0.0
    for lo, hi, v in zip(edges, edges[1:], values):
        total += (hi - lo) * abs(theta) ** v
    return total


def quasinorm_bisection(values, alphas, lo: float = 0.0,
                        hi: float | None = None, iters: int = 200) -> float:
    """Independent Luxemburg quasinorm for a tabulated function under a
    tabulated exponent, both on uniform grids over [0, 1].

    Refines both tables to a common grid, then bisects on
    g(lam) = mean(|f_i/lam|^alpha_i) <= 1 (g strictly decreasing in lam).
    """
    values = np.asarray(values, dtype=float)
    alphas = np.asarray(alphas, dtype=float)
    m = math.lcm(len(values), len(alphas))
    f = np.repeat(values, m // len(values))
    a = np.repeat(alphas, m // len(alphas))
    if np.all(f == 0.0):
        return 0.0

    def modular(lam: float) -> float:
        return float(np.mean((np.abs(f) / lam) ** a))

    if hi is None:
        hi = float(np.max(np.abs(f)))
    while modular(hi) > 1.0:
        hi *= 2.0
    lo = hi / 2.0
    while modular(lo) <= 1.0:
        lo /= 2.0
        if lo < 1e-300:
            return 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if modular(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def lf_exponent_bruteforce(alpha_fn, u: float, theta: float, n: int) -> float:
    """Direct double-checkable loop for the naive scheme's CF exponent."""
    m = 2 ** n
    count = math.floor(m * u + 1e-12)
    a_u = alpha_fn(u)
    total = 0.0
    for k in range(1, count + 1):
        a_k = alpha_fn(k / m)
        total += abs(theta) ** a_k * (2.0 ** -n) ** (a_k / a_u)
    return total


def cf_of_increment_brute(alpha_fn, theta: float, u1: float, u2: float,
                          panels: int = 20001) -> complex:
    """Midpoint-rule evaluation of exp(-integral_{u1}^{u2} |theta|^alpha(s) ds)."""
    xs = u1 + (u2 - u1) * (np.arange(panels) + 0.5) / panels
    vals = np.abs(theta) ** np.asarray([alpha_fn(x) for x in xs])
    return complex(math.exp(-float(np.mean(vals)) * (u2 - u1)))


def weighted_sum_path(alphas, base: float, f_values, draws) -> np.ndarray:
    """Reference weighted-sum path [0, cumsum(base^(1/alpha_k) f_k X_k)].

    The sum is sequential, as in the dyadic schemes, so a scheme that follows
    the same recipe matches this bit for bit.  ``f_values`` is an array
    aligned with ``alphas`` or a scalar (1.0 for the plain schemes).
    """
    alphas = np.asarray(alphas, dtype=float)
    terms = base ** (1.0 / alphas) * f_values * np.asarray(draws, dtype=float)
    return np.concatenate([[0.0], np.cumsum(terms)])


def dyadic_address(k: int, n: int) -> int:
    """Index of the dyadic rational k/2^n in lowest terms: 1 -> 0, and the
    odd numerator j at level l -> 2^(l-1) + (j-1)/2."""
    level, j = n, k
    while j % 2 == 0:
        j //= 2
        level -= 1
    return 0 if level == 0 else 2 ** (level - 1) + (j - 1) // 2


def sn_path(alphas, blocks, n: int, d: float, t):
    """Reference continuous multistable path S_n on the grid ``t``.

    ``blocks[k][j]`` holds cell k's level-j basis coefficients, shifts
    0..len - 1.  Each cell's dilated series is summed level by level at the
    active arguments and at 2^(-n-1), weighted by (2^-n)^(1/alpha_k) and
    normalized by the exact dilated scale at 2^-n.  Returns the path values,
    the per-cell level-0 bounds and the completed-cell terms.
    """
    alphas = np.asarray(alphas, dtype=float)
    t = np.asarray(t, dtype=float)
    m = 2 ** n
    weights = (2.0 ** -n) ** (1.0 / alphas)
    js = np.arange(n + 1, dtype=float)
    coef = 2.0 ** (-js * d) * 2.0 ** (js - n)
    sig = (coef[None, :] ** alphas[:, None]).sum(axis=1) ** (1.0 / alphas)
    cell_of = np.floor(np.ldexp(t, n)).astype(np.int64)
    args = t - cell_of / m
    cell_terms = np.empty(m)
    level0 = np.empty(m)
    active = np.zeros_like(t)
    for k in range(m):
        sel = np.flatnonzero((cell_of == k) & (args > 0.0))
        x = np.concatenate([args[sel] / 2.0, [2.0 ** (-n - 1)]])
        acc = np.zeros_like(x)
        for j, z in enumerate(blocks[k]):
            pos = np.ldexp(x, j)
            idx = np.minimum(np.floor(pos).astype(np.int64), z.size - 1)
            tent = np.maximum(0.0, 1.0 - np.abs(2.0 * (pos - idx) - 1.0))
            acc += 2.0 ** (-j * d) * z[idx] * tent
        cell_terms[k] = weights[k] * acc[-1] / sig[k]
        level0[k] = float(blocks[k][0][0])
        if sel.size:
            active[sel] = weights[k] * acc[:-1] / sig[k]
    prefix = np.concatenate([[0.0], np.cumsum(cell_terms)])
    return prefix[cell_of] + active, weights * np.abs(level0) / sig, cell_terms


# The Chambers-Mallows-Stuck transform as it stood before the blocked
# in-place kernel, kept word for word: the kernel must give the same bits.
ALPHA_ONE_TOLERANCE = 1e-8


def _exponential(u: np.ndarray) -> np.ndarray:
    # inverse-CDF exponential; floor keeps the (prob 2^-53) zero draw harmless
    return np.maximum(-np.log1p(-u), 1e-16)


def _angles_and_exponentials(u1: np.ndarray, u2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CMS inputs phi = pi (u1 - 1/2) and W = -ln(1 - u2)."""
    return np.pi * (u1 - 0.5), _exponential(u2)


def _sym_standard(alphas: np.ndarray, phi: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Symmetric standard CMS transform, elementwise in alpha.

    Valid for the whole range (0, 2]; alpha = 2 reduces to 2 sqrt(W) sin(phi)
    (variance 2) without a special case.  Only a neighbourhood of alpha = 1
    needs the dedicated tan(phi) branch.
    """
    out = np.empty_like(phi)
    near_one = np.abs(alphas - 1.0) < ALPHA_ONE_TOLERANCE
    if np.any(near_one):
        out[near_one] = np.tan(phi[near_one])
    rest = ~near_one
    if np.any(rest):
        a = alphas[rest]
        p = phi[rest]
        ww = w[rest]
        inv_a = 1.0 / a
        out[rest] = (np.sin(a * p) / np.cos(p) ** inv_a
                     * (np.cos((1.0 - a) * p) / ww) ** ((1.0 - a) * inv_a))
    return out


def cms_symmetric(alphas, u: np.ndarray) -> np.ndarray:
    """Symmetric standard stable variates from the (..., 2) uniform pairs
    ``u``, alphas broadcast to u.shape[:-1]: the two-step path of old."""
    alphas = np.ascontiguousarray(np.broadcast_to(alphas, u.shape[:-1]), dtype=float)
    phi, w = _angles_and_exponentials(u[..., 0].ravel(), u[..., 1].ravel())
    return _sym_standard(alphas.ravel(), phi, w).reshape(alphas.shape)


def cms_stable(a: float, sigma: float, beta: float, mu: float, u: np.ndarray) -> np.ndarray:
    """``sample_stable``'s S_alpha(sigma, beta, mu) variates from the (n, 2)
    uniform pairs ``u``, every branch as it stood."""
    n = u.shape[0]
    phi, w = _angles_and_exponentials(*u.T)

    if abs(a - 1.0) < ALPHA_ONE_TOLERANCE:
        if beta == 0.0:
            x = np.tan(phi)
        else:
            bphi = 0.5 * np.pi + beta * phi
            x = (2.0 / np.pi) * (bphi * np.tan(phi)
                                 - beta * np.log((0.5 * np.pi * w * np.cos(phi)) / bphi))
        # scaling a 1-stable law shifts the location by (2/pi) beta sigma ln sigma
        shift = (2.0 / np.pi) * beta * sigma * math.log(sigma) if sigma > 0.0 else 0.0
        return sigma * x + shift + mu

    if beta == 0.0:
        x = _sym_standard(np.full(n, a), phi, w)
    else:
        zeta = beta * math.tan(0.5 * np.pi * a)
        b0 = math.atan(zeta) / a
        scale0 = (1.0 + zeta * zeta) ** (0.5 / a)
        x = (scale0 * np.sin(a * (phi + b0)) / np.cos(phi) ** (1.0 / a)
             * (np.cos(phi - a * (phi + b0)) / w) ** ((1.0 - a) / a))
    return sigma * x + mu


def path_to_csv(path, fp, meta: dict | None = None) -> None:
    """The CSV writer of old, one ``write`` per row: the byte reference."""
    if meta:
        import json
        fp.write("# " + json.dumps(meta, sort_keys=True) + "\n")
    fp.write("t,value\n")
    for t, v in zip(path.times, path.values):
        fp.write(f"{float(t)!r},{float(v)!r}\n")


def ensemble_to_csv(paths, fp, meta: dict | None = None) -> None:
    """Long-format ``t,value,replicate`` rows of old, one ``write`` per row."""
    if meta:
        import json
        fp.write("# " + json.dumps(meta, sort_keys=True) + "\n")
    fp.write("t,value,replicate\n")
    for r, path in enumerate(paths):
        for t, v in zip(path.times, path.values):
            fp.write(f"{float(t)!r},{float(v)!r},{r}\n")


# The exponent function as it stood before every kind was stored in one
# piecewise-affine form: fields, constructors, evaluation and segments kept
# word for word (validation and the range band left out), so the new form
# can be held to the same bits.
_EDGE_TOL = 1e-12


class DomainError(ValueError):
    """Stand-in for the package's error of the same name."""


@dataclass(frozen=True)
class AlphaFunction:
    """A cadlag stability-exponent function on a closed interval.

    Supported shapes: constant value, affine ramp, piecewise-constant steps,
    piecewise-affine ramps and uniform-grid tables (step interpolation).
    Construction validates that the range stays inside (0, 2]; the attained
    band is exposed as ``a`` (infimum) and ``b`` (supremum).
    """

    kind: str
    domain: tuple[float, float] = (0.0, 1.0)
    value: float = 0.0
    intercept: float = 0.0
    slope: float = 0.0
    breaks: tuple[float, ...] = ()
    values: tuple[float, ...] = ()
    intercepts: tuple[float, ...] = ()
    slopes: tuple[float, ...] = ()
    a: float = field(init=False, default=0.0)
    b: float = field(init=False, default=0.0)

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, value: float, domain=(0.0, 1.0)) -> "AlphaFunction":
        return cls(kind="constant", domain=tuple(domain), value=float(value))

    @classmethod
    def linear(cls, intercept: float, slope: float, domain=(0.0, 1.0)) -> "AlphaFunction":
        return cls(kind="linear", domain=tuple(domain),
                   intercept=float(intercept), slope=float(slope))

    @classmethod
    def piecewise(cls, breaks: Sequence[float], values: Sequence[float],
                  domain=(0.0, 1.0)) -> "AlphaFunction":
        return cls(kind="piecewise", domain=tuple(domain),
                   breaks=tuple(float(x) for x in breaks),
                   values=tuple(float(x) for x in values))

    @classmethod
    def piecewise_linear(cls, breaks: Sequence[float], intercepts: Sequence[float],
                         slopes: Sequence[float], domain=(0.0, 1.0)) -> "AlphaFunction":
        return cls(kind="piecewise_linear", domain=tuple(domain),
                   breaks=tuple(float(x) for x in breaks),
                   intercepts=tuple(float(x) for x in intercepts),
                   slopes=tuple(float(x) for x in slopes))

    @classmethod
    def from_table(cls, values: Sequence[float], domain=(0.0, 1.0)) -> "AlphaFunction":
        return cls(kind="table", domain=tuple(domain),
                   values=tuple(float(x) for x in values))

    def __call__(self, u):
        scalar = np.isscalar(u)
        x = np.asarray(u, dtype=float)
        t0, t1 = self.domain
        if np.any(x < t0 - _EDGE_TOL) or np.any(x > t1 + _EDGE_TOL):
            raise DomainError(f"argument outside exponent domain [{t0}, {t1}]")
        x = np.clip(x, t0, t1)

        if self.kind == "constant":
            out = np.full_like(x, self.value)
        elif self.kind == "linear":
            out = self.intercept + self.slope * x
        elif self.kind == "piecewise":
            idx = np.searchsorted(np.asarray(self.breaks), x, side="right")
            out = np.asarray(self.values, dtype=float)[idx]
        elif self.kind == "piecewise_linear":
            idx = np.searchsorted(np.asarray(self.breaks), x, side="right")
            c = np.asarray(self.intercepts, dtype=float)[idx]
            m = np.asarray(self.slopes, dtype=float)[idx]
            out = c + m * x
        else:  # table: right-continuous steps on a uniform grid
            m = len(self.values)
            idx = np.clip(np.floor((x - t0) / (t1 - t0) * m).astype(int), 0, m - 1)
            out = np.asarray(self.values, dtype=float)[idx]
        return float(out) if scalar else out

    def segment(self, k: int) -> "AlphaFunction":
        """Exponent x -> alpha(x + k) restricted to the unit interval.

        Used when gluing unit-interval processes along the line.  Table
        exponents are sliced exactly when the grid aligns with integers and
        resampled at their native resolution otherwise.
        """
        t0, t1 = self.domain
        if k < t0 - _EDGE_TOL or k + 1 > t1 + _EDGE_TOL:
            raise DomainError(f"segment [{k}, {k + 1}] outside domain [{t0}, {t1}]")
        if self.kind == "constant":
            return AlphaFunction.constant(self.value)
        if self.kind == "linear":
            return AlphaFunction.linear(self.intercept + self.slope * k, self.slope)
        if self.kind in ("piecewise", "piecewise_linear"):
            new_breaks = tuple(p - k for p in self.breaks if k < p < k + 1)
            probes = (0.0, *new_breaks)
            if self.kind == "piecewise":
                vals = tuple(self(min(p + k, t1)) for p in probes)
                return AlphaFunction.piecewise(new_breaks, vals)
            src = np.searchsorted(np.asarray(self.breaks),
                                  [min(p + k, t1) for p in probes], side="right")
            cs = tuple(self.intercepts[i] + self.slopes[i] * k for i in src)
            ms = tuple(self.slopes[i] for i in src)
            return AlphaFunction.piecewise_linear(new_breaks, cs, ms)
        # table
        m = len(self.values)
        h = (t1 - t0) / m
        start = (k - t0) / h
        per_unit = 1.0 / h
        if abs(start - round(start)) < 1e-9 and abs(per_unit - round(per_unit)) < 1e-9:
            i0 = int(round(start))
            cnt = int(round(per_unit))
            return AlphaFunction.from_table(self.values[i0:i0 + cnt])
        res = max(256, int(math.ceil(per_unit)))
        xs = k + np.arange(res) / res
        return AlphaFunction.from_table(self(np.minimum(xs, t1)))


SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
              "#ff7f0e", "#8c564b", "#e377c2", "#17becf")


def svg_escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def write_svg(fp, series, title: str = "", meta: dict | None = None) -> None:
    """The point-by-point polyline writer ``cli.write_svg`` replaced: finite
    points, bounds and coordinates in Python floats.  ``meta`` must already
    be JSON-native."""
    series = [(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float), label)
              for xs, ys, label in series]
    finite = [(x, y) for xs, ys, _ in series
              for x, y in zip(xs, ys) if math.isfinite(x) and math.isfinite(y)]
    if not finite:
        raise ValueError("nothing to plot: no finite points")
    x0 = min(p[0] for p in finite)
    x1 = max(p[0] for p in finite)
    y0 = min(p[1] for p in finite)
    y1 = max(p[1] for p in finite)
    if x1 - x0 <= 0.0:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 - y0 <= 0.0:
        y0, y1 = y0 - 0.5, y1 + 0.5
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    width, height, margin = 720, 440, 60

    def sx(x: float) -> float:
        return margin + (x - x0) * (width - 2 * margin) / (x1 - x0)

    def sy(y: float) -> float:
        return height - margin - (y - y0) * (height - 2 * margin) / (y1 - y0)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">']
    if meta is not None:
        parts.append("<desc>" + svg_escape(json.dumps(meta, sort_keys=True)) + "</desc>")
    parts.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    axis = (f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
            f'y2="{height - margin}" stroke="black"/>'
            f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
            f'y2="{height - margin}" stroke="black"/>')
    parts.append(axis)
    label_style = 'font-family="monospace" font-size="11"'
    parts.append(f'<text x="{margin}" y="{height - margin + 16}" {label_style}>'
                 f'{x0:.6g}</text>')
    parts.append(f'<text x="{width - margin}" y="{height - margin + 16}" '
                 f'{label_style} text-anchor="end">{x1:.6g}</text>')
    parts.append(f'<text x="{margin - 4}" y="{height - margin}" {label_style} '
                 f'text-anchor="end">{y0:.6g}</text>')
    parts.append(f'<text x="{margin - 4}" y="{margin + 10}" {label_style} '
                 f'text-anchor="end">{y1:.6g}</text>')
    if title:
        parts.append(f'<text x="{width / 2}" y="24" font-family="monospace" '
                     f'font-size="14" text-anchor="middle">'
                     f'{svg_escape(title)}</text>')
    for i, (xs, ys, label) in enumerate(series):
        color = SVG_COLORS[i % len(SVG_COLORS)]
        pts = " ".join(f"{sx(float(x)):.2f},{sy(float(y)):.2f}"
                       for x, y in zip(xs, ys)
                       if math.isfinite(float(x)) and math.isfinite(float(y)))
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.5" points="{pts}"/>')
        if label:
            ly = margin + 14 * (i + 1)
            parts.append(f'<line x1="{width - margin - 120}" y1="{ly - 4}" '
                         f'x2="{width - margin - 100}" y2="{ly - 4}" '
                         f'stroke="{color}" stroke-width="2"/>')
            parts.append(f'<text x="{width - margin - 94}" y="{ly}" '
                         f'{label_style}>{svg_escape(str(label))}</text>')
    parts.append("</svg>")
    fp.write("\n".join(parts) + "\n")
