"""Empirical characteristic-function (ECF) machinery and the statistical
tests that turn the distributional limit claims into pass/fail checks.

Conventions shared by every test here:

- ensembles assign replicate r the stream ``stream.child(r)``, so any single
  row can be reproduced as a standalone simulation;
- ECF reductions are chunked with compensated (Kahan) combination across
  chunks, making every report bit-reproducible for a fixed seed;
- the default tolerance is 5 / sqrt(ensemble), five times the per-coordinate
  Monte-Carlo standard error of an ECF value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alpha_model import AlphaFunction, exponent_integral, grid_index
from .errors import GridResolutionError, ParameterError
from .msl_schemes import _MAX_LEVEL, li_window_ensemble, marginal_ensemble
from .stable_core import RandomStream, _check_alphas, _check_ints

_CHUNK_ELEMENTS = 2_000_000


def theta_grid_default() -> np.ndarray:
    """61 equispaced points on [-3, 3]: moderate frequencies, where stable
    CFs differ most and are still well above the Monte-Carlo noise floor."""
    return np.linspace(-3.0, 3.0, 61)


def _mean_exp(n_rows: int, n_freq: int, phases) -> np.ndarray:
    """(1/N) sum over the N rows of exp(i phases), where ``phases(a, b)`` is
    the (rows a..b-1 x frequencies) phase block.  Blocks hold about 2e6
    elements and combine with compensated (Kahan) summation."""
    acc = np.zeros(n_freq, dtype=complex)
    comp = np.zeros(n_freq, dtype=complex)
    rows = max(1, _CHUNK_ELEMENTS // max(n_freq, 1))
    for start in range(0, n_rows, rows):
        y = np.exp(1j * phases(start, start + rows)).sum(axis=0) - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
    return acc / n_rows


def empirical_cf(samples, theta_grid) -> np.ndarray:
    """(1/N) sum_j exp(i theta x_j) on the grid; exact 1 at theta = 0."""
    x = np.ascontiguousarray(samples, dtype=float).ravel()
    if x.size == 0:
        raise ParameterError("empirical CF needs at least one sample")
    th = np.ascontiguousarray(theta_grid, dtype=float).ravel()
    return _mean_exp(x.size, th.size, lambda a, b: np.outer(x[a:b], th))


def empirical_cf_joint(samples, theta_tuples) -> np.ndarray:
    """(1/N) sum_j exp(i <theta, x_j>) for row vectors x_j and a list of
    frequency tuples; the joint-law analogue of :func:`empirical_cf`."""
    x = np.ascontiguousarray(samples, dtype=float)
    if x.ndim != 2 or x.size == 0:
        raise ParameterError("joint empirical CF needs a nonempty (N, J) sample matrix")
    th = np.ascontiguousarray(theta_tuples, dtype=float)
    if th.ndim != 2 or th.shape[1] != x.shape[1]:
        raise ParameterError("frequency tuples must match the sample dimension")
    return _mean_exp(x.shape[0], th.shape[0], lambda a, b: x[a:b] @ th.T)


def _factorization_distance(samples: np.ndarray) -> float:
    """Sup distance between the joint ECF of an (N, J) sample matrix and the
    product of its J marginal ECFs, over the 13^J-point product grid on
    [-3, 3]^J.  One column gives exactly 0."""
    th = np.linspace(-3.0, 3.0, 13)
    grids = np.meshgrid(*([th] * samples.shape[1]), indexing="ij")
    joint = empirical_cf_joint(samples, np.column_stack([g.ravel() for g in grids]))
    # product CF in the same lexicographic (ij) order as the tuples
    product = empirical_cf(samples[:, 0], th)
    for axis in range(1, samples.shape[1]):
        product = (product[:, None] * empirical_cf(samples[:, axis], th)[None, :]).ravel()
    return float(np.max(np.abs(joint - product)))


@dataclass(frozen=True)
class EcfReport:
    """One ECF-versus-theory comparison on a frequency grid."""

    theta_grid: np.ndarray
    empirical: np.ndarray
    theoretical: np.ndarray
    sup_deviation: float
    mc_stderr: float
    n_samples: int
    label: str = ""

    def _limit(self, tolerance: float | None = None) -> float:
        return 5.0 * self.mc_stderr if tolerance is None else tolerance

    def passes(self, tolerance: float | None = None) -> bool:
        return bool(self.sup_deviation < self._limit(tolerance))


def ecf_report(samples, theoretical, theta_grid=None, label: str = "") -> EcfReport:
    """Compare samples against a theoretical CF (callable on theta or an
    array of values aligned with the grid)."""
    th = theta_grid_default() if theta_grid is None else np.ascontiguousarray(theta_grid, dtype=float)
    if th.size == 0:
        raise ParameterError("theta grid must hold at least one frequency")
    emp = empirical_cf(samples, th)
    theo = np.asarray([theoretical(t) for t in th], dtype=complex) if callable(theoretical) \
        else np.ascontiguousarray(theoretical, dtype=complex)
    if theo.size != th.size:
        raise ParameterError("theoretical CF values must align with the grid")
    n = np.asarray(samples).size
    return EcfReport(theta_grid=th, empirical=emp, theoretical=theo,
                     sup_deviation=float(np.max(np.abs(emp - theo))),
                     mc_stderr=1.0 / np.sqrt(n), n_samples=int(n), label=label)


def spearman_corr(xs, ys) -> float:
    """Spearman rank correlation (average ranks on ties), used for
    monotone-trend verdicts that must be robust to Monte-Carlo jitter."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size != y.size or x.size < 2:
        raise ParameterError("need two equally long vectors of length >= 2")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ParameterError("Spearman correlation needs finite values")
    rx, ry = _average_ranks(x), _average_ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.sqrt((rx ** 2).sum() * (ry ** 2).sum())
    if denom == 0.0:
        return 0.0
    return float((rx * ry).sum() / denom)


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks of v, ties sharing the mean of their ranks: a run of c
    equal values ending at sorted position k (1-based) ranks k - (c - 1)/2."""
    _, group, counts = np.unique(v, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - 0.5 * (counts - 1))[group]


# ---------------------------------------------------------------------------
# increment CF convergence
# ---------------------------------------------------------------------------

def _increments(scheme: str, af: AlphaFunction, n: int, intervals, ensemble: int,
                stream: RandomStream) -> np.ndarray:
    """Matrix (ensemble x len(intervals)) of path increments L(u2) - L(u1),
    one column per interval (u1, u2), all read from one marginal ensemble."""
    ivs = [(float(a), float(b)) for a, b in intervals]
    if not ivs or any(not (0.0 <= a <= b <= 1.0) for a, b in ivs):
        raise ParameterError("need at least one interval (u1, u2), 0 <= u1 <= u2 <= 1")
    us = sorted({v for iv in ivs for v in iv})
    col = {v: i for i, v in enumerate(us)}
    values = marginal_ensemble(scheme, af, n, us, ensemble, stream)
    return np.column_stack([values[:, col[b]] - values[:, col[a]] for a, b in ivs])


def increment_cf_test(scheme: str, af: AlphaFunction, n: int, intervals,
                      ensemble: int, stream: RandomStream) -> list[EcfReport]:
    """Per interval (u1, u2): ECF of the path increment L(u2) - L(u1)
    against the limit CF exp(-integral_{u1}^{u2} |theta|^alpha(s) ds)."""
    n = _check_ints(n, 1, None, "dyadic level n")
    ensemble = _check_ints(ensemble, 1000, None, "ensemble size")
    incs = _increments(scheme, af, n, intervals, ensemble, stream)
    return [ecf_report(incs[:, i], lambda t: np.exp(-exponent_integral(af, t, u1, u2)),
                       label=f"{scheme}[{u1},{u2}]")
            for i, (u1, u2) in enumerate(intervals)]


# ---------------------------------------------------------------------------
# localisability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalisabilityReport:
    """Deviation-vs-radius trend of rescaled increments around one point."""

    x: float
    u: float
    alpha_x: float
    r_list: tuple
    deviations: tuple
    spearman: float
    final_deviation: float
    tolerance: float
    passed: bool


def localisability_test(af: AlphaFunction, x: float, u: float, r_list, n: int,
                        ensemble: int, stream: RandomStream,
                        tolerance: float = 0.05) -> LocalisabilityReport:
    """Check that (L(x + r u) - L(x)) / r^(1/alpha(x)) approaches the law of
    an alpha(x)-stable motion at time u as r shrinks.

    Pass requires the sup-CF deviation to trend downward along the
    decreasing radii (positive Spearman correlation of deviation against r)
    and the final deviation to beat the tolerance.
    """
    rs = [float(r) for r in r_list]
    if not (len(rs) >= 2 and all(r1 > r2 for r1, r2 in zip(rs, rs[1:])) and rs[-1] > 0.0):
        raise ParameterError("radii must be at least two, strictly decreasing and positive")
    if not (u > 0.0 and x >= 0.0 and x + rs[0] * u <= 1.0):
        raise ParameterError("window x + r*u must stay inside [0, 1]")
    if not tolerance > 0.0:
        raise ParameterError(f"tolerance must be positive, got {tolerance}")
    n = _check_ints(n, 1, _MAX_LEVEL, "dyadic level n")
    smallest_span = rs[-1] * u
    if smallest_span < 2.0 ** (-n + 2):
        need = int(np.ceil(2.0 - np.log2(smallest_span)))
        raise GridResolutionError(
            f"radius {rs[-1]} spans fewer than 4 grid cells at level {n}; "
            f"the smallest resolving level is n = {need}")
    th = theta_grid_default()
    alpha_x = float(af(x))
    k0 = grid_index(n, x)
    offsets = [grid_index(n, x + r * u) - k0 for r in rs]
    window = li_window_ensemble(af, n, k0, offsets, ensemble, stream)
    deviations = []
    for i, r in enumerate(rs):
        samples = window[:, i] / r ** (1.0 / alpha_x)
        theo = np.exp(-u * np.abs(th) ** alpha_x).astype(complex)
        rep = ecf_report(samples, theo, th, label=f"r={r}")
        deviations.append(rep.sup_deviation)
    rho = spearman_corr(deviations, rs)
    final = deviations[-1]
    return LocalisabilityReport(
        x=float(x), u=float(u), alpha_x=alpha_x, r_list=tuple(rs),
        deviations=tuple(deviations), spearman=rho, final_deviation=final,
        tolerance=float(tolerance), passed=bool(rho > 0.0 and final < tolerance))


# ---------------------------------------------------------------------------
# tightness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TightnessReport:
    """Joint two-sided increment exceedance versus the explicit product
    bound C(gamma) * lambda^(-2 gamma) * (u2 - u1)^2."""

    triple: tuple
    lambdas: tuple
    empirical: tuple
    bounds: tuple
    gammas: tuple
    n: int
    ensemble: int
    zero_width: bool
    passed: bool


def tightness_bound_constant(gamma: float) -> float:
    """Each one-sided tail obeys P(|increment| >= lambda) <=
    (2^(gamma+1)/(gamma+1)) * lambda^(-gamma) * (interval length); the joint
    bound is the product of the two independent sides.  gamma is a
    stability index, so it must lie in (0, 2]."""
    _check_alphas(gamma)
    return 2.0 ** (gamma + 1.0) / (gamma + 1.0)


def tightness_check(scheme: str, af: AlphaFunction, triple, lambdas, n: int,
                    ensemble: int, stream: RandomStream) -> TightnessReport:
    u1, u, u2 = (float(v) for v in triple)
    lams = [float(l) for l in lambdas]
    if not (lams and all(l > 0.0 for l in lams)):
        raise ParameterError("lambdas must hold at least one exceedance level, each positive")
    zero_width = (u2 - u1) < 2.0 ** -n
    left, right = np.abs(_increments(scheme, af, n, [(u1, u), (u, u2)], ensemble, stream)).T
    empirical, bounds, gammas = [], [], []
    for lam in lams:
        emp = float(np.mean((left >= lam) & (right >= lam)))
        gamma = af.a if lam >= 2.0 else af.b
        c = tightness_bound_constant(gamma) ** 2
        bounds.append(c * lam ** (-2.0 * gamma) * (u2 - u1) ** 2)
        gammas.append(gamma)
        empirical.append(emp)
    ok = all(e <= b for e, b in zip(empirical, bounds))
    if zero_width:
        ok = ok and all(e == 0.0 for e in empirical)
    return TightnessReport(triple=(u1, u, u2), lambdas=tuple(lams),
                           empirical=tuple(empirical), bounds=tuple(bounds),
                           gammas=tuple(gammas), n=n, ensemble=ensemble,
                           zero_width=zero_width, passed=bool(ok))


# ---------------------------------------------------------------------------
# increment independence (factorization)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FactorizationReport:
    """Sup distance between the joint increment ECF and the product of the
    marginal ECFs over a product frequency grid."""

    intervals: tuple
    distance: float
    threshold: float
    mc_stderr: float
    ensemble: int
    passed: bool


def factorization_test(scheme: str, af: AlphaFunction, intervals, n: int,
                       ensemble: int, stream: RandomStream) -> FactorizationReport:
    ivs = [(float(a), float(b)) for a, b in intervals]
    if len(ivs) < 2:
        # one column factorises exactly, so its distance 0 would check nothing
        raise ParameterError(f"need at least two intervals to compare, got {len(ivs)}")
    ordered = sorted(ivs)
    for (_, b1), (a2, _) in zip(ordered, ordered[1:]):
        if a2 < b1 - 1e-15:
            raise ParameterError(f"intervals overlap near {a2}; they must be disjoint")
    distance = _factorization_distance(_increments(scheme, af, n, ivs, ensemble, stream))
    stderr = 1.0 / np.sqrt(ensemble)
    return FactorizationReport(intervals=tuple(ivs), distance=distance,
                               threshold=4.0 * stderr, mc_stderr=stderr,
                               ensemble=ensemble,
                               passed=bool(distance < 4.0 * stderr))
