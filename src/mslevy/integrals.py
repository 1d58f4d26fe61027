"""Integrals against the multistable random measure: weighted-sum sampling,
independence diagnostics, stochastic Hoelder bounds, weighted multistable
paths, and strong-localisability checks for kernel families.

The sampling rule mirrors the dyadic scheme: one draw of the integral of f
is sum_{k=1..2^n} (2^-n)^(1/alpha(k/2^n)) f(k/2^n) X(k,n), which makes
integrals of indicator slices coincide bitwise with path values of the
discrete scheme under the same stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .alpha_model import (AlphaFunction, IntegrandFunction, _cells, _left_sum, _probe_grid,
                          modular_integral, quasinorm)
from .errors import DomainError, ParameterError, QuadratureError
from .msl_schemes import _MAX_LEVEL, PathGrid, _grid_path, _weighted_sums
from .quadrature import gauss_kronrod
from .stable_core import RandomStream, _check_ints
from .verify_stats import _factorization_distance

_NULL_SET_TOL = 1e-12
_SCAN_PANELS = 4096


def half_open_indicator(lo: float, hi: float) -> IntegrandFunction:
    """Indicator of (lo, hi]; differs from the closed indicator only on a
    null set but keeps grid supports disjoint in weighted sums."""
    if not (0.0 <= lo < hi <= 1.0):
        raise ParameterError(f"need 0 <= lo < hi <= 1, got ({lo}, {hi})")

    def fn(x):
        x = np.asarray(x, dtype=float)
        return ((x > lo) & (x <= hi)).astype(float)

    return IntegrandFunction(fn, (lo, hi), f"indicator({lo},{hi}]", steps=True)


@dataclass(frozen=True)
class KernelFunction:
    """Two-argument kernel f(t, x), t in [0, 1], as a family of x-slices."""

    slice_fn: Callable[[float], IntegrandFunction]

    def slice(self, t: float) -> IntegrandFunction:
        t = float(t)
        if not 0.0 <= t <= 1.0:
            raise DomainError(f"a kernel slice time must lie in [0, 1], got {t}")
        return self.slice_fn(t)

    @classmethod
    def running_indicator(cls) -> "KernelFunction":
        """f(t, x) = 1 on [0, t]: the kernel whose integrals are the path."""
        return cls.weighted_running(IntegrandFunction.constant(1.0))

    @classmethod
    def weighted_running(cls, w: IntegrandFunction) -> "KernelFunction":
        """f(t, x) = w(x) on [0, t], 0 beyond: the weighted-path kernel."""

        def make(t: float) -> IntegrandFunction:
            def fn(x):
                x = np.asarray(x, dtype=float)
                return w._values(x) * (x <= t)

            return IntegrandFunction(fn, (*w.breakpoints, t),
                                     f"{w.label}*1[0,{t}]", steps=w.steps)

        return cls(make)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def sample_integral(f: IntegrandFunction, af: AlphaFunction, n: int,
                    stream: RandomStream) -> float:
    """One draw of the weighted-sum approximation to the integral of f.

    Summation is sequential over the grid so that integrals of indicator
    slices reproduce discrete-scheme path values bit for bit under the same
    stream.
    """
    n = _check_ints(n, 1, _MAX_LEVEL, "dyadic level n")
    return float(_weighted_sums(af, 2 ** n, stream, 2.0 ** -n, fs=[f])[0, -1])


def integral_ensemble(f: IntegrandFunction, af: AlphaFunction, n: int,
                      ensemble: int, stream: RandomStream) -> np.ndarray:
    """Independent draws of the integral, replicate r under stream.child(r)."""
    return joint_integral_ensemble([f], af, n, ensemble, stream)[:, 0]


def joint_integral_ensemble(fs, af: AlphaFunction, n: int, ensemble: int,
                            stream: RandomStream) -> np.ndarray:
    """Matrix (ensemble x len(fs)) of integral draws where every column of a
    row shares the same underlying stable draws — the joint law of several
    integrals against one realisation of the random measure."""
    n = _check_ints(n, 1, _MAX_LEVEL, "dyadic level n")
    ensemble = _check_ints(ensemble, 1, None, "ensemble size")
    fs = list(fs)
    if not fs:
        raise ParameterError("need at least one integrand")
    return _weighted_sums(af, 2 ** n, stream, 2.0 ** -n, fs=fs, cols=[2 ** n],
                          replicates=ensemble)[..., 0]


def weighted_mslm(w: IntegrandFunction, af: AlphaFunction, n: int,
                  stream: RandomStream) -> PathGrid:
    """Path of integrals of w over growing windows [0, k/2^n]: the
    weighted multistable motion.  w = 1 reproduces the plain scheme path
    bitwise under the same stream."""
    n = _check_ints(n, 1, _MAX_LEVEL, "dyadic level n")
    return _grid_path(_weighted_sums(af, 2 ** n, stream, 2.0 ** -n, fs=[w])[0])


# ---------------------------------------------------------------------------
# independence
# ---------------------------------------------------------------------------

def overlap_measure(f1: IntegrandFunction, f2: IntegrandFunction) -> float:
    """Lebesgue measure of {x : f1(x) f2(x) != 0}.

    Exact for step functions (one decision per cell, at its midpoint);
    otherwise each cell between declared breakpoints is scanned at 4096
    midpoints.  A result below 1e-12 counts as a null set.
    """
    edges, mids = _cells(0.0, 1.0, (*f1.breakpoints, *f2.breakpoints))
    if f1.steps and f2.steps:
        hits = (f1(mids) * f2(mids) != 0.0).tolist()
        return _left_sum(hi - lo for lo, hi, hit in zip(edges, edges[1:], hits) if hit)
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        scan = lo + (hi - lo) * (np.arange(_SCAN_PANELS) + 0.5) / _SCAN_PANELS
        hits = np.count_nonzero(np.asarray(f1(scan)) * np.asarray(f2(scan)))
        total += (hi - lo) * hits / _SCAN_PANELS
    return total


def _hypothesis(f1: IntegrandFunction, f2: IntegrandFunction, af: AlphaFunction) -> str:
    """The hypothesis under which disjoint supports of f1 and f2 are
    equivalent to independence of their integrals, or "none"."""
    if af.b < 2.0 - 1e-12:
        return "exponent-below-2"
    xs = _probe_grid((*f1.breakpoints, *f2.breakpoints))
    if np.min(np.asarray(f1(xs)) * np.asarray(f2(xs))) >= -1e-12:
        return "nonnegative-product"
    return "none"


@dataclass(frozen=True)
class IndependenceReport:
    """Analytic (support overlap) and empirical (ECF factorization)
    independence diagnostics for a pair of integrands."""

    applicable: bool
    hypothesis: str
    overlap: float
    analytic_independent: bool | None
    distance: float | None
    threshold: float | None
    empirical_independent: bool | None
    ensemble: int
    verdict: str


def independence_test(f1: IntegrandFunction, f2: IntegrandFunction,
                      af: AlphaFunction, stream: RandomStream, n: int = 12,
                      ensemble: int = 10_000) -> IndependenceReport:
    """Decide independence of the two integrals.

    The disjoint-support criterion is an equivalence only when the exponent
    stays below 2 or when f1 f2 >= 0 a.e.; outside both hypothesis branches
    the verdict is "inapplicable".  The analytic verdict (overlap measure
    zero) is authoritative; the ECF factorization distance over the joint
    ensemble is reported as the empirical witness.
    """
    overlap = overlap_measure(f1, f2)
    hypothesis = _hypothesis(f1, f2, af)
    if hypothesis == "none":
        return IndependenceReport(applicable=False, hypothesis="none",
                                  overlap=overlap, analytic_independent=None,
                                  distance=None, threshold=None,
                                  empirical_independent=None,
                                  ensemble=0, verdict="inapplicable")
    draws = joint_integral_ensemble([f1, f2], af, n, ensemble, stream)
    distance = _factorization_distance(draws)
    threshold = 4.0 / math.sqrt(ensemble)
    analytic = overlap < _NULL_SET_TOL
    return IndependenceReport(
        applicable=True, hypothesis=hypothesis, overlap=overlap,
        analytic_independent=analytic, distance=distance, threshold=threshold,
        empirical_independent=bool(distance < threshold), ensemble=ensemble,
        verdict="independent" if analytic else "dependent")


@dataclass(frozen=True)
class PairwiseReport:
    """Joint independence of a family decided pair by pair."""

    overlaps: tuple
    offending: tuple
    applicable: bool
    independent: bool


def pairwise_independence(fs, af: AlphaFunction) -> PairwiseReport:
    """Joint independence holds iff every pair has null-set overlap; the
    family criterion reduces to the pairwise one."""
    fs = list(fs)
    if len(fs) < 2:
        raise ParameterError(f"need at least two integrands to compare, got {len(fs)}")
    overlaps, offending = [], []
    applicable = True
    for i in range(len(fs)):
        for k in range(i + 1, len(fs)):
            if _hypothesis(fs[i], fs[k], af) == "none":
                applicable = False
            ov = overlap_measure(fs[i], fs[k])
            overlaps.append((i, k, ov))
            if ov >= _NULL_SET_TOL:
                offending.append((i, k, ov))
    return PairwiseReport(overlaps=tuple(overlaps), offending=tuple(offending),
                          applicable=applicable,
                          independent=applicable and not offending)


# ---------------------------------------------------------------------------
# stochastic Hoelder continuity
# ---------------------------------------------------------------------------

def hoelder_tail_constant(C: float, a: float, b: float, x: float) -> float:
    """The explicit constant C * (x/(a+1) + 2^(b+1)/((b+1) x^b)) from the
    truncation-at-x bound on the increment tail."""
    if not 0.0 <= C < math.inf:
        raise ParameterError(f"energy constant C must be finite and >= 0, got {C}")
    if not x > 0.0:
        raise ParameterError(f"the truncation point must be positive, got {x}")
    return C * (x / (a + 1.0) + 2.0 ** (b + 1.0) / ((b + 1.0) * x ** b))


@dataclass(frozen=True)
class HoelderPairResult:
    t: float
    v: float
    energy: float
    energy_bound: float
    energy_ok: bool
    tail_prob: float
    tail_bound: float
    tail_ok: bool


@dataclass(frozen=True)
class HoelderReport:
    eta: float
    C: float
    beta: float
    pairs: tuple
    all_pass: bool


def hoelder_bound_check(kernel: KernelFunction, af: AlphaFunction, eta: float,
                        C: float, beta: float, pairs, stream: RandomStream,
                        n: int = 12, ensemble: int = 10_000) -> HoelderReport:
    """Stochastic Hoelder check for the process t -> integral of f(t, .).

    Per pair (t, v): (i) verify the kernel energy bound
    integral |f(t,s) - f(v,s)|^alpha(s) ds <= C |t - v|^eta, and (ii) compare
    the Monte-Carlo tail P(|X(t) - X(v)| >= |t-v|^beta) against the explicit
    one-sided bound C_{a,b} |t-v|^(eta - b beta).
    """
    hoelder_tail_constant(C, af.a, af.b, 1.0)  # checks C before any quadrature or draw
    if not (0.0 < beta < 1.0 and beta < eta / af.b):
        raise ParameterError(
            f"beta must lie in (0, min(1, eta/b)) = (0, {min(1.0, eta / af.b)})")
    pairs = [(float(t), float(v)) for t, v in pairs]
    if not pairs:
        raise ParameterError("pairs must hold at least one (t, v) pair")
    deltas = [kernel.slice(t) - kernel.slice(v) for t, v in pairs]  # times checked before any draw
    results = []
    for i, ((t, v), delta) in enumerate(zip(pairs, deltas)):
        gap = abs(t - v)
        energy = modular_integral(delta, af)
        energy_bound = C * gap ** eta
        if gap == 0.0:
            results.append(HoelderPairResult(t, v, energy, 0.0, energy <= 1e-15,
                                             0.0, 0.0, True))
            continue
        x = gap ** beta
        tail_bound = hoelder_tail_constant(C, af.a, af.b, x) * gap ** (eta - af.b * beta)
        draws = integral_ensemble(delta, af, n, ensemble, stream.child(i))
        tail_prob = float(np.mean(np.abs(draws) >= x))
        results.append(HoelderPairResult(
            t=t, v=v, energy=energy, energy_bound=energy_bound,
            energy_ok=bool(energy <= energy_bound * (1.0 + 1e-9)),
            tail_prob=tail_prob, tail_bound=tail_bound,
            tail_ok=bool(tail_prob <= tail_bound)))
    return HoelderReport(eta=float(eta), C=float(C), beta=float(beta),
                         pairs=tuple(results),
                         all_pass=all(r.energy_ok and r.tail_ok for r in results))


def weight_sup_constant(w: IntegrandFunction, af: AlphaFunction) -> float:
    """sup over [0,1] of |w(x)|^alpha(x) — the constant governing the
    weighted kernel's energy bound."""
    xs = _probe_grid((*w.breakpoints, *af.breaks))
    vals = np.abs(np.asarray(w(xs), dtype=float)) ** np.asarray(af(np.clip(xs, *af.domain)))
    out = float(np.max(vals))
    if not math.isfinite(out):
        raise ParameterError("the weight's variable-exponent sup is not finite")
    return out


# ---------------------------------------------------------------------------
# strong localisability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StrongLocReport:
    """Slope diagnostics of the rescaled kernel increments around x."""

    x: float
    alpha_x: float
    r_list: tuple
    eta_by_r: tuple
    const_by_r: tuple
    quasinorm_eta_by_r: tuple
    eta_mean: float
    eta_spread: float
    lhs_table: tuple
    failures: tuple
    required_eta: float
    verdict: str


def strong_localisability_check(kernel: KernelFunction, af: AlphaFunction,
                                x: float, r_list, pairs,
                                independent_increments: bool = False,
                                with_quasinorm: bool = True) -> StrongLocReport:
    """Evaluate the rescaled-increment energies

        E(r, t, v) = integral |(f(x + r t, s) - f(x + r v, s)) / r^(1/alpha(x))|^alpha(s) ds

    and fit E ~ const * |t - v|^eta per radius by log-log least squares.
    The sufficient condition for strong localisability asks eta > 1, relaxed
    to eta > 1/2 when the process has independent increments; the fitted
    exponent must also be stable across radii (spread < 0.1).  The stricter
    quasinorm variant of the same increments is fitted alongside.
    """
    rs = [float(r) for r in r_list]
    if not (rs and all(r > 0.0 for r in rs)):
        raise ParameterError("r_list must hold at least one radius, and radii must be positive")
    ts = [float(t) for pair in pairs for t in pair]
    if not (ts and all(t >= 0.0 for t in ts)):
        raise ParameterError("pairs must hold at least one pair, and pair times must be "
                             "nonnegative")
    if not (0.0 <= x <= 1.0 and x + max(rs) * max(ts) <= 1.0 + 1e-12):
        raise ParameterError("window x + r*t must stay inside [0, 1]")
    alpha_x = float(af(x))
    eta_by_r, const_by_r, q_eta_by_r = [], [], []
    lhs_table, failures = [], []
    for r in rs:
        scale = r ** (-1.0 / alpha_x)
        gaps, energies, qnorms = [], [], []
        row = []
        for t, v in pairs:
            delta = (kernel.slice(x + r * t) - kernel.slice(x + r * v)).scaled(scale)
            try:
                energy = modular_integral(delta, af)
            except QuadratureError:
                energy = math.nan
            row.append(energy)
            if not math.isfinite(energy):
                failures.append((r, t, v, "quadrature failure"))
                continue
            if abs(t - v) > 0.0 and energy > 0.0:
                gaps.append(abs(t - v))
                energies.append(energy)
                if with_quasinorm:
                    qnorms.append(quasinorm(delta, af))
        lhs_table.append(tuple(row))
        if len(energies) >= 2:
            slope, intercept = np.polyfit(np.log(gaps), np.log(energies), 1)
            eta_by_r.append(float(slope))
            const_by_r.append(float(np.exp(intercept)))
            if with_quasinorm:
                q_slope, _ = np.polyfit(np.log(gaps), np.log(qnorms), 1)
                q_eta_by_r.append(float(q_slope))
        else:
            eta_by_r.append(float("nan"))
            const_by_r.append(float("nan"))
    finite = [e for e in eta_by_r if math.isfinite(e)]
    required = 0.5 if independent_increments else 1.0
    if not finite:
        verdict = "degenerate"
        mean = spread = float("nan")
    else:
        mean = float(np.mean(finite))
        spread = float(np.max(finite) - np.min(finite))
        if spread >= 0.1:
            verdict = "unstable-fit"
        elif mean > required:
            verdict = "strongly-localisable"
        else:
            verdict = "not-established"
    return StrongLocReport(
        x=float(x), alpha_x=alpha_x, r_list=tuple(rs), eta_by_r=tuple(eta_by_r),
        const_by_r=tuple(const_by_r), quasinorm_eta_by_r=tuple(q_eta_by_r),
        eta_mean=mean, eta_spread=spread, lhs_table=tuple(lhs_table),
        failures=tuple(failures), required_eta=required, verdict=verdict)


# ---------------------------------------------------------------------------
# tail bound from a characteristic function
# ---------------------------------------------------------------------------

def billingsley_bound(cf_handle: Callable[[float], float], lam: float) -> float:
    """Tail bound P(|X| >= lam) <= (lam/2) integral_{-2/lam}^{2/lam}
    (1 - CF(theta)) dtheta for a symmetric (real-CF) law.  ``cf_handle``
    takes one float; it is called once per quadrature node."""
    if not 0.0 < lam < math.inf:
        raise ParameterError(f"threshold must be positive and finite, got {lam}")

    def one_minus_cf(ths: np.ndarray) -> np.ndarray:
        return np.array([1.0 - float(cf_handle(th)) for th in ths.tolist()])

    edge = 2.0 / lam
    value = gauss_kronrod(one_minus_cf, -edge, edge, abs_tol=1e-14, breakpoints=(0.0,))
    return 0.5 * lam * value
