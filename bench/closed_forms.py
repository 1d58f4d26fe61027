"""Closed forms the benchmark checks mslevy against.  They are computed here,
independently of the package, from the formulas alone."""

from __future__ import annotations

import math

import numpy as np


def power_integral(base: float, c: float, m: float, u1: float, u2: float) -> float:
    """integral_{u1}^{u2} |base|^(c + m s) ds
    = (|base|^(c + m u2) - |base|^(c + m u1)) / (m ln|base|),
    written with expm1 so it stays exact as m ln|base| -> 0."""
    b = abs(float(base))
    if u2 <= u1 or b == 0.0:
        return 0.0
    k = m * math.log(b)
    if k == 0.0:
        return (u2 - u1) * b ** c
    return b ** (c + m * u1) * math.expm1(k * (u2 - u1)) / k


def piecewise_power_integral(base: float, pieces, u1: float, u2: float) -> float:
    """The same integral under a piecewise-linear exponent given as
    (lo, hi, intercept, slope) pieces."""
    total = 0.0
    for lo, hi, c, m in pieces:
        a, b = max(lo, u1), min(hi, u2)
        if b > a:
            total += power_integral(base, c, m, a, b)
    return total


def nodal_pieces(edges, nodes) -> list[tuple[float, float, float, float]]:
    """Pieces of the continuous piecewise-linear exponent through
    (edges[i], nodes[i])."""
    out = []
    for (lo, hi), (va, vb) in zip(zip(edges, edges[1:]), zip(nodes, nodes[1:])):
        slope = (vb - va) / (hi - lo)
        out.append((lo, hi, va - slope * lo, slope))
    return out


def li_exponent(pieces, times, thetas) -> float:
    """-log of the limiting motion's joint CF at ``times``: the exponent
    integral of |sum_j theta_j 1[0, t_j](s)| split at the times."""
    ts = np.asarray(times, dtype=float)
    th = np.asarray(thetas, dtype=float)
    edges = sorted(set(ts.tolist()) | {0.0})
    return sum(piecewise_power_integral(float(th[ts >= hi].sum()), pieces, lo, hi)
               for lo, hi in zip(edges, edges[1:]))


def step_modular(values, pieces, lam: float = 1.0, extra_breaks=()) -> float:
    """integral_0^1 |f(x)/lam|^alpha(x) dx for a right-continuous step
    function with ``values`` on a uniform grid of [0, 1]."""
    vals = np.asarray(values, dtype=float)
    m = vals.size
    edges = sorted({0.0, 1.0, *(i / m for i in range(1, m)), *extra_breaks})
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        v = vals[min(int(0.5 * (lo + hi) * m), m - 1)] / lam
        total += piecewise_power_integral(v, pieces, lo, hi)
    return total


def step_cf_exponent(theta_ind: float, ind_hi: float, theta_tab: float, table,
                     pieces) -> float:
    """-log of the joint CF of the integrals of 1[0, ind_hi] and a uniform
    step table: the exponent integral of the step function
    theta_ind 1[0, ind_hi] + theta_tab table."""
    tab = np.asarray(table, dtype=float)
    m = tab.size
    edges = sorted({0.0, 1.0, ind_hi, *(i / m for i in range(1, m))})
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        mid = 0.5 * (lo + hi)
        g = theta_ind * (mid <= ind_hi) + theta_tab * tab[min(int(mid * m), m - 1)]
        total += piecewise_power_integral(g, pieces, lo, hi)
    return total


def discrete_sum_cf(thetas, alphas, n: int) -> np.ndarray:
    """Exact CF of sum_k (2^-n)^(1/alpha_k) X_k for independent symmetric
    standard alpha_k-stable X_k: exp(-2^-n sum_k |theta|^alpha_k)."""
    th = np.abs(np.asarray(thetas, dtype=float))[:, None]
    a = np.asarray(alphas, dtype=float)[None, :]
    return np.exp(-(2.0 ** -n) * (th ** a).sum(axis=1)).astype(complex)


def stable_cf(alpha: float, beta: float, thetas) -> np.ndarray:
    """CF of the standard S_alpha(1, beta, 0) law (at alpha = 1 only for beta = 0)."""
    th = np.asarray(thetas, dtype=float)
    skew = 1.0 - 1j * beta * np.sign(th) * math.tan(0.5 * math.pi * alpha)
    return np.exp(-np.abs(th) ** alpha * skew)


def mean_cf(alphas, thetas) -> np.ndarray:
    """Expected ECF of independent symmetric standard stable draws with
    indices ``alphas``: the average of their CFs."""
    th = np.abs(np.asarray(thetas, dtype=float))[:, None]
    return np.exp(-th ** np.asarray(alphas, dtype=float)[None, :]).mean(axis=1)


def ecf(samples, thetas) -> np.ndarray:
    x = np.asarray(samples, dtype=float)
    return np.exp(1j * np.outer(np.asarray(thetas, dtype=float), x)).mean(axis=1)


def billingsley_exponential(lam: float) -> float:
    """(lam/2) integral_{-2/lam}^{2/lam} (1 - e^{-|t|}) dt."""
    return 2.0 - lam * -math.expm1(-2.0 / lam)


def lf_n_sum(b: float, u: float, theta: float, n: int) -> float:
    """The naive scheme's exponent under the plateau-identity exponent
    alpha(x) = max(b/2, x), summed directly."""
    m = 2 ** n
    count = int(math.floor(m * u + 1e-12))
    alphas = np.maximum(b / 2.0, np.arange(1, count + 1, dtype=float) / m)
    a_u = max(b / 2.0, u)
    return float(np.sum(abs(theta) ** alphas * (2.0 ** -n) ** (alphas / a_u)))
