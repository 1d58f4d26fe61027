"""Quadrature with explicit breakpoint splits.

All integrands in this package are smooth between a known finite set of
discontinuities/kinks (step functions of the exponent, tabulated integrands,
indicator edges), so the interval is first split into panels at those
points.  :func:`gauss_kronrod` integrates a vectorised integrand on 15-point
Gauss-Kronrod cells, evaluating every open cell's nodes in one call per
round; :func:`adaptive_simpson` is the scalar recursive rule it replaced.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np

from .errors import ParameterError, QuadratureError

_DEFAULT_REL_TOL = 1e-10
_MAX_DEPTH = 48

# QUADPACK's qk15 rule (Piessens et al., 1983) on [-1, 1] for x >= 0: the
# Kronrod nodes, their weights, and the weights of the 7-point Gauss rule
# whose nodes are the odd-indexed Kronrod nodes below
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245, 0.0)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
_NODES = np.array([-x for x in _XGK[:-1]] + list(_XGK[::-1]))
_KRONROD = np.array(_WGK[:-1] + _WGK[::-1])
_GAUSS = np.zeros(15)
_GAUSS[1::2] = _WG + _WG[-2::-1]
# A cell halved 40 times is 2^-40 of its panel, its 15 nodes a few
# hundred ulps apart: further halving mostly resolves rounding
_MAX_ROUNDS = 40
# open cells in one round (15 nodes each) past which a non-converging
# integrand fails instead of doubling its node array again
_MAX_CELLS = 1 << 14


def split_points(a: float, b: float, breakpoints: Iterable[float]) -> list[float]:
    """Sorted panel boundaries: a, b plus interior breakpoints."""
    pts = {float(a), float(b)}
    for p in breakpoints:
        p = float(p)
        if a < p < b:
            pts.add(p)
    return sorted(pts)


def _simpson(fa: float, fm: float, fb: float, h: float) -> float:
    return h / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(f: Callable[[float], float], a: float, m: float, b: float,
              fa: float, fm: float, fb: float, whole: float,
              tol: float, depth: int) -> float:
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(fa, flm, fm, m - a)
    right = _simpson(fm, frm, fb, b - m)
    delta = left + right - whole
    if not math.isfinite(delta):
        return math.inf
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    return (_adaptive(f, a, lm, m, fa, flm, fm, left, 0.5 * tol, depth - 1)
            + _adaptive(f, m, rm, b, fm, frm, fb, right, 0.5 * tol, depth - 1))


def adaptive_simpson(f: Callable[[float], float], a: float, b: float, *,
                     rel_tol: float = _DEFAULT_REL_TOL,
                     abs_tol: float = 0.0,
                     breakpoints: Iterable[float] = ()) -> float:
    """Integrate a scalar f over [a, b], splitting panels at ``breakpoints``.

    The tolerance is relative to a rough first-pass estimate of the whole
    integral (with ``abs_tol`` as an absolute floor); a non-finite integrand
    propagates to an infinite result rather than raising.  A branch that
    reaches depth 48 returns its estimate without a word, over tolerance
    or not.  The package integrates with :func:`gauss_kronrod`; this rule
    stays as the reference the tests compare against, and because the
    benchmark's tracer (``bench/tracer.py``) wraps it by name.
    """
    if b < a:
        raise ParameterError("integration bounds must satisfy a <= b")
    if b == a:
        return 0.0
    pts = split_points(a, b, breakpoints)

    panels = []
    rough = 0.0
    magnitude = 0.0
    for lo, hi in zip(pts, pts[1:]):
        mid = 0.5 * (lo + hi)
        flo, fmid, fhi = f(lo), f(mid), f(hi)
        whole = _simpson(flo, fmid, fhi, hi - lo)
        panels.append((lo, mid, hi, flo, fmid, fhi, whole))
        rough += whole
        magnitude += (hi - lo) * max(abs(flo), abs(fmid), abs(fhi))
    if not math.isfinite(rough):
        return math.inf

    # the relative tolerance is anchored to the integral's magnitude (not
    # its possibly-cancelling value); abs_tol floors the tolerance itself,
    # which keeps cancelling integrands from demanding unreachable accuracy
    scale = max(abs(rough), magnitude, 1e-300)
    width = b - a
    total = 0.0
    for lo, mid, hi, flo, fmid, fhi, whole in panels:
        # the panel's share is formed first: tolerance * (hi - lo) would
        # underflow to 0 on panels near 1e-308 wide, never to be met
        tol = max(rel_tol * scale, abs_tol) * ((hi - lo) / width)
        total += _adaptive(f, lo, mid, hi, flo, fmid, fhi, whole, tol, _MAX_DEPTH)
    return total


def gk_nodes(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Half-widths of the cells [lo, hi] and their 15 Gauss-Kronrod nodes,
    one row per cell.  Every round of :func:`gauss_kronrod` forms its nodes
    here, so a caller that evaluates f ahead on the first round's (those of
    the :func:`split_points` panels) holds the same bytes."""
    half = 0.5 * (hi - lo)
    return half, (lo + half)[:, None] + half[:, None] * _NODES


def gauss_kronrod(f: Callable[[np.ndarray], np.ndarray], a: float, b: float, *,
                  abs_tol: float = 0.0,
                  breakpoints: Iterable[float] = ()) -> float:
    """Integrate a vectorised f over [a, b] on 15-point Gauss-Kronrod cells.

    The cells start as the panels between ``breakpoints``.  Each round calls
    f once, on a 1-d array of the 15 nodes of every open cell (from
    :func:`gk_nodes`), and f may return one value for all of them; a cell's
    estimate is its Kronrod sum and its error |K15 - G7|.  The tolerance is
    max(1e-10 * scale, abs_tol), where ``scale`` is the first round's
    estimate of the integral of |f|, as in :func:`adaptive_simpson`.  A cell
    whose error is within its share (hi - lo)/(b - a) of the tolerance is
    kept, the others are halved for the next round, and the result is
    returned once the errors of the kept and open cells sum to at most the
    tolerance.  That sum stops the cell at an end-point cusp such as
    sqrt(x), whose error ~ h^(3/2) meets its share ~ h only far below 2^-40
    of the panel.  A non-finite estimate gives an infinite result; cells
    still over tolerance after 40 halvings, or a round that would open more
    than 2^14 cells, raise :class:`QuadratureError`; a NaN or negative
    ``abs_tol`` raises :class:`ParameterError`.
    """
    if not -math.inf < a <= b < math.inf:
        raise ParameterError(f"integration bounds must be finite with a <= b, got [{a}, {b}]")
    if not abs_tol >= 0.0:
        raise ParameterError(f"abs_tol must be >= 0, got {abs_tol}")
    if b == a:
        return 0.0
    edges = np.asarray(split_points(a, b, breakpoints))
    lo, hi = edges[:-1], edges[1:]
    width = b - a
    tol = total = spent = 0.0
    add = np.add.reduce
    for rounds in range(_MAX_ROUNDS + 1):
        half, x = gk_nodes(lo, hi)
        fx = np.asarray(f(x.ravel()), dtype=float)
        fx = (np.broadcast_to(fx, x.size) if fx.size < x.size else fx).reshape(x.shape)
        # add.reduce is the ufunc behind ndarray.sum, without its wrapper
        kronrod = half * add(fx * _KRONROD, axis=1)
        if not np.isfinite(kronrod).all():
            return math.inf
        estimate = float(add(kronrod))
        if rounds == 0:
            scale = max(abs(estimate), float(add(half * add(np.abs(fx) * _KRONROD, axis=1))),
                        1e-300)
            tol = max(_DEFAULT_REL_TOL * scale, abs_tol)
        err = np.abs(kronrod - half * add(fx * _GAUSS, axis=1))
        if spent + float(add(err)) <= tol:
            return total + estimate
        # the share is formed first: tol * (hi - lo) would underflow to 0
        # on cells near 1e-308 wide, never to be met
        kept = err <= tol * ((hi - lo) / width)
        total += float(add(kronrod[kept]))
        spent += float(add(err[kept]))
        lo, hi = lo[~kept], hi[~kept]
        if rounds == _MAX_ROUNDS or lo.size > _MAX_CELLS // 2:
            break
        mid = lo + 0.5 * (hi - lo)
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
    raise QuadratureError(
        f"Gauss-Kronrod missed its tolerance {tol:.3g} on {lo.size} cells of "
        f"[{a}, {b}], the widest {float(np.max(hi - lo)):.3g}")
