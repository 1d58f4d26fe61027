"""Composite adaptive Simpson quadrature with explicit breakpoint splits.

All integrands in this package are smooth between a known finite set of
discontinuities/kinks (step functions of the exponent, tabulated integrands,
indicator edges), so splitting the panels at those points and running the
classical adaptive Simpson rule with Richardson extrapolation inside each
panel is both fast and accurate.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

from .errors import ParameterError

_DEFAULT_REL_TOL = 1e-10
_MAX_DEPTH = 48


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
    """Integrate f over [a, b], splitting panels at ``breakpoints``.

    The tolerance is relative to a rough first-pass estimate of the whole
    integral (with ``abs_tol`` as an absolute floor); a non-finite integrand
    propagates to an infinite result rather than raising.
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
