"""Continuous symmetric stable processes built from the dyadic triangle
(tent) basis, the scale parameter of their marginals, and the continuous
multistable approximation that chains one such process per dyadic cell.

The process at truncation level J is
    X_J(t) = sum_{j=0..J} sum_k 2^(-jd) Z_jk phi(2^j t - k),
with i.i.d. symmetric alpha-stable Z_jk and the tent function phi.  Within
one level the tents have disjoint interiors, which yields exact identities
(level-increment sup norms, scale values at dyadic points) this module and
its tests rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .alpha_model import AlphaFunction, _cell_alphas
from .errors import DomainError, ParameterError
from .msl_schemes import _MAX_LEVEL, PathGrid, _partial_sums
from .stable_core import (RandomStream, _check_alphas, _check_ints, _cms, _row_chunks,
                          _uniform_pairs, sample_symmetric)

_TAG_LEVEL = 0x1E7E1
_TAG_CELL = 0xCE11

_SERIES_TAIL_TOL = 1e-14


@dataclass(frozen=True)
class ContinuousStableConfig:
    """Triangle-series process parameters: stability index, basis decay
    exponent and inclusive truncation level.

    The uniform-convergence regime needs d > 1/alpha; the boundary case
    d = 1/alpha only gives moment (L^p) convergence and must be requested
    explicitly via ``lp_mode``.
    """

    alpha: float
    d: float
    levels: int = 16
    lp_mode: bool = False

    def __post_init__(self) -> None:
        _check_alphas(self.alpha)
        object.__setattr__(self, "levels", _check_ints(self.levels, 0, None, "truncation level"))
        floor = 1.0 / self.alpha
        if self.lp_mode:
            if not self.d >= floor - 1e-12:
                raise ParameterError(
                    f"moment mode needs d >= 1/alpha = {floor}, got d = {self.d}")
        elif not self.d > floor:
            raise ParameterError(
                f"continuous regime needs d > 1/alpha = {floor}, got d = {self.d}"
                " (pass lp_mode=True to allow the boundary case)")


def truncation_level(alpha: float, d: float, sup_tol: float) -> int:
    """Truncation level whose deterministic tail bound is below ``sup_tol``.

    Level j contributes at most 2^(-jd) * max_k |Z_jk|, and the level max
    grows like 2^(jc) for any c > 1/alpha; with c midway between 1/alpha
    and d the tail sum_{j>J} 2^(j(c-d)) is geometric.
    """
    ContinuousStableConfig(alpha, d)  # alpha in (0, 2] and d > 1/alpha
    if not 0.0 < sup_tol < math.inf:
        raise ParameterError(f"tolerance must be positive and finite, got {sup_tol}")
    c = 0.5 * (1.0 / alpha + d)
    q = 2.0 ** (c - d)
    j = math.ceil(math.log(sup_tol * (1.0 - q)) / math.log(q)) - 1
    return max(int(j), 0)


def triangle(t):
    """Tent function: 2t on [0, 1/2), 2 - 2t on [1/2, 1], 0 elsewhere."""
    arr = np.asarray(t, dtype=float)
    out = np.maximum(0.0, 1.0 - np.abs(2.0 * arr - 1.0))
    return float(out) if np.isscalar(t) or arr.ndim == 0 else out


def triangle_jk(j: int, k: int, t):
    """Dyadic tent phi(2^j t - k), supported on [k/2^j, (k+1)/2^j]."""
    if j < 0:
        raise DomainError(f"level must be >= 0, got {j}")
    if not (0 <= k <= 2 ** j - 1):
        raise DomainError(f"shift {k} out of range [0, 2^{j} - 1]")
    arr = np.asarray(t, dtype=float)
    out = triangle(np.ldexp(arr, j) - k)
    return float(out) if np.isscalar(t) or arr.ndim == 0 else out


def stable_level_draws(alpha: float, j: int, stream: RandomStream,
                       count: int | None = None) -> np.ndarray:
    """The basis coefficients Z_{j,0..count-1} of one level.

    Each level owns a child stream and draws are laid out by shift index,
    so asking for a shorter prefix (or re-asking at a higher truncation
    level) returns the same leading values.
    """
    j = _check_ints(j, 0, None, "level j")
    count = _check_ints(2 ** j if count is None else count, 1, 2 ** j, "coefficient count")
    return sample_symmetric(np.full(count, float(alpha)), stream.child(_TAG_LEVEL, j))


def _check_grid(t_grid) -> np.ndarray:
    """A time grid of the triangle-series samplers as a float array: it
    must start at 0, increase strictly (NaN fails) and end at most at 1."""
    t = np.ascontiguousarray(t_grid, dtype=float)
    if not (t.size and t[0] == 0.0 and np.all(np.diff(t) > 0.0)):
        raise ParameterError("t_grid must start at 0 and increase strictly")
    if not t[-1] <= 1.0:
        raise DomainError("t_grid must stay inside [0, 1]")
    return t


def sample_continuous_stable(cfg: ContinuousStableConfig, t_grid,
                             stream: RandomStream) -> PathGrid:
    """Evaluate one draw of the truncated triangle series on ``t_grid``.

    The grid must start at 0 (where every tent vanishes, so the path does
    too) and stay inside [0, 1].  Draws are addressed per level, so the same
    stream at a higher truncation level refines this path rather than
    replacing it.
    """
    t = _check_grid(t_grid)
    values = np.zeros_like(t)
    for j in range(cfg.levels + 1):
        pos = np.ldexp(t, j)
        idx = np.minimum(np.floor(pos).astype(np.int64), 2 ** j - 1)
        z = stable_level_draws(cfg.alpha, j, stream, int(idx.max()) + 1)
        values += 2.0 ** (-j * cfg.d) * z[idx] * triangle(pos - idx)
    return PathGrid(times=t, values=values)


def _scale_alpha_series(alpha: float, d: float, t: np.ndarray) -> np.ndarray:
    """sum_j (2^(-jd) phi_j(t))^alpha, summed until the geometric tail
    bound sum_{j>J} 2^(-j alpha d) drops below 1e-14."""
    q = 2.0 ** (-alpha * d)
    total = np.zeros_like(t)
    j = 0
    while q ** (j + 1) / (1.0 - q) >= _SERIES_TAIL_TOL or j == 0:
        pos = np.ldexp(t, j)
        idx = np.minimum(np.floor(pos).astype(np.int64), 2 ** j - 1)
        total += (2.0 ** (-j * d) * triangle(pos - idx)) ** alpha
        j += 1
    return total


def scale_parameter(cfg: ContinuousStableConfig, t):
    """Scale of the series marginal at time t (its CF is
    exp(-scale^alpha |theta|^alpha)); exactly 0 at t = 0 and 1 at t = 1/2."""
    arr = np.asarray(t, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise DomainError("scale parameter is defined on [0, 1]")
    out = _scale_alpha_series(cfg.alpha, cfg.d, np.atleast_1d(arr)) ** (1.0 / cfg.alpha)
    return float(out[0]) if np.isscalar(t) or arr.ndim == 0 else out.reshape(arr.shape)


def scale_bounds(cfg: ContinuousStableConfig, t):
    """The envelope (phi(t), (1 - 2^(-alpha d))^(-1/alpha)) of the scale
    parameter, sound for every admissible (alpha, d).

    The lower bound comes from the level-0 term alone: scale^alpha >=
    phi(t)^alpha.  It is attained at t = 1/2, where the scale is 1.  The
    upper bound holds because every level contributes at most
    2^(-j alpha d) to scale^alpha, a geometric series.

    The displayed lower bound phi(t)^(1/alpha) is never stronger: phi <= 1
    gives phi^(1/alpha) <= phi once alpha <= 1, and for alpha > 1 it fails
    near t in {0, 1/2, 1} (by about 8.3e-3 at alpha = 1.5, d = 1).
    """
    lower = triangle(t)
    upper = (1.0 - 2.0 ** (-cfg.alpha * cfg.d)) ** (-1.0 / cfg.alpha)
    return lower, upper


def max_deviation_probability(alpha: float, c: float, j: int, n_mc: int,
                              stream: RandomStream) -> float:
    """Monte-Carlo estimate of P(max_{k < 2^j} |Z_jk| > 2^(jc)).

    The level max governs the a.s. convergence rate of the series: for
    c > 1/alpha the probability decays like 2^(-j(alpha c - 1)).
    """
    if not (0.0 < alpha < 2.0):
        raise ParameterError(f"the tail rate needs alpha in (0, 2), got {alpha}")
    if not c > 1.0 / alpha:
        raise ParameterError(f"need c > 1/alpha = {1.0 / alpha}, got {c}")
    j = _check_ints(j, 0, None, "level j")
    n_mc = _check_ints(n_mc, 1, None, "n_mc")
    m = 2 ** j
    threshold = 2.0 ** (j * c)
    block = max(1, 2_000_000 // m)
    exceed = 0
    for b, lo in enumerate(range(0, n_mc, block)):
        z = _cms(stream.child(j, b), float(alpha), out=np.empty(min(block, n_mc - lo) * m))
        exceed += int(np.sum(np.max(np.abs(z.reshape(-1, m)), axis=1) > threshold))
    return exceed / n_mc


# ---------------------------------------------------------------------------
# continuous multistable approximation
# ---------------------------------------------------------------------------
#
# One independent triangle-series process per dyadic cell, time-dilated to
# X~(t) = X(t/2) so its scale stays positive on (0, 1].  The path value is
#
#   S_n(u) = sum_{k < floor(2^n u)} w_k X~_k(2^-n) / s_k
#            + w_K X~_K(u - K/2^n) / s_K,        K = floor(2^n u),
#
# with weights w_k = (2^-n)^(1/alpha(k/2^n)) and the fixed normalizer
# s_k = scale of X~_k at 2^-n, so each completed-cell summand has unit
# scale and the path is continuous across cell boundaries.


@dataclass(frozen=True)
class SnDiagnostics:
    """Per-cell witnesses used by the continuity checks: the normalized
    magnitude of each cell's level-0 coefficient and the completed-cell
    contributions."""

    level0_bound: np.ndarray
    cell_terms: np.ndarray


def _sn_cell_block_sizes(n: int, levels: int) -> list[int]:
    # Level j needs shifts 0..floor(2^(j-n-1)) to cover arguments in
    # [0, 2^(-n-1)]; the count is fixed by (n, j) alone so that every
    # evaluation consumes the same draws in the same order.
    return [(2 ** j) // (2 ** (n + 1)) + 1 for j in range(levels + 1)]


def _sn_cell_draws(alphas: np.ndarray, stream: RandomStream, count: int,
                   cells: np.ndarray, rows=None) -> np.ndarray:
    """The first ``count`` coefficients of the streams
    stream.child(_TAG_CELL, k) of the cells k in ``cells``, as a
    (cells, count) array, or with replicate ``rows`` (rows, cells, count)
    under stream.child(r, _TAG_CELL, k); all of them are one batched read."""
    path = (_TAG_CELL, cells) if rows is None else (rows[:, None], _TAG_CELL, cells)
    return _cms(_uniform_pairs(stream, count, *path), alphas[cells][:, None])


def _sigma_tilde_boundary(alphas: np.ndarray, d: float, n: int) -> np.ndarray:
    """Exact dilated scale at argument 2^-n, summed by chunks of cells: only the
    shift-0 tents of levels j <= n are active there, with values 2^(j-n)."""
    js = np.arange(n + 1, dtype=float)
    coef = 2.0 ** (-js * d) * 2.0 ** (js - n)
    return np.concatenate([(coef[None, :] ** alphas[cells, None]).sum(axis=1) for cells
                           in _row_chunks(alphas.size, coef.size)]) ** (1.0 / alphas)


def _sn_cells(n: int, af: AlphaFunction, d: float, levels: int):
    """Validated per-cell set-up shared by :func:`simulate_sn` and
    :func:`sn_boundary_ensemble`: the checked integers n and levels, the
    exponents alpha(k/2^n), the weights (2^-n)^(1/alpha) and the dilated
    scales at 2^-n, k = 0..2^n - 1."""
    n = _check_ints(n, 1, _MAX_LEVEL, "dyadic level n")
    levels = _check_ints(levels, n, None, f"truncation level for cell width 2^-{n}")
    t0, t1 = af.domain
    if t0 != 0.0 or t1 < 1.0:
        raise ParameterError("the exponent function must cover [0, 1]")
    alphas = _cell_alphas(af, 2 ** n, 0, 2 ** n)
    if not d > 1.0 / float(np.min(alphas)):
        raise ParameterError(
            f"continuous regime needs d > 1/alpha on every cell; d = {d} fails")
    return n, levels, alphas, (2.0 ** -n) ** (1.0 / alphas), _sigma_tilde_boundary(alphas, d, n)


def _cell_terms(z: np.ndarray, weights, sig, d: float, n: int) -> np.ndarray:
    """The completed-cell terms w_k X~_k(2^-n) / s_k from the cells' draws z
    (cells on the second-to-last axis): at 2^-n only the shift-0 tents of
    levels j <= n are active, with values 2^(j-n), so n + 1 draws suffice."""
    xt = np.zeros(z.shape[:-1])
    for j in range(n + 1):
        xt += 2.0 ** (-j * d) * z[..., j] * 2.0 ** (j - n)
    return weights * xt / sig


def simulate_sn(n: int, af: AlphaFunction, stream: RandomStream, t_grid,
                d: float = 1.0, levels: int = 16, with_diagnostics: bool = False):
    """One draw of the continuous multistable approximation on ``t_grid``.

    Requires ``levels >= n`` so the per-cell normalizer (which the dilation
    turns into a finite sum over levels 0..n) matches the scale of the
    truncated series exactly, making each completed-cell summand exactly
    unit-scale stable.
    """
    n, levels, alphas, weights, sig = _sn_cells(n, af, d, levels)
    t = _check_grid(t_grid)
    m = 2 ** n
    cell_of = np.floor(np.ldexp(t, n)).astype(np.int64)
    args = t - cell_of / m
    sel = np.flatnonzero(args > 0.0)
    sel_cells = cell_of[sel]
    sizes = _sn_cell_block_sizes(n, levels)
    count, firsts = sum(sizes), [sum(sizes[:j]) for j in range(levels + 1)]
    cell_terms = np.empty(m)
    level0 = np.empty(m)
    active = np.zeros_like(t)
    # each cell's dilated series is read at its mesh points inside the cell;
    # its stream holds the level blocks of ``sizes`` back to back.  Cells are
    # drawn in chunks, which bounds the draws held at once.
    for cells in _row_chunks(m, count):
        lo, hi = np.searchsorted(sel_cells, [cells[0], cells[-1] + 1])
        mesh, at = sel[lo:hi], sel_cells[lo:hi]
        half = args[mesh] / 2.0
        z = _sn_cell_draws(alphas, stream, count, cells)
        row = at - cells[0]
        acc = np.zeros_like(half)
        for j, (first, size) in enumerate(zip(firsts, sizes)):
            pos = np.ldexp(half, j)
            idx = np.minimum(np.floor(pos).astype(np.int64), size - 1)
            acc += 2.0 ** (-j * d) * z[row, first + idx] * triangle(pos - idx)
        active[mesh] = weights[at] * acc / sig[at]
        cell_terms[cells] = _cell_terms(z, weights[cells], sig[cells], d, n)
        level0[cells] = z[:, 0]
    path = PathGrid(times=t, values=_partial_sums(cell_terms, 1.0, cell_of) + active)
    if not with_diagnostics:
        return path
    diag = SnDiagnostics(level0_bound=weights * np.abs(level0) / sig,
                         cell_terms=cell_terms)
    return path, diag


def sn_boundary_ensemble(n: int, af: AlphaFunction, stream: RandomStream,
                         boundary_ks, ensemble: int, d: float = 1.0,
                         levels: int = 16) -> np.ndarray:
    """Matrix (ensemble x len(boundary_ks)) of S_n values at the cell
    boundaries k/2^n, bit-identical to full simulate_sn runs under
    stream.child(replicate).

    At a boundary only the shift-0 coefficients of levels 0..n enter, and
    those are exactly the first n+1 draw pairs of each cell's stream, so
    the ensemble touches a short prefix of every cell stream instead of
    evaluating whole paths.
    """
    ensemble = _check_ints(ensemble, 1, None, "ensemble size")
    n, _, alphas, weights, sig = _sn_cells(n, af, d, levels)
    m = 2 ** n
    ks = _check_ints(boundary_ks, 0, m, "boundary indices")
    out = np.empty((ensemble, ks.size))
    for rows in _row_chunks(ensemble, m * (n + 1)):
        z = _sn_cell_draws(alphas, stream, n + 1, np.arange(m), rows)
        out[rows] = _partial_sums(_cell_terms(z, weights, sig, d, n), 1.0, ks)
    return out
