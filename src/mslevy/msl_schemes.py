"""Weighted-sum approximation schemes for multistable Levy motion on the
dyadic grid, whole-line gluing, and the classical stable FCLT sum.

All three unit-interval schemes share the same symmetric stable draws
X(k, n); they differ only in the deterministic or arrival-driven weights:

- field-local weights (2^-n)^(1/alpha(k/2^n)) summed to floor(2^n u),
- the same weights summed to the floor of the floor(2^n u)-th Poisson
  arrival time (summand exponents clamped at the right endpoint),
- shared-arrival weights (1/Gamma_{2^n})^(1/alpha(k/2^n)).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .alpha_model import AlphaFunction, _cell_alphas, _cell_times, grid_index
from .errors import ParameterError
from .stable_core import (RandomStream, _check_alphas, _check_ints, _child_ids, _cms,
                          _exponential, _generators, _row_chunks, _uniform_pairs)

# substream tags (arbitrary fixed constants; see RandomStream.child)
_TAG_ARRIVALS = 0xA121
_TAG_SEGMENT = 0x5E6
_TAG_DYADIC = 0xD1AD


@dataclass(frozen=True)
class PathGrid:
    """A sampled path: strictly increasing times starting at 0 and the
    matching values with value 0 at time 0."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        t = np.ascontiguousarray(self.times, dtype=float)
        v = np.ascontiguousarray(self.values, dtype=float)
        if t.size == 0 or t.size != v.size:
            raise ParameterError("times and values must be non-empty and equally long")
        if t[0] != 0.0 or v[0] != 0.0:
            raise ParameterError("paths start at (0, 0)")
        if not np.all(t[1:] > t[:-1]):
            raise ParameterError("times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return int(self.times.size)


@dataclass(frozen=True)
class SchemeConfig:
    """Configuration of one dyadic-level simulation run.

    ``nested`` switches the fresh-draw convention to draw reuse by dyadic
    address, so refining n keeps the draws already attached to coarser grid
    points.
    """

    n: int
    af: AlphaFunction
    stream: RandomStream
    nested: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _check_ints(self.n, 1, _MAX_LEVEL, "dyadic level n"))


_MAX_LEVEL = 26


def _grid_path(values: np.ndarray) -> PathGrid:
    """The path of m + 1 values on the uniform grid k/m, k = 0..m."""
    m = values.size - 1
    return PathGrid(times=_cell_times(m, 0, m + 1), values=values)


def _dyadic_addresses(n: int) -> np.ndarray:
    """Enumerate the dyadic rationals k/2^n, k = 1..2^n, in lowest terms:
    1 -> 0 and the level-l odd numerators j -> 2^(l-1) + (j-1)/2."""
    k = np.arange(1, 2 ** n + 1, dtype=np.int64)
    tz = np.frexp((k & -k).astype(float))[1] - 1
    level = n - tz
    return np.where(level == 0, 0, (1 << np.maximum(level - 1, 0)) + ((k >> tz) - 1) // 2)


def _symmetric_draws(alphas: np.ndarray, stream: RandomStream, m: int, nested: bool,
                     rows=None, out: np.ndarray | None = None) -> np.ndarray:
    """The draws X_k of the first alphas.size cells, written into ``out``
    if given: one stream's, or with ``rows`` one row per replicate r under
    stream.child(r).  Nested draws (m = 2^n) are attached to the dyadic
    addresses of k/m instead of (k, n) pairs, so X(2k, n+1) reuses X(k, n)
    exactly."""
    if nested:
        path = (_TAG_DYADIC, _dyadic_addresses(m.bit_length() - 1)[:alphas.size])
        if rows is not None:
            path = (rows[:, None], *path)
        u = _uniform_pairs(stream, 1, *path)[..., 0, :]
    elif rows is None:
        u = stream
    else:
        u = _uniform_pairs(stream, alphas.size, rows)
    return _cms(u, alphas, out=out)


def _weights(alphas: np.ndarray, base, fs, m: int, first: int) -> np.ndarray:
    """base^(1/alpha_k) f(x_k) as (integrands x cells), or (rows x 1 x
    cells) for a column of per-replicate bases, at the cell times x_k of
    ``_cell_times(m, first, alphas.size)``, built only for integrands."""
    weights = np.divide(1.0, alphas)
    if np.ndim(base):
        weights = base ** weights
    else:
        # numpy's power reads a broadcast scalar by gather, at twice the
        # cost of a contiguous operand and with the same bits
        np.power(np.full(alphas.shape, base), weights, out=weights)
    weights = weights[..., None, :]
    if fs is not None:
        xs = _cell_times(m, first, alphas.size)
        weights = weights * np.stack([f._values(xs) for f in fs])
    return weights


def _partial_sums(prefix: np.ndarray, cols, terms=None) -> np.ndarray:
    """[0, cumsum(X_k)] along the last axis, formed in ``prefix`` from the
    terms X in its [..., 1:] (in place) or in ``terms``, at the indices
    ``cols``: all (the buffer itself) when None, one row per replicate when
    2-D."""
    prefix[..., 0] = 0.0
    np.cumsum(prefix[..., 1:] if terms is None else terms, axis=-1, out=prefix[..., 1:])
    if cols is None:
        return prefix
    if np.ndim(cols) == 2:
        return np.take_along_axis(prefix, cols[:, None, :], axis=-1)
    return prefix[..., cols]


def _weighted_sums(af, m: int, stream: RandomStream, base, fs=None, start: int = 0,
                   count: int | None = None, cols=None, nested: bool = False,
                   replicates: int | None = None) -> np.ndarray:
    """The weighted-sum kernel behind every scheme, integral and ensemble.

    Over the cells x_k = min((start + k)/m, 1), k = 1..count (default m),
    it takes the exponents alpha_k = af(x_k) and, per integrand f in ``fs``
    (f = 1 when None), the weights w_k = base^(1/alpha_k) f(x_k).  It
    returns the matrix (integrands x columns) of the partial sums S_0 = 0,
    S_j = sum_{k <= j} w_k X_k at the indices ``cols`` (all count + 1 of
    them when None), where X is ``sample_symmetric(alphas, stream)``, or
    drawn by dyadic address when ``nested`` (m = 2^n, start = 0).

    With ``replicates`` = R it returns one such matrix per replicate r,
    drawn under stream.child(r), as an (R, integrands, columns) array: the
    replicates are read in batched chunks, each drawing only the cells up
    to its largest column.  ``base`` may then hold one value and ``cols``
    one index row per replicate.  The sum is sequential, so integrals of
    indicator slices reproduce path values bit for bit, and a replicate's
    row equals the single-stream run under its child stream.
    """
    count = m if count is None else count
    alphas = _cell_alphas(af, m, start + 1, count)
    if replicates is None:
        # the draws go straight into the path, which is weighted and summed
        # in place: a long path holds alphas, the weights and itself
        weights = _weights(alphas, base, fs, m, start + 1)
        prefix = np.empty((weights.shape[0], count + 1))
        _symmetric_draws(alphas, stream, m, nested, out=prefix[0, 1:])
        prefix[1:, 1:] = prefix[0, 1:]  # the same draws for every integrand
        prefix[:, 1:] *= weights
        return _partial_sums(prefix, cols)
    cols = np.asarray(cols)
    per_row = np.ndim(base) == 1
    weights = None if per_row else _weights(alphas, base, fs, m, start + 1)
    out = np.empty((replicates, 1 if fs is None else len(fs), cols.shape[-1]))
    for rows in _row_chunks(replicates, count):
        row_cols = cols[rows] if cols.ndim == 2 else cols
        need = int(row_cols.max())
        x = _symmetric_draws(alphas[:need], stream, m, nested, rows)[:, None, :]
        if per_row:
            w = _weights(alphas[:need], base[rows][:, None], fs, m, start + 1)
        else:
            w = weights[:, :need]
        terms = w * x
        out[rows] = _partial_sums(np.empty(terms.shape[:-1] + (need + 1,)), row_cols, terms)
        del terms
    return out


def _scheme_values(scheme: str, cfg: SchemeConfig, cols=None,
                   replicates: int | None = None,
                   gamma_value: float | None = None) -> np.ndarray:
    """Values of one scheme's path at the grid indices ``cols`` (all when
    None): one path under cfg.stream, or with ``replicates`` = R an
    (R, columns) matrix, replicate r under cfg.stream.child(r)."""
    n, m, stream, af = cfg.n, 2 ** cfg.n, cfg.stream, cfg.af
    if scheme == "li":
        return _weighted_sums(af, m, stream, 2.0 ** -n, cols=cols, nested=cfg.nested,
                              replicates=replicates)[..., 0, :]
    if scheme == "lc":
        if gamma_value is None:
            # numpy's gamma sampler is not counter-addressed: one C
            # generator per arrival stream
            lead = () if replicates is None else (np.arange(replicates),)
            ids = _child_ids(stream.stream_id, *lead, _TAG_ARRIVALS)
            gammas = np.array([gen.gamma(shape=m) for gen in _generators(stream.seed, ids)])
        else:
            gammas = np.array([gamma_value])
        if not np.all(gammas > 0.0):
            raise ParameterError(f"arrival total must be positive, got {gammas.min()}")
        base = float(1.0 / gammas[0]) if replicates is None else 1.0 / gammas
        return _weighted_sums(af, m, stream, base, cols=cols, nested=cfg.nested,
                              replicates=replicates)[..., 0, :]
    if cfg.nested:
        raise ParameterError("the lr scheme sums past 2^n cells, which have no "
                             "dyadic address; nested draws need li or lc")
    # column k of ``summed`` counts the summands of the value at k/2^n
    if replicates is None:
        summed = _arrival_counts(stream, m, cols)
    else:
        summed = np.concatenate([_arrival_counts(stream, m, cols, rows)
                                 for rows in _row_chunks(replicates, m)])
    return _weighted_sums(af, m, stream, 2.0 ** -n, count=int(summed.max()), cols=summed,
                          replicates=replicates)[..., 0, :]


def _arrival_counts(stream: RandomStream, m: int, cols, *lead) -> np.ndarray:
    """[0, floor(Gamma_1), ..., floor(Gamma_m)] at the indices ``cols`` (all
    when None), the arrivals drawn as poisson_arrivals(1, m,
    stream.child(*lead, _TAG_ARRIVALS)) for every index of ``lead``, which
    gives the leading shape."""
    u = _uniform_pairs(stream, m, *lead, _TAG_ARRIVALS)
    prefix = np.empty(u.shape[:-2] + (m + 1,))
    _exponential(u[..., 1], out=prefix[..., 1:])
    del u
    summed = _partial_sums(prefix, cols)
    return np.floor(summed, out=summed).astype(int)


def simulate_li(cfg: SchemeConfig) -> PathGrid:
    """Field-local weighted-sum path on the dyadic grid k/2^n."""
    return _grid_path(_scheme_values("li", cfg))


def simulate_lr(cfg: SchemeConfig) -> PathGrid:
    """Arrival-driven variant: the value at k/2^n sums the first
    floor(Gamma_k) weighted draws, where Gamma_k is the k-th unit-rate
    arrival time drawn from a dedicated substream.

    Summand indices may exceed 2^n, so the exponent argument is clamped to
    min(j/2^n, 1); a Gamma_k below 1 leaves the value at exactly 0.  Those
    summands have no dyadic address, so nested draws are rejected.
    """
    return _grid_path(_scheme_values("lr", cfg))


def simulate_lc(cfg: SchemeConfig, gamma_value: float | None = None) -> PathGrid:
    """Shared-arrival variant: every summand is weighted by
    (1/Gamma)^(1/alpha(k/2^n)) with one Gamma for the whole path (the
    2^n-th unit-rate arrival time, drawn as a Gamma(2^n, 1) variate from the
    dedicated arrival substream).

    ``gamma_value`` overrides the draw; with gamma_value = 2^n the path
    coincides exactly with the field-local scheme under the same stream.
    numpy's gamma sampler cannot be addressed by counter, so every path,
    also inside a batched ensemble, draws its Gamma as its own
    ``generator()`` would, from one C generator re-keyed per path.
    """
    return _grid_path(_scheme_values("lc", cfg, gamma_value=gamma_value))


def glue_whole_line(af: AlphaFunction, n: int, stream: RandomStream) -> PathGrid:
    """Concatenate independent unit-interval paths into one path on [0, T].

    Segment k runs the field-local scheme under the shifted exponent
    x -> alpha(x + k) and an independent substream; integer grid points
    carry the running sum of completed segment endpoints.
    """
    t0, t1 = af.domain
    if t0 != 0.0 or abs(t1 - round(t1)) > 1e-12 or t1 < 1.0:
        raise ParameterError("whole-line gluing needs an exponent domain [0, T], T integer >= 1")
    segments = int(round(t1))
    times = [np.zeros(1)]
    values = [np.zeros(1)]
    offset = 0.0
    for k in range(segments):
        seg = simulate_li(SchemeConfig(n=n, af=af.segment(k),
                                       stream=stream.child(_TAG_SEGMENT, k)))
        times.append(k + seg.times[1:])
        values.append(offset + seg.values[1:])
        offset += float(seg.values[-1])
    return PathGrid(times=np.concatenate(times), values=np.concatenate(values))


def simulate_stable_fclt(alpha: float, n_terms: int, stream: RandomStream) -> PathGrid:
    """Partial-sum path sum_{k <= floor(n u)} n^(-1/alpha) Y_k of i.i.d.
    symmetric alpha-stable draws on the grid u = k/n."""
    n_terms = _check_ints(n_terms, 1, None, "n_terms")
    alpha = float(alpha)
    _check_alphas(alpha)  # before n^(-1/alpha) is formed
    path = np.empty(n_terms + 1)
    _cms(stream, alpha, out=path[1:])
    # X_k times n^(-1/alpha), not times (1/n)^(1/alpha), which rounds
    # differently: the bits the weighted-sum kernel gave with base 1 and the
    # constant integrand n^(-1/alpha), as 1^(1/alpha) = 1 and 1 c = c exactly
    path[1:] *= n_terms ** (-1.0 / alpha)
    return _grid_path(_partial_sums(path, None))


# ---------------------------------------------------------------------------
# ensemble drivers (replicate r draws from stream.child(r))
# ---------------------------------------------------------------------------

def marginal_ensemble(scheme: str, af: AlphaFunction, n: int, us, ensemble: int,
                      stream: RandomStream, nested: bool = False) -> np.ndarray:
    """Matrix (ensemble x len(us)) of scheme path values at the times ``us``.

    Replicate r runs the scheme under stream.child(r), so the row equals the
    corresponding single-path run exactly; replicates are drawn in batched
    chunks.
    """
    if scheme not in ("li", "lr", "lc"):
        raise ParameterError(f"unknown scheme {scheme!r}; expected one of ['lc', 'li', 'lr']")
    ensemble = _check_ints(ensemble, 1, None, "ensemble size")
    if len(us) == 0:
        raise ParameterError("need at least one evaluation time")
    if any(not 0.0 <= u <= 1.0 for u in us):
        raise ParameterError("evaluation times must lie in [0, 1]")
    cfg = SchemeConfig(n=n, af=af, stream=stream, nested=nested)
    idx = np.asarray([grid_index(cfg.n, u) for u in us], dtype=int)
    return _scheme_values(scheme, cfg, cols=idx, replicates=ensemble)


def li_window_ensemble(af: AlphaFunction, n: int, k0: int, cell_offsets, ensemble: int,
                       stream: RandomStream) -> np.ndarray:
    """Matrix (ensemble x len(cell_offsets)) of field-local increments
    L(k0/2^n + c/2^n) - L(k0/2^n) for each cell count c.

    Simulates only the window of cells actually spanned, which keeps large
    levels affordable for increment statistics.
    """
    n = _check_ints(n, 1, _MAX_LEVEL, "dyadic level n")
    ensemble = _check_ints(ensemble, 1, None, "ensemble size")
    m = 2 ** n
    k0 = _check_ints(k0, 0, m - 1, "window start k0")
    offs = _check_ints(cell_offsets, 1, m - k0, "cell offsets")
    if offs.size == 0:
        raise ParameterError("cell window must be nonempty")
    return _weighted_sums(af, m, stream, 2.0 ** -n, start=k0, count=int(offs.max()),
                          cols=offs, replicates=ensemble)[:, 0]


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def _csv_header(fp, meta: dict | None, columns: str) -> None:
    """The optional ``# {meta JSON}`` provenance line, then the column names."""
    if meta:
        fp.write("# " + json.dumps(meta, sort_keys=True) + "\n")
    fp.write(columns + "\n")


def path_to_csv(path: PathGrid, fp, meta: dict | None = None) -> None:
    """Write ``t,value`` rows in full double precision; an optional metadata
    dict goes into a leading ``#``-comment line so the artifact carries its
    own provenance."""
    _csv_header(fp, meta, "t,value")
    fp.writelines(f"{t!r},{v!r}\n" for t, v in zip(path.times.tolist(), path.values.tolist()))


def ensemble_to_csv(paths, fp, meta: dict | None = None) -> None:
    """Long-format ``t,value,replicate`` rows for a path ensemble."""
    _csv_header(fp, meta, "t,value,replicate")
    for r, p in enumerate(paths):
        fp.writelines(f"{t!r},{v!r},{r}\n" for t, v in zip(p.times.tolist(), p.values.tolist()))
