"""Command-line front door: simulate paths, run verification suites, compute
norms and diagnostics, emit CSV/JSON/SVG artifacts.

Exit codes follow a stable contract: 0 when everything passes, 1 when a
verification suite (or trend diagnostic) fails, 2 on usage errors.  Flags
override values from a ``--config`` JSON file, which in turn override the
built-in defaults; the default seed comes from the ``MSLEVY_SEED`` environment
variable.  Every artifact embeds the fully resolved configuration and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import stat
import sys
from contextlib import contextmanager, nullcontext

import numpy as np

from .alpha_model import (
    AlphaFunction,
    IntegrandFunction,
    check_condition7,
    exponent_integral,
    lf_n_exponent,
    modular_integral,
    plateau_identity_alpha,
    quasinorm,
)
from .continuous_paths import (
    ContinuousStableConfig,
    sample_continuous_stable,
    scale_bounds,
    scale_parameter,
    simulate_sn,
    sn_boundary_ensemble,
    stable_level_draws,
)
from .errors import ParameterError
from .integrals import (
    _NULL_SET_TOL,
    billingsley_bound,
    half_open_indicator,
    independence_test,
    KernelFunction,
    pairwise_independence,
    weighted_mslm,
)
from .msl_schemes import (
    SchemeConfig,
    _MAX_LEVEL,
    ensemble_to_csv,
    marginal_ensemble,
    path_to_csv,
    simulate_lc,
    simulate_li,
    simulate_lr,
    simulate_stable_fclt,
)
from .stable_core import (RandomStream, StableParams, _check_ints, compute_C_alpha,
                          sample_stable)
from .verify_stats import (
    ecf_report,
    empirical_cf,
    increment_cf_test,
    localisability_test,
    theta_grid_default,
    tightness_check,
)

_ENV_SEED = "MSLEVY_SEED"
_SCHEMES = ("li", "lr", "lc", "sn", "stable", "weighted")


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _env_seed() -> int:
    raw = os.environ.get(_ENV_SEED)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ParameterError(
            f"environment variable {_ENV_SEED} must be an integer, got {raw!r}")


def _resolve(argv) -> tuple[argparse.Namespace, dict]:
    """Built-in defaults, overridden by the --config file, overridden by
    explicit flags.  The file's values become the subcommand's defaults and
    the line is parsed again: a typed flag's value as its string, which
    argparse converts as it would the flag's text (null only if the default is)."""
    argv = sys.argv[1:] if argv is None else argv
    parser, commands = _build_parser(argv)
    args = parser.parse_args(argv)
    sub = commands[args.command]
    known = set(vars(sub.parse_args([]))) - {"func", "config"}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ParameterError("the config file must hold a JSON object")
        unknown = sorted(set(file_cfg) - known)
        if unknown:
            raise ParameterError(f"unknown config keys: {', '.join(unknown)}")
        typed = {a.dest: a.default for a in sub._actions if a.type is not None}
        sub.set_defaults(**{k: v if k not in typed or (v is None and typed[k] is None)
                            else str(v) for k, v in file_cfg.items()})
        args = parser.parse_args(argv)
    resolved = {key: value for key, value in vars(args).items() if key in known}
    if resolved.get("seed", 0) is None:
        resolved["seed"] = _env_seed()
    return args, resolved


def _check_shared(command: str, resolved: dict) -> None:
    """The checks several commands share, made before any command starts,
    so that a bad value exits 2 with nothing written."""
    if resolved.get("plot"):
        if not resolved.get("out"):
            raise ParameterError("--plot needs --out to know where the SVG goes")
        if os.path.realpath(_svg_path(resolved)) == os.path.realpath(resolved["out"]):
            raise ParameterError("--plot would write its SVG over --out; give --out "
                                 "another extension")
    if "ensemble" in resolved:
        _check_ints(resolved["ensemble"], 1000 if command == "verify" else 1,
                    2 ** _MAX_LEVEL, "--ensemble")
    tol = resolved.get("tolerance")
    if tol is not None and not tol > 0.0:
        raise ParameterError(f"--tolerance must be positive, got {tol}")


def _alpha_of(resolved: dict) -> AlphaFunction:
    af = AlphaFunction.from_json(resolved["alpha"])
    resolved["alpha"] = af.to_json_dict()
    return af


def _parse_floats(value) -> list[float]:
    if isinstance(value, (list, tuple)):
        return [float(v) for v in value]
    return [float(tok) for tok in str(value).replace(",", " ").split()]


def _json_default(obj):
    """``json.dumps`` hook: report dataclasses field by field, numpy arrays
    and scalars as Python lists and numbers."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


@contextmanager
def _artifact(path: str):
    """Text handle that rewrites the artifact at ``path`` in place.  It opens
    without O_TRUNC, because truncating to zero makes the open wait until the
    old blocks are freed (tens of ms per overwrite on ext4 mounted with
    ``discard``), and on the way out, after an error too, cuts a regular file
    at the write position so no tail of a longer old file is left.  A FIFO
    or a device such as /dev/null is written as it is; nothing is fsynced."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w",
              encoding="utf-8", newline="") as fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()


def _emit_json(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2, default=_json_default) + "\n"
    with _artifact(out) if out else nullcontext(sys.stdout) as fh:
        fh.write(text)


def _svg_path(resolved: dict) -> str:
    """Where --plot writes its SVG: --out with its extension made .svg."""
    return os.path.splitext(resolved["out"])[0] + ".svg"


def _plot(resolved: dict, series, title: str, meta: dict) -> None:
    """With --plot, write ``series`` as an SVG next to --out."""
    if resolved["plot"]:
        with _artifact(_svg_path(resolved)) as fh:
            write_svg(fh, series, title=title, meta=meta)


# ---------------------------------------------------------------------------
# SVG line charts (self-contained, no external assets)
# ---------------------------------------------------------------------------

_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
               "#ff7f0e", "#8c564b", "#e377c2", "#17becf")


def _xml_escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def write_svg(fp, series, title: str = "", meta: dict | None = None) -> None:
    """Minimal polyline chart.  ``series`` is an iterable of (xs, ys, label)
    triples; the resolved config travels inside a <desc> element."""
    shown = []
    for xs, ys, label in series:
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        k = min(xs.size, ys.size)
        keep = np.isfinite(xs[:k]) & np.isfinite(ys[:k])
        shown.append((xs[:k][keep], ys[:k][keep], label))
    fx = np.concatenate([xs for xs, _, _ in shown])
    fy = np.concatenate([ys for _, ys, _ in shown])
    if fx.size == 0:
        raise ParameterError("nothing to plot: no finite points")
    # the first extreme in point order, as Python's min and max pick one of
    # -0.0 and 0.0 (numpy's min and max may return either)
    x0, x1 = float(fx[fx.argmin()]), float(fx[fx.argmax()])
    y0, y1 = float(fy[fy.argmin()]), float(fy[fy.argmax()])
    if x1 - x0 <= 0.0:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 - y0 <= 0.0:
        y0, y1 = y0 - 0.5, y1 + 0.5
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    width, height, margin = 720, 440, 60
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">']
    if meta is not None:
        parts.append("<desc>"
                     + _xml_escape(json.dumps(meta, sort_keys=True,
                                                default=_json_default))
                     + "</desc>")
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
                     f'{_xml_escape(title)}</text>')
    for i, (xs, ys, label) in enumerate(shown):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        sx = margin + (xs - x0) * (width - 2 * margin) / (x1 - x0)
        sy = height - margin - (ys - y0) * (height - 2 * margin) / (y1 - y0)
        pts = " ".join(map("{:.2f},{:.2f}".format, sx.tolist(), sy.tolist()))
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.5" points="{pts}"/>')
        if label:
            ly = margin + 14 * (i + 1)
            parts.append(f'<line x1="{width - margin - 120}" y1="{ly - 4}" '
                         f'x2="{width - margin - 100}" y2="{ly - 4}" '
                         f'stroke="{color}" stroke-width="2"/>')
            parts.append(f'<text x="{width - margin - 94}" y="{ly}" '
                         f'{label_style}>{_xml_escape(str(label))}</text>')
    parts.append("</svg>")
    fp.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _simulate_path(resolved: dict, af: AlphaFunction, stream: RandomStream):
    scheme = resolved["scheme"]
    n = resolved["n"]
    if scheme in ("li", "lr", "lc"):
        cfg = SchemeConfig(n=n, af=af, stream=stream,
                           nested=bool(resolved["nested"]))
        return {"li": simulate_li, "lr": simulate_lr, "lc": simulate_lc}[scheme](cfg)
    if scheme == "sn":
        mesh, levels = resolved["mesh_level"], resolved["levels"]
        mesh = _check_ints(min(n + 2, 16) if mesh is None else mesh, 0, _MAX_LEVEL,
                           "--mesh-level")
        levels = _check_ints(max(16, n) if levels is None else levels, 0, _MAX_LEVEL,
                             "--levels")
        t_grid = np.arange(2 ** mesh + 1, dtype=float) / 2.0 ** mesh
        return simulate_sn(n, af, stream, t_grid, d=resolved["d"],
                           levels=levels)
    if scheme == "stable":
        if af.a != af.b:
            raise ParameterError(
                'the stable scheme needs a constant exponent, e.g. '
                '--alpha \'{"kind":"constant","value":1.5}\'')
        n_terms = resolved["n_terms"]
        n_terms = _check_ints(2 ** n if n_terms is None else n_terms, 1, 2 ** _MAX_LEVEL,
                              "--n-terms (default 2^n)")
        return simulate_stable_fclt(af.a, n_terms, stream)
    w = IntegrandFunction.from_table(_parse_floats(resolved["weight"]))  # weighted
    return weighted_mslm(w, af, n, stream)


def _cmd_simulate(resolved: dict) -> int:
    af = _alpha_of(resolved)
    if resolved["scheme"] not in _SCHEMES:
        raise ParameterError(
            f"unknown scheme {resolved['scheme']!r}; pick one of {_SCHEMES}")
    n, ensemble = resolved["n"], resolved["ensemble"]
    # 2^n cells a path; a single path keeps the level range [1, 26]
    if n > _MAX_LEVEL or ensemble << max(n, 0) > 2 ** _MAX_LEVEL:
        raise ParameterError(f"--ensemble × 2^n must be at most 2^{_MAX_LEVEL}, "
                             f"got {ensemble} × 2^{n}")
    stream = RandomStream(resolved["seed"])
    paths = [_simulate_path(resolved, af, stream.child(r))
             for r in range(ensemble)]
    meta = {"command": "simulate", "format": "csv", **resolved}
    out = resolved["out"]
    with _artifact(out) if out else nullcontext(sys.stdout) as fh:
        if ensemble == 1:
            path_to_csv(paths[0], fh, meta)
        else:
            ensemble_to_csv(paths, fh, meta)
    _plot(resolved, [(p.times, p.values, f"replicate {r}" if ensemble > 1 else "")
                     for r, p in enumerate(paths[:len(_SVG_COLORS)])],
          f"{resolved['scheme']} path", meta)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _item(name: str, value, limit, passed=None, **detail) -> dict:
    """A verify item with margin = value/limit; ``passed`` is the library
    report's own verdict where it gives one, else value < limit."""
    item = {"name": name, "passed": bool(value < limit if passed is None else passed),
            "value": value, "limit": limit, "margin": value / limit}
    if detail:
        item["detail"] = detail
    return item


def _suite_stable(resolved: dict, af: AlphaFunction,
                  stream: RandomStream) -> list[dict]:
    ens = resolved["ensemble"]
    tol = resolved["tolerance"]
    items = [_item("stable.normalizer_at_one",
                   abs(compute_C_alpha(1.0) - 2.0 / math.pi), 1e-12)]
    for i, alpha in enumerate((0.8, 1.5, 2.0)):
        draws = sample_stable(StableParams(alpha=alpha), ens, stream.child(i))
        rep = ecf_report(draws, lambda th: np.exp(-np.abs(th) ** alpha),
                         label=f"alpha={alpha}")
        items.append(_item(f"stable.cf_match[{alpha}]", rep.sup_deviation,
                           rep._limit(tol), rep.passes(tol)))
    bound = billingsley_bound(lambda t: math.exp(-abs(t)), 2.0)
    items.append(_item("stable.billingsley_exponential",
                       abs(bound - 2.0 / math.e), 1e-9))
    return items


def _suite_schemes(resolved: dict, af: AlphaFunction,
                   stream: RandomStream) -> list[dict]:
    ens, n = resolved["ensemble"], resolved["n"]
    tol = resolved["tolerance"]
    items = []
    for rep in increment_cf_test("li", af, n, [(0.0, 1.0), (0.25, 0.75)],
                                 ens, stream.child(0)):
        items.append(_item(f"schemes.increment_{rep.label}", rep.sup_deviation,
                           rep._limit(tol), rep.passes(tol)))
    th = theta_grid_default()
    ecfs = {}
    for i, scheme in enumerate(("li", "lr", "lc")):
        col = marginal_ensemble(scheme, af, n, [1.0], ens, stream.child(1 + i))
        ecfs[scheme] = empirical_cf(col[:, 0], th)
    pair_limit = tol if tol is not None else 5.0 * math.sqrt(2.0 / ens)
    for a, b in (("li", "lr"), ("li", "lc"), ("lr", "lc")):
        items.append(_item(f"schemes.agreement_{a}_{b}",
                           np.max(np.abs(ecfs[a] - ecfs[b])), pair_limit))
    rep = tightness_check("li", af, (0.2, 0.5, 0.8), (1.0, 3.0), n, ens,
                          stream.child(4))
    items.append(_item("schemes.tightness",
                       max(e / b for e, b in zip(rep.empirical, rep.bounds)), 1.0,
                       rep.passed, empirical=rep.empirical, bounds=rep.bounds))
    return items


def _suite_continuous(resolved: dict, af: AlphaFunction,
                      stream: RandomStream) -> list[dict]:
    ens = resolved["ensemble"]
    tol = resolved["tolerance"]
    items = []

    alpha_c, d_c = 1.5, 1.0
    worst = 0.0
    for j in range(1, 9):
        peaks = (2.0 * np.arange(2 ** j) + 1.0) / 2.0 ** (j + 1)
        t_grid = np.concatenate([[0.0], peaks])
        hi = sample_continuous_stable(
            ContinuousStableConfig(alpha_c, d_c, levels=j), t_grid,
            stream.child(0))
        lo = sample_continuous_stable(
            ContinuousStableConfig(alpha_c, d_c, levels=j - 1), t_grid,
            stream.child(0))
        observed = float(np.max(np.abs(hi.values[1:] - lo.values[1:])))
        z = stable_level_draws(alpha_c, j, stream.child(0))
        expected = 2.0 ** (-j * d_c) * float(np.max(np.abs(z)))
        worst = max(worst, abs(observed - expected))
    items.append(_item("continuous.level_increment_identity", worst, 1e-14))

    # scale_bounds gives the envelope phi(t) <= scale <= upper, sound for
    # every admissible pair; criterion 07 checks the same envelope.
    worst = 0.0
    pins = 0.0
    ts = np.linspace(0.0, 1.0, 1001)
    for alpha, d in ((1.5, 1.0), (0.8, 2.0), (2.0, 0.6)):
        cfg = ContinuousStableConfig(alpha, d)
        pins = max(pins, abs(scale_parameter(cfg, 0.0)),
                   abs(scale_parameter(cfg, 0.5) - 1.0))
        sig = scale_parameter(cfg, ts)
        lower, upper = scale_bounds(cfg, ts)
        worst = max(worst, float(np.max(lower - sig)), float(np.max(sig - upper)))
    items.append(_item("continuous.scale_pins", pins, 1e-14))
    items.append(_item("continuous.scale_bounds", worst, 1e-12))

    n_sn = min(resolved["n"], 6)
    draws = sn_boundary_ensemble(n_sn, af, stream.child(1), [2 ** n_sn], ens)
    rep = ecf_report(draws[:, 0], lambda t: np.exp(-exponent_integral(af, t, 0.0, 1.0)),
                     label="sn boundary")
    items.append(_item("continuous.boundary_marginal_cf", rep.sup_deviation,
                       rep._limit(tol), rep.passes(tol)))
    return items


def _suite_integrals(resolved: dict, af: AlphaFunction,
                     stream: RandomStream) -> list[dict]:
    ens, n = resolved["ensemble"], min(resolved["n"], 10)
    items = []

    alpha_c = AlphaFunction.constant(1.5)
    table = stream.child(0).generator().random(16) + 0.5
    f = IntegrandFunction.from_table(table)
    oracle = float(np.mean(table ** 1.5) ** (1.0 / 1.5))
    items.append(_item("integrals.quasinorm_closed_form",
                       abs(quasinorm(f, alpha_c) - oracle), 1e-10))

    rep = independence_test(half_open_indicator(0.0, 0.5),
                            half_open_indicator(0.5, 1.0), af,
                            stream.child(1), n=n, ensemble=ens)
    items.append(_item("integrals.independent_disjoint", rep.distance, rep.threshold,
                       rep.verdict == "independent" and rep.empirical_independent,
                       overlap=rep.overlap))
    # dependence must show: the distance is the limit the threshold stays under
    whole = half_open_indicator(0.0, 1.0)
    rep = independence_test(whole, whole, af, stream.child(2), n=n,
                            ensemble=ens)
    items.append(_item("integrals.dependent_overlap", rep.threshold, rep.distance,
                       rep.verdict == "dependent" and not rep.empirical_independent,
                       overlap=rep.overlap))
    thirds = [half_open_indicator(k / 3.0, (k + 1) / 3.0) for k in range(3)]
    pw = pairwise_independence(thirds, af)
    items.append(_item("integrals.pairwise_thirds",
                       max(ov for _, _, ov in pw.overlaps), _NULL_SET_TOL,
                       pw.independent, overlaps=pw.overlaps))

    kernel = KernelFunction.running_indicator()
    worst = 0.0
    for t, v in ((0.5, 0.5 - 2.0 ** -4), (0.75, 0.75 - 2.0 ** -6)):
        delta = kernel.slice(t) - kernel.slice(v)
        worst = max(worst, abs(modular_integral(delta, af) - (t - v)))
    items.append(_item("integrals.hoelder_energy_identity", worst, 1e-10))
    return items


def _localize_tolerance(resolved: dict) -> float:
    """The final sup-CF deviation a localisability trend must beat."""
    tol = resolved["tolerance"]
    return tol if tol is not None else max(0.05, 6.0 / math.sqrt(resolved["ensemble"]))


def _suite_localisability(resolved: dict, af: AlphaFunction,
                          stream: RandomStream) -> list[dict]:
    rep = localisability_test(af, 0.5, 1.0,
                              [2.0 ** -4, 2.0 ** -5, 2.0 ** -6, 2.0 ** -7],
                              max(resolved["n"], 12), resolved["ensemble"],
                              stream.child(0), tolerance=_localize_tolerance(resolved))
    return [_item("localisability.linear_trend", rep.final_deviation, rep.tolerance,
                  rep.passed, deviations=rep.deviations, spearman=rep.spearman)]


# Suite name -> runner, in the order that fixes each suite's stream.child(tag).
_SUITES = {"stable": _suite_stable, "schemes": _suite_schemes,
           "continuous": _suite_continuous, "integrals": _suite_integrals,
           "localisability": _suite_localisability}


def _cmd_verify(resolved: dict) -> int:
    af = _alpha_of(resolved)
    suite = resolved["suite"]
    if suite != "all" and suite not in _SUITES:
        raise ParameterError(
            f"unknown suite {suite!r}; pick one of {('all', *_SUITES)}")
    stream = RandomStream(resolved["seed"])
    items: list[dict] = []
    for tag, (name, run) in enumerate(_SUITES.items()):
        if suite in ("all", name):
            items.extend(run(resolved, af, stream.child(tag)))
    items.sort(key=lambda item: item["name"])
    all_pass = all(item["passed"] for item in items)
    report = {"command": "verify", "config": resolved, "items": items,
              "all_pass": all_pass}
    _emit_json(report, resolved["out"])
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# norm / localize / condition7 / example1
# ---------------------------------------------------------------------------

def _cmd_norm(resolved: dict) -> int:
    af = _alpha_of(resolved)
    if resolved["table"] is None:
        raise ParameterError("norm needs --table with comma-separated values")
    values = _parse_floats(resolved["table"])
    value = quasinorm(IntegrandFunction.from_table(values), af)
    sys.stdout.write(f"{value!r}\n")
    if resolved["out"]:
        _emit_json({"command": "norm", "config": resolved,
                    "quasinorm": value}, resolved["out"])
    return 0


def _cmd_localize(resolved: dict) -> int:
    af = _alpha_of(resolved)
    resolved["tolerance"] = _localize_tolerance(resolved)
    rep = localisability_test(af, resolved["x"], resolved["u"],
                              _parse_floats(resolved["r_list"]), resolved["n"],
                              resolved["ensemble"], RandomStream(resolved["seed"]),
                              tolerance=resolved["tolerance"])
    payload = {"command": "localize", "config": resolved,
               "report": rep}
    _emit_json(payload, resolved["out"])
    _plot(resolved, [(rep.r_list, rep.deviations, "sup CF deviation")],
          f"rescaled increments at x={rep.x}", payload)
    return 0 if rep.passed else 1


def _cmd_condition7(resolved: dict) -> int:
    af = _alpha_of(resolved)
    lags = _parse_floats(resolved["lags"])
    resolved["lags"] = lags
    t0, t1 = af.domain
    xs = np.linspace(t0, t1, _check_ints(resolved["x_points"], 1, 2 ** _MAX_LEVEL,
                                         "--x-points"))
    # A jump at p only registers for lag t when some probe lies in
    # [p - t, p), so straddle every breakpoint at every lag explicitly.
    straddles = [p - lag / 2.0 for p in af.breaks for lag in lags]
    if straddles:
        xs = np.union1d(xs, np.clip(straddles, t0, t1))
    rep = check_condition7(af, xs, lags, resolved["threshold"])
    _emit_json({"command": "condition7", "config": resolved,
                "report": rep}, resolved["out"])
    return 0 if rep.verdict == "satisfied" else 1


def _cmd_example1(resolved: dict) -> int:
    n_max = _check_ints(resolved["n_max"], 0, _MAX_LEVEL, "--n-max")
    n_min = _check_ints(resolved["n_min"], 0, n_max, "--n-min")
    af = plateau_identity_alpha(resolved["b"])
    u, theta = resolved["u"], resolved["theta"]
    rows = [(n, lf_n_exponent(af, u, theta, n)) for n in range(n_min, n_max + 1)]
    sys.stdout.write("n,exponent\n")
    for n, value in rows:
        sys.stdout.write(f"{n},{value!r}\n")
    if resolved["out"]:
        _emit_json({"command": "example1", "config": resolved,
                    "alpha": af.to_json_dict(),
                    "rows": [[n, v] for n, v in rows]}, resolved["out"])
    _plot(resolved, [([n for n, _ in rows], [v for _, v in rows], "CF exponent")],
          "field-based scheme divergence", {"command": "example1", "config": resolved})
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def _shared_flags(p: argparse.ArgumentParser, *, seed: bool, alpha: bool,
                  plot: bool) -> None:
    """--config and --out, then whichever of --seed, --alpha and --plot the
    command takes, in that order."""
    p.add_argument("--config", help="JSON file whose values replace the "
                                    "built-in defaults; explicit flags "
                                    "override its values")
    p.add_argument("--out", help="artifact path (default: stdout)")
    if seed:
        p.add_argument("--seed", type=int, help=f"RNG seed (default: ${_ENV_SEED} or 0)")
    if alpha:
        p.add_argument("--alpha", default={"kind": "linear", "intercept": 1.2, "slope": 0.6},
                       help="stability-exponent function as JSON (kind "
                            "constant/linear/piecewise/piecewise_linear/table)")
    if plot:
        p.add_argument("--plot", action="store_true",
                       help="also write an SVG chart next to --out")


def _simulate_flags(p: argparse.ArgumentParser) -> None:
    _shared_flags(p, seed=True, alpha=True, plot=True)
    p.add_argument("--scheme", choices=_SCHEMES, default="li")
    p.add_argument("--n", type=int, default=10, help="dyadic refinement level")
    p.add_argument("--ensemble", type=int, default=1,
                   help="number of replicate paths (ensemble × 2^n at most 2^26)")
    p.add_argument("--nested", action="store_true",
                   help="share draws across levels (dyadic addressing)")
    p.add_argument("--d", type=float, default=1.0, help="basis decay exponent (sn)")
    p.add_argument("--levels", type=int, help="series truncation level (sn)")
    p.add_argument("--mesh-level", type=int, dest="mesh_level",
                   help="output grid level for sn (default n+2)")
    p.add_argument("--weight", default="1",
                   help="comma-separated weight table (weighted)")
    p.add_argument("--n-terms", type=int, dest="n_terms",
                   help="summand count for the stable scheme (default 2^n)")
    p.set_defaults(func=_cmd_simulate)


def _verify_flags(p: argparse.ArgumentParser) -> None:
    _shared_flags(p, seed=True, alpha=True, plot=False)
    p.add_argument("--suite", choices=("all", *_SUITES), default="all")
    p.add_argument("--n", type=int, default=10, help="dyadic refinement level")
    p.add_argument("--ensemble", type=int, default=2000,
                   help="Monte-Carlo size (1000 to 2^26)")
    p.add_argument("--tolerance", type=float,
                   help="limit for the ECF items (stable.cf_match, "
                        "schemes.increment, schemes.agreement, "
                        "continuous.boundary_marginal_cf) and the final "
                        "deviation of localisability.linear_trend; the "
                        "independence and tightness limits stay fixed")
    p.set_defaults(func=_cmd_verify)


def _norm_flags(p: argparse.ArgumentParser) -> None:
    _shared_flags(p, seed=False, alpha=True, plot=False)
    p.add_argument("--table", help="comma-separated function values on a "
                                   "uniform grid")
    p.set_defaults(func=_cmd_norm)


def _localize_flags(p: argparse.ArgumentParser) -> None:
    _shared_flags(p, seed=True, alpha=True, plot=True)
    p.add_argument("--x", type=float, default=0.5, help="center point")
    p.add_argument("--u", type=float, default=1.0, help="window direction")
    p.add_argument("--n", type=int, default=12, help="dyadic refinement level")
    p.add_argument("--ensemble", type=int, default=4000,
                   help="Monte-Carlo size (1 to 2^26)")
    p.add_argument("--r-list", dest="r_list",
                   default="0.0625,0.03125,0.015625,0.0078125",
                   help="comma-separated decreasing radii")
    p.add_argument("--tolerance", type=float,
                   help="final sup-CF deviation to beat")
    p.set_defaults(func=_cmd_localize)


def _condition7_flags(p: argparse.ArgumentParser) -> None:
    _shared_flags(p, seed=False, alpha=True, plot=False)
    p.add_argument("--threshold", type=float, default=1e-3)
    p.add_argument("--x-points", type=int, dest="x_points", default=257)
    p.add_argument("--lags", default=tuple(2.0 ** -k for k in range(2, 21)),
                   help="comma-separated decreasing lags in (0,1)")
    p.set_defaults(func=_cmd_condition7)


def _example1_flags(p: argparse.ArgumentParser) -> None:
    _shared_flags(p, seed=False, alpha=False, plot=True)
    p.add_argument("--b", type=float, default=1.8, help="plateau parameter in (0,2)")
    p.add_argument("--u", type=float, default=0.95, help="evaluation point")
    p.add_argument("--theta", type=float, default=1.0, help="CF argument")
    p.add_argument("--n-min", type=int, dest="n_min", default=4)
    p.add_argument("--n-max", type=int, dest="n_max", default=20)
    p.set_defaults(func=_cmd_example1)


# Command name -> (its help line, the function that declares its flags).
_COMMANDS = {
    "simulate": ("draw paths and write them as CSV", _simulate_flags),
    "verify": ("run a verification suite, write a JSON report", _verify_flags),
    "norm": ("quasinorm of a tabulated function", _norm_flags),
    "localize": ("rescaled-increment convergence diagnostic", _localize_flags),
    "condition7": ("vanishing-oscillation diagnostic on the exponent", _condition7_flags),
    "example1": ("divergence table of the naive field-based scheme's CF exponent",
                 _example1_flags),
}


def _build_parser(argv: list) -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subcommand parsers by name; every flag carries its
    built-in default here and nowhere else.  Every command gets a parser, so
    help and the invalid-choice error name all six, but only the command
    that argv[0] names gets its flags (all do when it names none): declaring
    every flag took most of the run of a short command."""
    parser = argparse.ArgumentParser(
        prog="mslevy",
        description="Simulate multistable Levy motions and verify their "
                    "distributional properties.")
    sub = parser.add_subparsers(dest="command", required=True)
    named = argv[0] if argv and argv[0] in _COMMANDS else None
    for name, (help_text, declare_flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if named in (None, name):
            declare_flags(p)
    return parser, sub.choices


def main(argv=None) -> int:
    try:
        args, resolved = _resolve(argv)
        _check_shared(args.command, resolved)
        return args.func(resolved)
    except (ValueError, ArithmeticError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
