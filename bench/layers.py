"""Which mslevy functions the traced run wraps, what it counts at each
wrapper, and how the per-layer metrics are derived from one traced pass.

A layer is a module of ``mslevy``; every metric name starts with the module
name.  ``PER_LAYER`` is the list ``BENCHMARK.json`` mirrors.
"""

from __future__ import annotations

import numpy as np

from tracer import Aggregate, Tracer

# module -> public functions that get a span named "<module>.<function>"
SPANNED = {
    "stable_core": ("sample_symmetric", "symmetric_from_uniform_pairs",
                    "sample_stable", "poisson_arrivals"),
    "msl_schemes": ("marginal_ensemble", "li_window_ensemble", "simulate_li",
                    "simulate_lr", "simulate_lc", "glue_whole_line",
                    "simulate_stable_fclt", "path_to_csv", "ensemble_to_csv"),
    "continuous_paths": ("simulate_sn", "sn_boundary_ensemble",
                         "sample_continuous_stable", "scale_parameter"),
    "integrals": ("joint_integral_ensemble", "independence_test",
                  "weighted_mslm", "strong_localisability_check",
                  "hoelder_bound_check"),
    "alpha_model": ("exponent_integral", "li_cf", "integral_cf", "quasinorm"),
    "quadrature": ("adaptive_simpson",),
    "verify_stats": ("empirical_cf", "empirical_cf_joint", "increment_cf_test",
                     "localisability_test", "tightness_check"),
    "cli": ("main",),
}

SAMPLERS = ("sample_symmetric", "symmetric_from_uniform_pairs", "sample_stable")


def _hooks(tracer: Tracer) -> dict:
    """(before, after) count hooks per "<module>.<function>"."""
    count = tracer.count

    def draws(result, args, kwargs):
        count("stable_core.draws", np.size(result))

    def ecf(result, args, kwargs):
        samples = args[0] if args else kwargs["samples"]
        theta = args[1] if len(args) > 1 else kwargs["theta_grid"]
        count("verify_stats.ecf_elements", np.size(samples) * np.size(theta))

    def ecf_joint(result, args, kwargs):
        samples = args[0] if args else kwargs["samples"]
        tuples = args[1] if len(args) > 1 else kwargs["theta_tuples"]
        count("verify_stats.ecf_elements", np.shape(samples)[0] * np.shape(tuples)[0])

    def path_rows(result, args, kwargs):
        count("msl_schemes.csv.rows", len(args[0] if args else kwargs["path"]))

    def ensemble_rows(result, args, kwargs):
        paths = args[0] if args else kwargs["paths"]
        count("msl_schemes.csv.rows", sum(len(p) for p in paths))

    def counted_integrand(args, kwargs):
        # the integrand is a hot tiny callable: count it, never span it
        f = tracer.counting(args[0], "quadrature.integrand_evals")
        return (f, *args[1:]), kwargs

    hooks = {f"stable_core.{name}": (None, draws) for name in SAMPLERS}
    hooks.update({
        "verify_stats.empirical_cf": (None, ecf),
        "verify_stats.empirical_cf_joint": (None, ecf_joint),
        "msl_schemes.path_to_csv": (None, path_rows),
        "msl_schemes.ensemble_to_csv": (None, ensemble_rows),
        "quadrature.adaptive_simpson": (counted_integrand, None),
    })
    return hooks


def wrap_plan(package, tracer: Tracer):
    """Arguments for :func:`tracer.install`: every module of the package
    (plus the package namespace) as binding owners, the spanned functions,
    and the wrapped methods."""
    import importlib

    modules = [package] + [importlib.import_module(f"{package.__name__}.{m}")
                           for m in SPANNED]
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules[1:]}
    hooks = _hooks(tracer)
    functions = []
    for mod_name, fns in SPANNED.items():
        for fn in fns:
            span = f"{mod_name}.{fn}"
            before, after = hooks.get(span, (None, None))
            functions.append((by_name[mod_name], fn, span, before, after))
    stable_core = by_name["stable_core"]
    alpha_model = by_name["alpha_model"]
    methods = [
        (stable_core.RandomStream, "generator", "stable_core.generator", None),
        (stable_core.RandomStream, "child", "stable_core.child", None),
        (alpha_model.AlphaFunction, "__call__", None, "alpha_model.alpha_evals"),
    ]
    return modules, functions, methods


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(agg: Aggregate, counters: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass (``trace.overhead_share`` is
    added by the runner, which alone sees untraced passes)."""
    g = agg.get
    c = counters.get
    streams = g("stable_core.generator").calls
    draws = c("stable_core.draws", 0)
    sampler_self = sum(g(f"stable_core.{f}").self_s for f in SAMPLERS)
    csv_self = (g("msl_schemes.path_to_csv").self_s
                + g("msl_schemes.ensemble_to_csv").self_s)
    csv_rows = c("msl_schemes.csv.rows", 0)
    ecf_self = (g("verify_stats.empirical_cf").self_s
                + g("verify_stats.empirical_cf_joint").self_s)
    ecf_elements = c("verify_stats.ecf_elements", 0)
    simpson = g("quadrature.adaptive_simpson")
    evals = c("quadrature.integrand_evals", 0)
    out = {
        "stable_core.streams": streams,
        "stable_core.generator.self_s": g("stable_core.generator").self_s,
        "stable_core.child.calls": g("stable_core.child").calls,
        "stable_core.child.self_s": g("stable_core.child").self_s,
        "stable_core.draws_per_stream": _ratio(draws, streams),
        "stable_core.draws": draws,
        "stable_core.sampler.self_s": sampler_self,
        "stable_core.ns_per_draw": _ratio(sampler_self, draws, 1e9),
        "stable_core.poisson_arrivals.self_s": g("stable_core.poisson_arrivals").self_s,
        "msl_schemes.marginal_ensemble.self_s": g("msl_schemes.marginal_ensemble").self_s,
        "msl_schemes.li_window_ensemble.self_s": g("msl_schemes.li_window_ensemble").self_s,
    }
    for scheme in ("simulate_li", "simulate_lr", "simulate_lc"):
        out[f"msl_schemes.{scheme}.calls"] = g(f"msl_schemes.{scheme}").calls
        out[f"msl_schemes.{scheme}.self_s"] = g(f"msl_schemes.{scheme}").self_s
    out.update({
        "msl_schemes.glue_whole_line.self_s": g("msl_schemes.glue_whole_line").self_s,
        "msl_schemes.simulate_stable_fclt.self_s": g("msl_schemes.simulate_stable_fclt").self_s,
        "msl_schemes.csv.rows": csv_rows,
        "msl_schemes.csv.self_s": csv_self,
        "msl_schemes.csv.ns_per_row": _ratio(csv_self, csv_rows, 1e9),
        "continuous_paths.simulate_sn.calls": g("continuous_paths.simulate_sn").calls,
        "continuous_paths.simulate_sn.self_s": g("continuous_paths.simulate_sn").self_s,
        "continuous_paths.sn_boundary_ensemble.self_s":
            g("continuous_paths.sn_boundary_ensemble").self_s,
        "continuous_paths.sample_continuous_stable.self_s":
            g("continuous_paths.sample_continuous_stable").self_s,
        "continuous_paths.scale_parameter.self_s": g("continuous_paths.scale_parameter").self_s,
        "integrals.joint_integral_ensemble.self_s": g("integrals.joint_integral_ensemble").self_s,
        "integrals.independence_test.self_s": g("integrals.independence_test").self_s,
        "integrals.weighted_mslm.self_s": g("integrals.weighted_mslm").self_s,
        "integrals.strong_localisability_check.self_s":
            g("integrals.strong_localisability_check").self_s,
        "integrals.hoelder_bound_check.self_s": g("integrals.hoelder_bound_check").self_s,
        "alpha_model.exponent_integral.calls": g("alpha_model.exponent_integral").calls,
        "alpha_model.exponent_integral.self_s": g("alpha_model.exponent_integral").self_s,
        "alpha_model.li_cf.self_s": g("alpha_model.li_cf").self_s,
        "alpha_model.integral_cf.self_s": g("alpha_model.integral_cf").self_s,
        "alpha_model.quasinorm.calls": g("alpha_model.quasinorm").calls,
        "alpha_model.quasinorm.self_s": g("alpha_model.quasinorm").self_s,
        "alpha_model.alpha_evals": c("alpha_model.alpha_evals", 0),
        "quadrature.adaptive_simpson.calls": simpson.calls,
        "quadrature.adaptive_simpson.self_s": simpson.self_s,
        "quadrature.integrand_evals": evals,
        "quadrature.evals_per_integral": _ratio(evals, simpson.calls),
        "verify_stats.empirical_cf.calls": g("verify_stats.empirical_cf").calls,
        "verify_stats.empirical_cf.self_s": g("verify_stats.empirical_cf").self_s,
        "verify_stats.ecf_elements": ecf_elements,
        "verify_stats.ns_per_element": _ratio(ecf_self, ecf_elements, 1e9),
        "verify_stats.empirical_cf_joint.self_s": g("verify_stats.empirical_cf_joint").self_s,
        "verify_stats.increment_cf_test.self_s": g("verify_stats.increment_cf_test").self_s,
        "verify_stats.localisability_test.self_s": g("verify_stats.localisability_test").self_s,
        "verify_stats.tightness_check.self_s": g("verify_stats.tightness_check").self_s,
        "cli.main.calls": g("cli.main").calls,
        "cli.main.total_s": g("cli.main").total_s,
        "cli.main.self_s": g("cli.main").self_s,
        "cli.bytes_written": c("cli.bytes_written", 0),
    })
    return out


def _unit(name: str) -> str:
    if name.endswith("self_s") or name.endswith("total_s"):
        return "s"
    if ".ns_per_" in name:
        return "ns"
    return {
        "stable_core.draws_per_stream": "draws/stream",
        "quadrature.evals_per_integral": "evals/call",
        "cli.bytes_written": "bytes",
        "trace.overhead_share": "share",
    }.get(name, "count")


PER_LAYER = [(name, _unit(name))
             for name in [*layer_metrics(Aggregate(), {}), "trace.overhead_share"]]
