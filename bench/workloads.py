"""The three benchmark workloads.

Each workload is a list of tasks.  A task calls mslevy only through its
public functions and ``cli.main``, checks every result it produces and feeds
every output array into the pass digest.  Inputs come from the benchmark
seed alone and are built once in set-up; a pass runs every task once with
the same inputs, so every pass of one seed must give the same digest.

Check classes (see ``Context.check``):

- bit-identities the docstrings promise, at any seed;
- closed forms computed in ``closed_forms`` (never by the package);
- ECF verdicts against exact CFs at the library's 5/sqrt(N) tolerance.

Two verdicts are recorded with ``Context.note`` instead of being gated,
because they fail at a seed-dependent rate by design: the verify suite's
``localisability.linear_trend`` item (a Spearman trend over four deviations
that all sit at the Monte-Carlo noise floor at the ensembles verify runs)
and the per-path jump bound of the criterion-09 shape (which the acceptance
criterion only requires for 99% of paths).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

import closed_forms as cf

THETA_61 = np.linspace(-3.0, 3.0, 61)
THETA_13 = np.linspace(-3.0, 3.0, 13)

# The exponent of criteria 03-15: alpha(u) = 1.2 + 0.6 u.
LIN_C, LIN_M = 1.2, 0.6


@dataclass
class Context:
    """Checks, notes and digest of one pass; work counts go to the pass's
    tracer, if it has one."""

    out_dir: Path
    tracer: object = None
    state: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)      # (name, passed, detail)
    notes: dict = field(default_factory=dict)
    _sha: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    def check(self, name: str, passed, detail="") -> None:
        self.checks.append((name, bool(passed), str(detail)))

    def close_to(self, name: str, got, want, rel: float, abs_tol: float = 0.0) -> None:
        got = np.asarray(got, dtype=complex)
        want = np.asarray(want, dtype=complex)
        err = float(np.max(np.abs(got - want) / np.maximum(np.abs(want) * rel, abs_tol),
                        initial=0.0))
        self.check(name, got.shape == want.shape and err <= 1.0,
                   f"worst error / tolerance = {err:.3g}")

    def same_bits(self, name: str, got, want) -> None:
        got, want = np.asarray(got), np.asarray(want)
        self.check(name, got.shape == want.shape and got.tobytes() == want.tobytes())

    def note(self, name: str, value) -> None:
        self.notes[name] = value

    def count(self, key: str, amount: float) -> None:
        if self.tracer is not None:
            self.tracer.count(key, amount)

    def record(self, label: str, *arrays) -> None:
        """Feed output arrays (or bytes) into the pass digest."""
        self._sha.update(label.encode())
        for a in arrays:
            if isinstance(a, bytes):
                self._sha.update(a)
                continue
            a = np.ascontiguousarray(a)
            self._sha.update(f"{a.dtype.str}{a.shape}".encode())
            self._sha.update(a.tobytes())

    def digest(self) -> str:
        return self._sha.hexdigest()


@dataclass
class Workload:
    name: str
    build: Callable        # (M, seed, out_dir) -> inputs
    warm_up: Callable      # (M, cli, inputs) -> None
    tasks: list            # [(name, fn(M, cli, inputs, ctx))]


def run_cli(cli, argv) -> tuple[int, str]:
    """``cli.main`` with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main([str(a) for a in argv])
    return rc, buf.getvalue()


def lin(M):
    return M.AlphaFunction.linear(LIN_C, LIN_M)


def ecf_verdict(M, ctx: Context, name: str, samples, exact) -> None:
    """The library's own ECF verdict (sup deviation < 5/sqrt(N))."""
    rep = M.ecf_report(samples, exact, THETA_61, label=name)
    ctx.check(name, rep.passes(), f"sup deviation {rep.sup_deviation:.4g}, "
                                  f"limit {5.0 * rep.mc_stderr:.4g}")


def own_ecf_check(ctx: Context, name: str, samples, expected, thetas) -> None:
    """ECF computed here against the expected CF at 5/sqrt(N)."""
    dev = float(np.max(np.abs(cf.ecf(samples, thetas) - expected)))
    limit = 5.0 / math.sqrt(np.size(samples))
    ctx.check(name, dev < limit, f"sup deviation {dev:.4g}, limit {limit:.4g}")


def check_path_grid(ctx: Context, name: str, path, times) -> None:
    ctx.same_bits(f"{name}.times", path.times, times)
    ctx.check(f"{name}.finite", np.all(np.isfinite(path.values)) and path.values[0] == 0.0)


# ---------------------------------------------------------------------------
# ensembles: many short streams, an ECF verdict after each
# ---------------------------------------------------------------------------

# Criterion-09 shape at smaller ensembles: n = 8, d = 1.5, 16 levels.
SN_N, SN_D, SN_LEVELS = 8, 1.5, 16
SN_KS = (64, 128, 192, 256)
SN_ENSEMBLE = 120
SN_PATHS = 2
SN_MESH_LEVEL = 14
NESTED_N, NESTED_ENSEMBLE = 12, 6
NESTED_US = (0.25, 0.5, 0.75, 1.0)
# Criterion-15 shape: windows of 2^14 .. 2^9 cells at n = 16 around x = 1/2.
WINDOW_N, WINDOW_ENSEMBLE = 16, 500
WINDOW_CELLS = (16384, 8192, 2048, 512)
# The smallest ensemble verify accepts (the CLI default is 2000): it halves
# the pass, and more passes per run keep the per-task medians steady.
VERIFY_ENSEMBLE = 1000
# A trend verdict that is a coin flip at these ensembles; noted, not gated.
VERIFY_NOTED = ("localisability.linear_trend",)


def build_ensembles(M, seed: int, out_dir: Path):
    rng = np.random.default_rng([seed, 1])
    m = 2 ** SN_N
    sn_alphas = LIN_C + LIN_M * np.arange(m) / m
    k0 = 2 ** (WINDOW_N - 1)
    win_alphas = LIN_C + LIN_M * (k0 + np.arange(1, max(WINDOW_CELLS) + 1)) / 2 ** WINDOW_N
    return SimpleNamespace(
        af=lin(M),
        root=M.RandomStream(seed),
        verify_seed=int(rng.integers(2 ** 31)),
        verify_out=out_dir / "verify.json",
        mesh=np.arange(2 ** SN_MESH_LEVEL + 1, dtype=float) / 2 ** SN_MESH_LEVEL,
        sn_exact=[cf.discrete_sum_cf(THETA_61, sn_alphas[:k], SN_N) for k in SN_KS],
        nested_idx=[int(math.floor(2 ** NESTED_N * u + 1e-9)) for u in NESTED_US],
        window_k0=k0,
        window_exact=[cf.discrete_sum_cf(THETA_61, win_alphas[:c], WINDOW_N)
                      for c in WINDOW_CELLS],
    )


def warm_ensembles(M, cli, inp) -> None:
    s = M.RandomStream(0)
    af = inp.af
    M.sn_boundary_ensemble(2, af, s, [4], 2, d=SN_D, levels=2)
    M.simulate_sn(2, af, s, np.linspace(0.0, 1.0, 9), d=SN_D, levels=2,
                  with_diagnostics=True)
    M.marginal_ensemble("li", af, 3, [1.0], 2, s, nested=True)
    M.simulate_li(M.SchemeConfig(n=3, af=af, stream=s, nested=True))
    M.li_window_ensemble(af, 4, 8, [2], 2, s)
    M.ecf_report(np.zeros(4), np.ones(61), THETA_61)
    run_cli(cli, ["verify", "--suite", "stable", "--ensemble", 1000, "--seed", 0,
                  "--out", inp.verify_out])


def task_verify(M, cli, inp, ctx: Context) -> None:
    rc, _ = run_cli(cli, ["verify", "--suite", "all", "--ensemble", VERIFY_ENSEMBLE,
                          "--seed", inp.verify_seed, "--out", inp.verify_out])
    raw = inp.verify_out.read_bytes()
    ctx.count("cli.bytes_written", len(raw))
    report = json.loads(raw)
    items = report["items"]
    all_pass = all(item["passed"] for item in items)
    ctx.check("verify.exit_code", rc == (0 if all_pass else 1), f"rc={rc}")
    ctx.check("verify.all_pass_field", report["all_pass"] == all_pass)
    ctx.check("verify.items_unique", len({i["name"] for i in items}) == len(items) > 0)
    for item in items:
        if item["name"] in VERIFY_NOTED:
            ctx.note(f"verify.{item['name']}", item["passed"])
        else:
            ctx.check(f"verify.{item['name']}", item["passed"])
    report["config"].pop("out", None)
    ctx.record("verify", json.dumps(report, sort_keys=True).encode())


def task_sn_boundary(M, cli, inp, ctx: Context) -> None:
    ens = M.sn_boundary_ensemble(SN_N, inp.af, inp.root.child(9), list(SN_KS),
                                 SN_ENSEMBLE, d=SN_D, levels=SN_LEVELS)
    ctx.record("sn_boundary", ens)
    ctx.check("sn_boundary.shape", ens.shape == (SN_ENSEMBLE, len(SN_KS)))
    for col, k in enumerate(SN_KS):
        ecf_verdict(M, ctx, f"sn_boundary.ecf[k={k}]", ens[:, col], inp.sn_exact[col])
    ctx.state["sn_boundary"] = ens


def task_simulate_sn(M, cli, inp, ctx: Context) -> None:
    ens = ctx.state["sn_boundary"]
    stride = 2 ** (SN_MESH_LEVEL - SN_N)
    mids = 0.5 * (inp.mesh[:-1] + inp.mesh[1:])
    cells = np.floor(np.ldexp(mids, SN_N)).astype(np.int64)
    held = 0
    for r in range(SN_PATHS):
        path, diag = M.simulate_sn(SN_N, inp.af, inp.root.child(9).child(r), inp.mesh,
                                   d=SN_D, levels=SN_LEVELS, with_diagnostics=True)
        ctx.record(f"simulate_sn[{r}]", path.values, diag.level0_bound, diag.cell_terms)
        check_path_grid(ctx, f"simulate_sn[{r}]", path, inp.mesh)
        # docstring: ensemble row r is bit-identical to simulate_sn under child(r)
        ctx.same_bits(f"sn_boundary.row[{r}]==simulate_sn",
                      path.values[np.asarray(SN_KS) * stride], ens[r])
        jumps = np.abs(np.diff(path.values))
        top = int(np.argmax(jumps))
        held += bool(jumps[top] <= diag.level0_bound[cells[top]])
    ctx.note("simulate_sn.jump_bound_held", f"{held}/{SN_PATHS}")


def task_nested_marginal(M, cli, inp, ctx: Context) -> None:
    stream = inp.root.child(4)
    ens = M.marginal_ensemble("li", inp.af, NESTED_N, list(NESTED_US),
                              NESTED_ENSEMBLE, stream, nested=True)
    ctx.record("nested_marginal", ens)
    ctx.check("nested_marginal.finite", np.all(np.isfinite(ens)))
    # docstring: row r equals the standalone run under stream.child(r)
    for r in (0, NESTED_ENSEMBLE - 1):
        path = M.simulate_li(M.SchemeConfig(n=NESTED_N, af=inp.af, stream=stream.child(r),
                                            nested=True))
        ctx.same_bits(f"nested_marginal.row[{r}]==simulate_li",
                      path.values[inp.nested_idx], ens[r])


def task_li_window(M, cli, inp, ctx: Context) -> None:
    win = M.li_window_ensemble(inp.af, WINDOW_N, inp.window_k0, list(WINDOW_CELLS),
                               WINDOW_ENSEMBLE, inp.root.child(15))
    ctx.record("li_window", win)
    for col, cells in enumerate(WINDOW_CELLS):
        ecf_verdict(M, ctx, f"li_window.ecf[cells={cells}]", win[:, col],
                    inp.window_exact[col])


ENSEMBLES = Workload(
    name="ensembles",
    build=build_ensembles,
    warm_up=warm_ensembles,
    tasks=[("verify_all", task_verify), ("sn_boundary", task_sn_boundary),
           ("simulate_sn", task_simulate_sn), ("nested_marginal", task_nested_marginal),
           ("li_window", task_li_window)],
)


# ---------------------------------------------------------------------------
# long_paths: few very long streams and bulk artifact writes
# ---------------------------------------------------------------------------

PATH_N = 20
GLUE_N, GLUE_T, GLUE_SLOPE = 18, 4, 0.15
STABLE_DRAWS = 2 ** 21
STABLE_LAWS = ((0.8, 0.0), (1.0, 0.0), (1.5, 0.0), (2.0, 0.0), (1.3, 0.5))
FCLT_ALPHA = 1.5
# ECF checks of long arrays use an evenly strided subsample.
ECF_SUBSAMPLE = 2 ** 15
CSV_N = 18
PLOT_N, PLOT_ENSEMBLE = 12, 8


def build_long_paths(M, seed: int, out_dir: Path):
    rng = np.random.default_rng([seed, 2])
    m = 2 ** PATH_N
    ks = np.arange(1, m + 1) / m
    path_alphas = LIN_C + LIN_M * ks
    gm = 2 ** GLUE_N
    glue_alphas = np.concatenate([LIN_C + GLUE_SLOPE * (k + np.arange(1, gm + 1) / gm)
                                  for k in range(GLUE_T)])
    stride = m // ECF_SUBSAMPLE
    glue_stride = GLUE_T * gm // ECF_SUBSAMPLE
    return SimpleNamespace(
        af=lin(M),
        af_glue=M.AlphaFunction.linear(LIN_C, GLUE_SLOPE, domain=(0.0, float(GLUE_T))),
        root=M.RandomStream(seed),
        times=np.arange(m + 1, dtype=float) / m,
        path_coeffs=(2.0 ** -PATH_N) ** (1.0 / path_alphas),
        path_mean_cf=cf.mean_cf(path_alphas[stride - 1::stride], THETA_13),
        indicator_k=int(rng.integers(1, m)),
        glue_coeffs=(2.0 ** -GLUE_N) ** (1.0 / glue_alphas),
        glue_mean_cf=cf.mean_cf(glue_alphas[glue_stride - 1::glue_stride], THETA_13),
        stable_cfs=[cf.stable_cf(a, b, THETA_61) for a, b in STABLE_LAWS],
        fclt_times=np.arange(STABLE_DRAWS + 1, dtype=float) / STABLE_DRAWS,
        csv_seed=int(rng.integers(2 ** 31)),
        csv_out=out_dir / "path.csv",
        plot_seed=int(rng.integers(2 ** 31)),
        plot_out=out_dir / "ensemble.csv",
    )


def warm_long_paths(M, cli, inp) -> None:
    s = M.RandomStream(0)
    cfg = M.SchemeConfig(n=2, af=inp.af, stream=s)
    M.simulate_li(cfg)
    M.simulate_lr(cfg)
    M.simulate_lc(cfg)
    M.simulate_lc(cfg, gamma_value=4.0)
    M.weighted_mslm(M.IntegrandFunction.constant(1.0), inp.af, 2, s)
    M.sample_integral(M.IntegrandFunction.indicator(0.0, 0.5), inp.af, 2, s)
    M.glue_whole_line(inp.af_glue, 2, s)
    M.sample_stable(M.StableParams(1.3, beta=0.5), 8, s)
    M.simulate_stable_fclt(FCLT_ALPHA, 8, s)
    run_cli(cli, ["simulate", "--n", 2, "--seed", 0, "--out", inp.csv_out])
    run_cli(cli, ["simulate", "--scheme", "lr", "--n", 2, "--ensemble", 2, "--seed", 0,
                  "--plot", "--out", inp.plot_out])


def _recovered_draws(values, coeffs, count: int):
    """X_k = (L(k) - L(k-1)) / c_k at ``count`` evenly strided k."""
    stride = coeffs.size // count
    return (np.diff(values) / coeffs)[stride - 1::stride]


def task_schemes(M, cli, inp, ctx: Context) -> None:
    cfg = M.SchemeConfig(n=PATH_N, af=inp.af, stream=inp.root.child(1))
    li = M.simulate_li(cfg)
    lr = M.simulate_lr(cfg)
    lc = M.simulate_lc(cfg)
    lc_fixed = M.simulate_lc(cfg, gamma_value=float(2 ** PATH_N))
    ctx.record("schemes", li.values, lr.values, lc.values)
    for name, path in (("li", li), ("lr", lr), ("lc", lc)):
        check_path_grid(ctx, f"simulate_{name}", path, inp.times)
    # docstring: gamma_value = 2^n reproduces the field-local path exactly
    ctx.same_bits("simulate_lc(gamma=2^n)==simulate_li", lc_fixed.values, li.values)
    # the recovered draws are independent symmetric alpha_k-stable
    own_ecf_check(ctx, "simulate_li.draws_ecf",
                  _recovered_draws(li.values, inp.path_coeffs, ECF_SUBSAMPLE),
                  inp.path_mean_cf, THETA_13)
    ctx.state["li"] = li


def task_weighted_glue(M, cli, inp, ctx: Context) -> None:
    li = ctx.state["li"]
    stream = inp.root.child(1)
    wm = M.weighted_mslm(M.IntegrandFunction.constant(1.0), inp.af, PATH_N, stream)
    # docstrings: w = 1 reproduces the scheme path, an indicator integral the path value
    ctx.same_bits("weighted_mslm(w=1)==simulate_li", wm.values, li.values)
    k = inp.indicator_k
    value = M.sample_integral(M.IntegrandFunction.indicator(0.0, k / 2 ** PATH_N),
                              inp.af, PATH_N, stream)
    ctx.same_bits("sample_integral(indicator)==path value", value, li.values[k])
    glued = M.glue_whole_line(inp.af_glue, GLUE_N, inp.root.child(2))
    ctx.record("weighted_glue", wm.values, np.float64(value), glued.values)
    gm = 2 ** GLUE_N
    ctx.check("glue_whole_line.grid",
              glued.times.size == GLUE_T * gm + 1
              and np.array_equal(glued.times[::gm], np.arange(GLUE_T + 1.0))
              and np.all(np.isfinite(glued.values)))
    own_ecf_check(ctx, "glue_whole_line.draws_ecf",
                  _recovered_draws(glued.values, inp.glue_coeffs, ECF_SUBSAMPLE),
                  inp.glue_mean_cf, THETA_13)


def task_stable(M, cli, inp, ctx: Context) -> None:
    stride = STABLE_DRAWS // ECF_SUBSAMPLE
    for i, (alpha, beta) in enumerate(STABLE_LAWS):
        x = M.sample_stable(M.StableParams(alpha, beta=beta), STABLE_DRAWS,
                            inp.root.child(3, i))
        ctx.record(f"stable[{alpha},{beta}]", x)
        ctx.check(f"sample_stable[{alpha},{beta}].finite",
                  x.size == STABLE_DRAWS and np.all(np.isfinite(x)))
        own_ecf_check(ctx, f"sample_stable[{alpha},{beta}].ecf", x[::stride],
                      inp.stable_cfs[i], THETA_61)
        if beta == 0.0:
            # symmetric law: the sign of every draw is a fair coin
            share = float(np.mean(x > 0.0))
            ctx.check(f"sample_stable[{alpha}].sign_balance",
                      abs(share - 0.5) < 2.5 / math.sqrt(x.size), f"{share:.5f}")


def task_fclt(M, cli, inp, ctx: Context) -> None:
    path = M.simulate_stable_fclt(FCLT_ALPHA, STABLE_DRAWS, inp.root.child(5))
    ctx.record("fclt", path.values)
    check_path_grid(ctx, "simulate_stable_fclt", path, inp.fclt_times)
    stride = STABLE_DRAWS // ECF_SUBSAMPLE
    steps = np.diff(path.values)[::stride] * STABLE_DRAWS ** (1.0 / FCLT_ALPHA)
    own_ecf_check(ctx, "simulate_stable_fclt.steps_ecf", steps,
                  cf.stable_cf(FCLT_ALPHA, 0.0, THETA_61), THETA_61)


def _read_csv(path: Path, ctx: Context) -> tuple[dict, list[str], np.ndarray]:
    raw = path.read_bytes()
    ctx.count("cli.bytes_written", len(raw))
    lines = raw.decode().splitlines()
    meta = json.loads(lines[0][2:]) if lines[0].startswith("# ") else {}
    body = lines[2:] if meta else lines[1:]
    header = (lines[1] if meta else lines[0]).split(",")
    cells = np.array([float(v) for line in body for v in line.split(",")])
    return meta, header, cells.reshape(len(body), len(header))


def task_cli_csv(M, cli, inp, ctx: Context) -> None:
    rc, _ = run_cli(cli, ["simulate", "--scheme", "li", "--n", CSV_N, "--seed",
                          inp.csv_seed, "--out", inp.csv_out])
    ctx.check("cli.simulate_csv.exit_code", rc == 0, f"rc={rc}")
    meta, header, rows = _read_csv(inp.csv_out, ctx)
    ctx.record("cli_csv", rows)
    # the CLI runs replicate r, here the only one, under RandomStream(seed).child(r)
    want = M.simulate_li(M.SchemeConfig(n=CSV_N, af=inp.af,
                                        stream=M.RandomStream(inp.csv_seed).child(0)))
    ctx.check("cli.simulate_csv.meta", meta.get("seed") == inp.csv_seed
              and header == ["t", "value"])
    # the CSV round-trips: every row parses back to the same doubles
    ctx.same_bits("cli.simulate_csv.round_trip", rows, np.column_stack([want.times,
                                                                        want.values]))


def task_cli_plot(M, cli, inp, ctx: Context) -> None:
    rc, _ = run_cli(cli, ["simulate", "--scheme", "lr", "--n", PLOT_N, "--ensemble",
                          PLOT_ENSEMBLE, "--seed", inp.plot_seed, "--plot",
                          "--out", inp.plot_out])
    ctx.check("cli.simulate_plot.exit_code", rc == 0, f"rc={rc}")
    meta, header, rows = _read_csv(inp.plot_out, ctx)
    ctx.check("cli.simulate_plot.header", header == ["t", "value", "replicate"])
    root = M.RandomStream(inp.plot_seed)
    want = [M.simulate_lr(M.SchemeConfig(n=PLOT_N, af=inp.af, stream=root.child(r)))
            for r in range(PLOT_ENSEMBLE)]
    ctx.same_bits("cli.simulate_plot.round_trip", rows, np.concatenate(
        [np.column_stack([p.times, p.values, np.full(len(p), float(r))])
         for r, p in enumerate(want)]))
    svg = inp.plot_out.with_suffix(".svg").read_bytes()
    ctx.count("cli.bytes_written", len(svg))
    ctx.record("cli_plot", rows, svg)
    ctx.check("cli.simulate_plot.svg", svg.startswith(b"<svg")
              and svg.count(b"<polyline") == PLOT_ENSEMBLE and b"<desc>" in svg)


LONG_PATHS = Workload(
    name="long_paths",
    build=build_long_paths,
    warm_up=warm_long_paths,
    tasks=[("schemes_n20", task_schemes), ("weighted_glue", task_weighted_glue),
           ("stable_laws", task_stable), ("stable_fclt", task_fclt),
           ("cli_csv", task_cli_csv), ("cli_plot", task_cli_plot)],
)


# ---------------------------------------------------------------------------
# numerics: quadrature and closed-form work, no random draws
# ---------------------------------------------------------------------------

LF_N_RANGE = range(4, 21)
CONDITION7_LAGS = tuple(2.0 ** -k for k in range(2, 21))
STRONG_PAIRS = ((0.0, 1.0), (0.0, 0.5), (0.0, 0.25), (0.0, 0.125))
STRONG_RADIUS = 2.0 ** -4
HOELDER_PAIRS = ((0.5, 0.5 - 2.0 ** -4), (0.5, 0.5 - 2.0 ** -6), (0.5, 0.5 - 2.0 ** -8))


def _signed(rng, size: int, lo: float = 0.25, hi: float = 2.0) -> np.ndarray:
    return rng.uniform(lo, hi, size) * rng.choice([-1.0, 1.0], size)


def build_numerics(M, seed: int, out_dir: Path):
    rng = np.random.default_rng([seed, 3])
    c, m = float(rng.uniform(1.1, 1.3)), float(rng.uniform(0.4, 0.6))
    edges = (0.0, float(rng.uniform(0.25, 0.4)), float(rng.uniform(0.6, 0.75)), 1.0)
    nodes = tuple(float(v) for v in rng.uniform(0.9, 1.9, 4))
    pl_pieces = cf.nodal_pieces(edges, nodes)
    step_break = float(rng.uniform(0.3, 0.7))
    step_values = tuple(float(v) for v in rng.uniform(0.6, 1.9, 2))
    u1 = float(rng.uniform(0.1, 0.4))
    u2 = float(rng.uniform(0.6, 0.9))
    times = np.sort(rng.uniform(0.05, 1.0, 3))
    weights = _signed(rng, 3, 0.3, 1.0)
    ind_hi = float(rng.uniform(0.3, 0.7))
    cf_table = _signed(rng, 8)
    const_alpha = float(rng.uniform(0.5, 1.9))
    w_strong = float(rng.uniform(0.75, 1.25))
    w_hoelder = float(rng.uniform(0.75, 1.25))
    lin_pieces = [(0.0, 1.0, c, m)]
    strong_alpha_x = c + m * 0.5
    inp = SimpleNamespace(
        af=M.AlphaFunction.linear(c, m),
        c=c, m=m, lin_pieces=lin_pieces,
        u1=u1, u2=u2,
        af_pl=M.AlphaFunction.piecewise_linear(
            [p[1] for p in pl_pieces[:-1]], [p[2] for p in pl_pieces],
            [p[3] for p in pl_pieces]),
        pl_pieces=pl_pieces,
        af_step=M.AlphaFunction.piecewise([step_break], list(step_values)),
        step_pieces=[(0.0, step_break, step_values[0], 0.0),
                     (step_break, 1.0, step_values[1], 0.0)],
        step_break=step_break,
        times=times, weights=weights,
        ind_hi=ind_hi, cf_table=cf_table,
        lin_tables=[_signed(rng, 4) for _ in range(2)],
        step_tables=[_signed(rng, 8) for _ in range(3)],
        const_alpha=const_alpha,
        const_tables=[_signed(rng, int(rng.integers(2, 9))) for _ in range(5)],
        w_strong=w_strong,
        strong_alpha_x=strong_alpha_x,
        w_hoelder=w_hoelder,
        lf_b=float(rng.uniform(1.6, 1.9)),
        lf_u=float(rng.uniform(0.95, 0.99)),
        lf_theta=float(rng.uniform(0.5, 2.0)),
        billingsley_lam=float(rng.uniform(1.0, 3.0)),
        norm_table=_signed(rng, 3),
        norm_out=out_dir / "norm.json",
        # expected values, from the closed forms
        expint_lin=[[cf.power_integral(t, c, m, a, b) for t in THETA_61]
                    for a, b in ((0.0, 1.0), (u1, u2))],
        expint_pl=[cf.piecewise_power_integral(t, pl_pieces, 0.0, 1.0) for t in THETA_61],
        li_exp=[cf.li_exponent(lin_pieces, times, t * weights) for t in THETA_61],
        integral_exp=[cf.step_cf_exponent(t, ind_hi, 0.7, cf_table, lin_pieces)
                      for t in THETA_13],
        strong_energy=[cf.power_integral(w_strong * STRONG_RADIUS ** (-1.0 / strong_alpha_x),
                                         c, m, 0.5 + STRONG_RADIUS * v, 0.5 + STRONG_RADIUS * t)
                       for v, t in STRONG_PAIRS],
        hoelder_energy=[cf.power_integral(w_hoelder, c, m, v, t) for t, v in HOELDER_PAIRS],
        condition7=[m * t * abs(math.log(t)) for t in CONDITION7_LAGS],
    )
    inp.lf_n = [cf.lf_n_sum(inp.lf_b, inp.lf_u, inp.lf_theta, n) for n in LF_N_RANGE]
    inp.billingsley = cf.billingsley_exponential(inp.billingsley_lam)
    return inp


def _constant_weight(M, w: float):
    return M.IntegrandFunction.from_callable(
        lambda s: np.full_like(np.asarray(s, dtype=float), w), label=f"const {w}")


def warm_numerics(M, cli, inp) -> None:
    af = inp.af
    M.exponent_integral(af, 0.5, 0.0, 0.5)
    M.exponent_integral(inp.af_pl, 0.5, 0.0, 0.5)
    M.li_cf(af, [0.5], [1.0])
    M.integral_cf([M.IntegrandFunction.indicator(0.0, 0.5)], [1.0], af)
    M.quasinorm(M.IntegrandFunction.from_table([1.0, 2.0]), inp.af_step)
    kernel = M.KernelFunction.weighted_running(_constant_weight(M, 1.0))
    M.strong_localisability_check(kernel, af, 0.5, [0.25], [(0.0, 1.0), (0.0, 0.5)],
                                  independent_increments=True, with_quasinorm=False)
    M.hoelder_bound_check(kernel, af, 1.0, 2.0, 0.4, [(0.5, 0.25)], M.RandomStream(0),
                          n=1, ensemble=1)
    M.lf_n_exponent(M.plateau_identity_alpha(1.8), 0.95, 1.0, 2)
    M.check_condition7(af, np.linspace(0.0, 1.0, 5), [0.25])
    M.billingsley_bound(lambda t: math.exp(-abs(t)), 2.0)
    run_cli(cli, ["norm", "--alpha", M.AlphaFunction.constant(1.5).to_json(),
                  "--table", "1,2", "--out", inp.norm_out])


def task_exponent_integral(M, cli, inp, ctx: Context) -> None:
    for (a, b), want in zip(((0.0, 1.0), (inp.u1, inp.u2)), inp.expint_lin):
        got = [M.exponent_integral(inp.af, t, a, b) for t in THETA_61]
        ctx.record("expint_lin", np.asarray(got))
        ctx.close_to(f"exponent_integral.linear[{a:.3f},{b:.3f}]", got, want, 1e-9, 1e-15)
    got = [M.exponent_integral(inp.af_pl, t, 0.0, 1.0) for t in THETA_61]
    ctx.record("expint_pl", np.asarray(got))
    ctx.close_to("exponent_integral.piecewise_linear", got, inp.expint_pl, 1e-9, 1e-15)


def task_cfs(M, cli, inp, ctx: Context) -> None:
    got = [M.li_cf(inp.af, inp.times, t * inp.weights) for t in THETA_61]
    ctx.record("li_cf", np.asarray(got))
    ctx.close_to("li_cf", -np.log(got), inp.li_exp, 1e-9, 1e-15)
    fs = [M.IntegrandFunction.indicator(0.0, inp.ind_hi),
          M.IntegrandFunction.from_table(inp.cf_table)]
    got = [M.integral_cf(fs, [t, 0.7], inp.af) for t in THETA_13]
    ctx.record("integral_cf", np.asarray(got))
    ctx.close_to("integral_cf", -np.log(got), inp.integral_exp, 1e-8, 1e-12)


def task_quasinorm(M, cli, inp, ctx: Context) -> None:
    for i, table in enumerate(inp.lin_tables):
        q = M.quasinorm(M.IntegrandFunction.from_table(table), inp.af)
        ctx.record("quasinorm_lin", np.float64(q))
        ctx.close_to(f"quasinorm.linear[{i}].modular_is_1",
                     cf.step_modular(table, inp.lin_pieces, q), 1.0, 1e-8)
    for i, table in enumerate(inp.step_tables):
        q = M.quasinorm(M.IntegrandFunction.from_table(table), inp.af_step)
        ctx.record("quasinorm_step", np.float64(q))
        ctx.close_to(f"quasinorm.piecewise[{i}].modular_is_1",
                     cf.step_modular(table, inp.step_pieces, q, (inp.step_break,)), 1.0, 1e-9)
    alpha = inp.const_alpha
    for i, table in enumerate(inp.const_tables):
        q = M.quasinorm(M.IntegrandFunction.from_table(table), M.AlphaFunction.constant(alpha))
        ctx.record("quasinorm_const", np.float64(q))
        ctx.close_to(f"quasinorm.constant[{i}]", q,
                     float(np.mean(np.abs(table) ** alpha)) ** (1.0 / alpha), 1e-10)


def task_localisability_energies(M, cli, inp, ctx: Context) -> None:
    kernel = M.KernelFunction.weighted_running(_constant_weight(M, inp.w_strong))
    rep = M.strong_localisability_check(kernel, inp.af, 0.5, [STRONG_RADIUS],
                                        list(STRONG_PAIRS), independent_increments=True,
                                        with_quasinorm=True)
    ctx.record("strong_localisability", np.asarray(rep.lhs_table),
               np.asarray(rep.quasinorm_eta_by_r))
    ctx.close_to("strong_localisability.energies", rep.lhs_table[0], inp.strong_energy, 1e-8)
    ctx.check("strong_localisability.verdict", rep.verdict == "strongly-localisable"
              and 0.9 <= rep.eta_mean <= 1.1 and len(rep.quasinorm_eta_by_r) == 1,
              f"{rep.verdict}, eta {rep.eta_mean:.4f}")
    kernel = M.KernelFunction.weighted_running(_constant_weight(M, inp.w_hoelder))
    bound = max(inp.w_hoelder ** inp.af.a, inp.w_hoelder ** inp.af.b) * 1.01
    # n = 1 and one replicate keep the Monte-Carlo half of the check to six
    # draws: the task times the energies, which are deterministic
    rep = M.hoelder_bound_check(kernel, inp.af, 1.0, bound, 0.4, list(HOELDER_PAIRS),
                                M.RandomStream(0), n=1, ensemble=1)
    energies = [p.energy for p in rep.pairs]
    ctx.record("hoelder", np.asarray(energies))
    ctx.close_to("hoelder_bound_check.energies", energies, inp.hoelder_energy, 1e-8)
    ctx.check("hoelder_bound_check.energy_ok", all(p.energy_ok for p in rep.pairs))


def task_diagnostics(M, cli, inp, ctx: Context) -> None:
    af = M.plateau_identity_alpha(inp.lf_b)
    got = [M.lf_n_exponent(af, inp.lf_u, inp.lf_theta, n) for n in LF_N_RANGE]
    ctx.record("lf_n", np.asarray(got))
    ctx.close_to("lf_n_exponent", got, inp.lf_n, 1e-12)
    rep = M.check_condition7(inp.af, np.linspace(0.0, 1.0, 257), list(CONDITION7_LAGS))
    ctx.record("condition7", np.asarray(rep.values))
    # alpha(x) - alpha(x + t) loses about 1e-16 / t of relative precision
    ctx.close_to("check_condition7.values", rep.values, inp.condition7, 1e-6)
    ctx.check("check_condition7.verdict", rep.verdict == "satisfied", rep.verdict)
    got = M.billingsley_bound(lambda t: math.exp(-abs(t)), inp.billingsley_lam)
    ctx.record("billingsley", np.float64(got))
    ctx.close_to("billingsley_bound", got, inp.billingsley, 0.0, 1e-9)


def task_cli_norm(M, cli, inp, ctx: Context) -> None:
    table = ",".join(repr(float(v)) for v in inp.norm_table)
    rc, printed = run_cli(cli, ["norm", "--alpha", inp.af.to_json(), f"--table={table}",
                                "--out", inp.norm_out])
    ctx.check("cli.norm.exit_code", rc == 0, f"rc={rc}")
    raw = inp.norm_out.read_bytes()
    ctx.count("cli.bytes_written", len(raw))
    value = json.loads(raw)["quasinorm"]
    ctx.record("cli_norm", np.float64(value))
    ctx.check("cli.norm.printed==json", float(printed.strip()) == value)
    ctx.close_to("cli.norm.modular_is_1",
                 cf.step_modular(inp.norm_table, inp.lin_pieces, value), 1.0, 1e-8)


NUMERICS = Workload(
    name="numerics",
    build=build_numerics,
    warm_up=warm_numerics,
    tasks=[("exponent_integral", task_exponent_integral), ("cfs", task_cfs),
           ("quasinorm", task_quasinorm),
           ("localisability_energies", task_localisability_energies),
           ("diagnostics", task_diagnostics), ("cli_norm", task_cli_norm)],
)

WORKLOADS = {w.name: w for w in (ENSEMBLES, LONG_PATHS, NUMERICS)}
