"""mslevy benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload ensembles --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  A run first times ``SETUP_REPEATS`` fresh set-ups
(import, inputs, one small warm-up call of every public function used), then
runs a closed loop of passes: each pass runs every task of the workload once
and checks its results.  Passes stop when the next one would end after
``--seconds`` from the start of the run.

Every time is scaled to the host's speed: a fixed reference kernel, which
does not call mslevy, runs before each set-up and task and after the last,
and the times of a block (the set-ups, or one pass) are reported as
``time * REFERENCE_S / median(kernel times in the block)``, i.e. in seconds
of a host on which the kernel takes ``REFERENCE_S``.  A task's time is the
median of its scaled times over the passes.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, with the
tracing overhead.  The last line of standard output is the result object;
the line before it holds the run record (environment, digests, raw and
scaled times, failed checks and noted verdicts), also written to
``.bench_out/<workload>.json``; a traced run writes its spans to
``.bench_out/<workload>.trace.npz``.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads: the benchmark's load is one
# thread of one process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("MSLEVY_SEED", None)

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402  (outside the set-up timing: not the program)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 15
MIN_PASSES = 3           # per kind of pass (untraced, traced)
REFERENCE_S = 0.025      # nominal time of reference_kernel (fast phase, 2-vCPU Xeon)


def reference_kernel() -> float:
    """Time one run of a fixed kernel that does not call mslevy.

    Its mix follows the workloads: small numpy calls from a Python loop, a
    pure-Python loop, and one vector expression over 2^19 doubles.  On a
    shared host the speed of the CPU changes within seconds, by up to 2x;
    this kernel, run next to every timed step, measures that speed."""
    t0 = time.perf_counter()
    x = np.linspace(0.0, 1.0, 64)
    acc = 0.0
    for i in range(2000):
        acc += float(np.sum(np.sin(x * i)))
    k = 0
    for i in range(100_000):
        k += i * i % 7
    y = np.linspace(-1.0, 1.0, 1 << 19)
    acc += float(np.sum(np.exp(y) * np.cos(y)))
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc) or k != 199_999:
        raise RuntimeError("reference kernel gave a wrong result")
    return elapsed


def scaled(times, refs) -> list[float]:
    """``times`` at reference speed, with ``refs`` the reference kernel's
    times in the same block.

    The kernel's median over the block measures the host's speed better
    than the two kernel times next to a step: over ten seeds of
    ``ensembles``, the spread of ``wall_s`` was 0.073 with the block median
    and 0.100 with the mean of the neighbouring kernel times."""
    factor = REFERENCE_S / statistics.median(refs)
    return [t * factor for t in times]


def import_program():
    """A fresh import of the package from the checkout's ``src``."""
    for name in [n for n in sys.modules if n == "mslevy" or n.startswith("mslevy.")]:
        del sys.modules[name]
    package = importlib.import_module("mslevy")
    cli = importlib.import_module("mslevy.cli")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"mslevy was imported from {package.__file__}, not from {SRC}")
    return package, cli


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


class Pass:
    """Timings, checks, digest and trace range of one pass."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.task_wall: dict[str, float] = {}
        self.task_scaled: dict[str, float] = {}
        self.refs: list[float] = []
        self.wall = 0.0
        self.cpu = 0.0
        self.duration = 0.0
        self.checks: list = []
        self.notes: dict = {}
        self.digest = ""
        self.counters: dict = {}
        self.spans = (0, 0)


def run_pass(workload, package, cli, inputs, tracer) -> Pass:
    from workloads import Context

    result = Pass(traced=tracer is not None)
    ctx = Context(out_dir=OUT, tracer=tracer)
    counters_before = dict(tracer.counters) if tracer else {}
    first_span = len(tracer.ends) if tracer else 0
    gc.collect()
    start = time.perf_counter()
    for name, task in workload.tasks:
        result.refs.append(reference_kernel())
        t0, c0 = time.perf_counter(), time.process_time()
        if tracer is None:
            task(package, cli, inputs, ctx)
        else:
            with tracer.task(name):
                task(package, cli, inputs, ctx)
        result.cpu += time.process_time() - c0
        result.task_wall[name] = time.perf_counter() - t0
    result.refs.append(reference_kernel())
    result.duration = time.perf_counter() - start
    result.wall = sum(result.task_wall.values())
    result.task_scaled = dict(zip(result.task_wall,
                                  scaled(result.task_wall.values(), result.refs)))
    # with BLAS/OpenMP pinned the process runs one thread: CPU time within wall time
    ctx.check("threads.cpu_within_wall", result.cpu <= 1.02 * result.wall + 0.01,
              f"cpu {result.cpu:.3f} s, wall {result.wall:.3f} s")
    result.checks = ctx.checks
    result.notes = ctx.notes
    result.digest = ctx.digest()
    if tracer is not None:
        result.spans = (first_span, len(tracer.ends))
        result.counters = {k: v - counters_before.get(k, 0)
                           for k, v in tracer.counters.items()}
    return result


class SetUp:
    """Timed set-up of one workload: a fresh import of the package, the
    inputs built from the seed, and one small warm-up call of each public
    function used.  Each set-up follows a run of the reference kernel."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.times: list[float] = []
        self.refs: list[float] = []

    def __call__(self):
        self.refs.append(reference_kernel())
        t0 = time.perf_counter()
        package, cli = import_program()
        inputs = self.workload.build(package, self.seed, OUT)
        self.workload.warm_up(package, cli, inputs)
        self.times.append(time.perf_counter() - t0)
        return package, cli, inputs

    def scaled(self) -> list[float]:
        return scaled(self.times, self.refs + [reference_kernel()])


def measure(workload, set_up: SetUp, deadline: float, trace: bool):
    """``SETUP_REPEATS`` set-ups, then a closed loop of passes on the last
    one's inputs until the next pass would end after ``deadline``.  With
    ``trace`` the passes alternate untraced and traced, and the tracer is
    installed only around traced passes."""
    from layers import wrap_plan
    from tracer import Tracer, install, uninstall

    for _ in range(SETUP_REPEATS):
        package, cli, inputs = set_up()
    setup_s = set_up.scaled()
    tracer = Tracer() if trace else None
    passes: list[Pass] = []
    while True:
        if trace and len(passes) % 2 == 1:
            installed = install(tracer, *wrap_plan(package, tracer))
            try:
                passes.append(run_pass(workload, package, cli, inputs, tracer))
            finally:
                uninstall(installed)
        else:
            passes.append(run_pass(workload, package, cli, inputs, None))
        next_traced = trace and len(passes) % 2 == 1
        alike = [p.duration for p in passes if p.traced == next_traced] or [passes[-1].duration]
        enough = len(passes) >= (2 * MIN_PASSES if trace else MIN_PASSES)
        if enough and time.perf_counter() + statistics.median(alike) > deadline:
            break
    return setup_s, passes, tracer


def median_sum(passes) -> float:
    """Sum over tasks of the task's median scaled time across passes."""
    return sum(statistics.median(p.task_scaled[t] for p in passes)
               for t in passes[0].task_scaled)


def trace_metrics(passes, tracer) -> dict[str, float]:
    from layers import PER_LAYER, layer_metrics
    from tracer import aggregate, self_times

    selfs = self_times(tracer.starts, tracer.ends, tracer.parents)
    traced = [p for p in passes if p.traced]
    per_pass = [layer_metrics(aggregate(tracer, selfs, *p.spans), p.counters)
                for p in traced]
    out = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    plain = median_sum([p for p in passes if not p.traced])
    out["trace.overhead_share"] = (median_sum(traced) - plain) / plain
    if [n for n, _ in PER_LAYER] != list(out):
        raise RuntimeError("per-layer metrics out of step with layers.PER_LAYER")
    return out


def save_trace(tracer, path: Path) -> None:
    np.savez(path, names=np.array(tracer.names), name_ids=np.asarray(tracer.name_ids),
             starts=np.asarray(tracer.starts), ends=np.asarray(tracer.ends),
             parents=np.asarray(tracer.parents), task_ids=np.asarray(tracer.task_ids),
             task_names=np.array(tracer.task_names or [""]))


def main(argv=None) -> int:
    start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="length of the run, set-ups included (default: 40, "
                             "the run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mslevy" / "__init__.py").is_file():
        print(f"error: no mslevy sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from layers import PER_LAYER
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; pick one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)

    set_up = SetUp(workload, args.seed)
    setup_s, passes, tracer = measure(workload, set_up, start + args.seconds,
                                      bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = [c for p in passes for c in p.checks]
    digests = sorted({p.digest for p in passes})
    # every pass reruns the same inputs: traced or not, the outputs must not change
    checks.append(("digest.same_every_pass", len(digests) == 1, " ".join(digests)))
    failed = [c for c in checks if not c[1]]
    plain = [p for p in passes if not p.traced]

    if args.trace:
        metrics = trace_metrics(passes, tracer)
        units = dict(PER_LAYER)
        save_trace(tracer, OUT / f"{workload.name}.trace.npz")
    else:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "wall_s": median_sum(plain),
            "peak_rss_mb": peak_rss_mb,
            "passed_share": (len(checks) - len(failed)) / len(checks),
        }
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "passed_share": "share"}

    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "environment": environment(),
        "digest": digests[0] if len(digests) == 1 else digests,
        "passes": len(passes), "reference_s": REFERENCE_S,
        "setup_s": {"raw": set_up.times, "scaled": setup_s, "reference": set_up.refs},
        "task_wall_s": {t: {"raw": [p.task_wall[t] for p in plain],
                            "scaled": [p.task_scaled[t] for p in plain]}
                        for t in plain[0].task_wall},
        "pass_reference_s": [p.refs for p in plain],
        "pass_wall_s": [p.wall for p in plain],
        "pass_cpu_s": [p.cpu for p in plain],
        "checks_per_pass": len(passes[0].checks),
        "failed_share": len(failed) / len(checks),
        "failed_checks": sorted({f"{name}: {detail}" for name, _, detail in failed}),
        "notes": passes[-1].notes,
    }
    (OUT / f"{workload.name}.json").write_text(json.dumps(record, indent=1) + "\n")
    for name, _, detail in failed:
        print(f"check failed: {name}: {detail}", file=sys.stderr)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
