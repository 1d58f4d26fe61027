"""In-memory span tracer for the benchmark.

Spans are recorded only from the benchmark's side: :func:`install` replaces
selected public functions of ``mslevy`` with wrappers at every place the
function object is bound (its home module, every module that imported it and
the package namespace), and :func:`uninstall` puts the originals back.  Each
span stores its name, start, end, parent span and the task it belongs to;
spans stay in flat arrays until the run ends.

Self time is a span's duration minus the part of its interval covered by its
child spans (:func:`self_times`).
"""

from __future__ import annotations

import functools
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable

NO_PARENT = -1


class Tracer:
    """Span and counter store.

    ``clock`` is injectable so that tests can drive the arithmetic with
    exact times.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.name_ids = array("l")
        self.task_ids = array("l")
        self.task_names: list[str] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = [NO_PARENT]
        self._task = -1

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def open(self, nid: int) -> int:
        i = len(self.ends)
        self.parents.append(self._stack[-1])
        self.name_ids.append(nid)
        self.task_ids.append(self._task)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(self.clock())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = self.clock()
        self._stack.pop()

    def task(self, name: str) -> "_TaskSpan":
        """Context manager for one workload task: a root span whose id every
        span opened inside it shares."""
        return _TaskSpan(self, name)

    def wrap(self, fn: Callable, name: str, before=None, after=None) -> Callable:
        """A wrapper of ``fn`` that records one span per call.

        ``before(args, kwargs)`` may return replacement ``(args, kwargs)``;
        ``after(result, args, kwargs)`` sees the result (both count work).
        """
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            i = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def counting(self, fn: Callable, key: str) -> Callable:
        """A wrapper that only counts calls: for hot tiny callables, where a
        span would cost more than the call itself."""
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] = counters.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper


class _TaskSpan:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.index = -1
        self._outer = -1

    def __enter__(self):
        t = self.tracer
        self._outer = t._task
        t._task = len(t.task_names)
        t.task_names.append(self.name)
        self.index = t.open(t.name_id("task." + self.name))
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.index)
        self.tracer._task = self._outer
        return False


def self_times(starts, ends, parents) -> list[float]:
    """Per span: duration minus the length of the union of its children's
    intervals, each clipped to the parent's interval.

    Children are found through ``parents`` (``NO_PARENT`` marks roots);
    overlapping siblings are merged so no instant is subtracted twice.
    """
    n = len(starts)
    children: dict[int, list[int]] = {}
    for i in range(n):
        p = parents[i]
        if p != NO_PARENT:
            children.setdefault(p, []).append(i)
    out = [ends[i] - starts[i] for i in range(n)]
    for p, kids in children.items():
        lo, hi = starts[p], ends[p]
        covered = 0.0
        cur_s = cur_e = None
        for c in sorted(kids, key=lambda k: starts[k]):
            s, e = max(starts[c], lo), min(ends[c], hi)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out


@dataclass
class LayerTotals:
    """Aggregates of one span name over a range of spans."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Aggregate:
    by_name: dict[str, LayerTotals] = field(default_factory=dict)

    def get(self, name: str) -> LayerTotals:
        return self.by_name.get(name, LayerTotals())


def aggregate(tracer: Tracer, selfs: list[float], begin: int, end: int) -> Aggregate:
    """Calls, total and self time per span name for spans ``begin..end-1``."""
    agg = Aggregate()
    names = tracer.names
    for i in range(begin, end):
        name = names[tracer.name_ids[i]]
        tot = agg.by_name.get(name)
        if tot is None:
            tot = agg.by_name[name] = LayerTotals()
        tot.calls += 1
        tot.total_s += tracer.ends[i] - tracer.starts[i]
        tot.self_s += selfs[i]
    return agg


# ---------------------------------------------------------------------------
# installing wrappers into the package
# ---------------------------------------------------------------------------

@dataclass
class Installed:
    """Record of every replaced binding, for :func:`uninstall`."""

    bindings: list = field(default_factory=list)  # (owner, attr, original)


def _rebind(installed: Installed, owners, original, replacement) -> int:
    """Replace ``original`` by ``replacement`` wherever an owner binds it."""
    hits = 0
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            if value is original:
                installed.bindings.append((owner, attr, original))
                setattr(owner, attr, replacement)
                hits += 1
    return hits


def install(tracer: Tracer, modules, functions, methods) -> Installed:
    """Wrap ``functions`` at every binding in ``modules`` and ``methods`` on
    their classes.

    ``functions`` holds ``(home_module, attr, span_name, before, after)``
    entries and ``methods`` holds ``(cls, attr, span_name_or_None,
    counter_key)``; a method with no span name is only counted.
    """
    installed = Installed()
    for home, attr, name, before, after in functions:
        original = getattr(home, attr)
        wrapped = tracer.wrap(original, name, before, after)
        if _rebind(installed, modules, original, wrapped) == 0:
            raise RuntimeError(f"{home.__name__}.{attr} is bound nowhere")
    for cls, attr, name, key in methods:
        original = cls.__dict__[attr]
        if name is None:
            wrapped = tracer.counting(original, key)
        else:
            wrapped = tracer.wrap(original, name)
        installed.bindings.append((cls, attr, original))
        setattr(cls, attr, wrapped)
    return installed


def uninstall(installed: Installed) -> None:
    for owner, attr, original in reversed(installed.bindings):
        setattr(owner, attr, original)
    installed.bindings.clear()
