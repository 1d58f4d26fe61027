"""Tests of the benchmark's tracer: self-time arithmetic, span bookkeeping,
wrapper installation, and the metric list ``BENCHMARK.json`` mirrors.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import types
from pathlib import Path

import pytest

from tracer import NO_PARENT, Tracer, aggregate, install, self_times, uninstall


def _selfs(spans):
    """spans: (start, end, parent) triples."""
    starts, ends, parents = zip(*spans)
    return self_times(starts, ends, parents)


def test_nested_spans_subtract_only_direct_children():
    # A [0, 10] > B [1, 6] > C [2, 3]
    got = _selfs([(0.0, 10.0, NO_PARENT), (1.0, 6.0, 0), (2.0, 3.0, 1)])
    assert got == pytest.approx([5.0, 4.0, 1.0])


def test_sibling_spans_are_all_subtracted():
    # A [0, 10] with children B [1, 3] and C [4, 8]
    got = _selfs([(0.0, 10.0, NO_PARENT), (1.0, 3.0, 0), (4.0, 8.0, 0)])
    assert got == pytest.approx([4.0, 2.0, 4.0])


def test_overlapping_siblings_count_once():
    # children cover [1, 5] and [3, 7]: their union is 6 long
    got = _selfs([(0.0, 10.0, NO_PARENT), (1.0, 5.0, 0), (3.0, 7.0, 0)])
    assert got[0] == pytest.approx(4.0)


def test_children_are_clipped_to_their_parent():
    got = _selfs([(0.0, 5.0, NO_PARENT), (3.0, 8.0, 0)])
    assert got[0] == pytest.approx(3.0)


def test_roots_and_leaves_keep_their_duration():
    got = _selfs([(0.0, 2.0, NO_PARENT), (5.0, 6.5, NO_PARENT)])
    assert got == pytest.approx([2.0, 1.5])


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt: float) -> None:
        self.now += dt


def test_wrapped_calls_record_parents_tasks_and_self_time():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.tick(1.0)

    def outer():
        clock.tick(0.5)
        leaf_w()
        leaf_w()
        clock.tick(0.25)

    leaf_w = tracer.wrap(leaf, "m.leaf")
    outer_w = tracer.wrap(outer, "m.outer")
    with tracer.task("t0"):
        outer_w()
    with tracer.task("t1"):
        leaf_w()

    names = [tracer.names[i] for i in tracer.name_ids]
    assert names == ["task.t0", "m.outer", "m.leaf", "m.leaf", "task.t1", "m.leaf"]
    assert list(tracer.parents) == [NO_PARENT, 0, 1, 1, NO_PARENT, 4]
    assert list(tracer.task_ids) == [0, 0, 0, 0, 1, 1]
    selfs = self_times(tracer.starts, tracer.ends, tracer.parents)
    agg = aggregate(tracer, selfs, 0, len(tracer.ends))
    assert agg.get("m.outer").self_s == pytest.approx(0.75)
    assert agg.get("m.outer").total_s == pytest.approx(2.75)
    assert agg.get("m.leaf").calls == 3
    assert agg.get("m.leaf").self_s == pytest.approx(3.0)
    assert agg.get("task.t0").self_s == pytest.approx(0.0)


def test_span_closes_when_the_call_raises():
    tracer = Tracer(clock=FakeClock())

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "m.boom")()
    assert tracer.ends[0] >= tracer.starts[0]
    assert tracer._stack == [NO_PARENT]


def test_install_rebinds_every_alias_and_uninstall_restores():
    def f(x):
        return x + 1

    home = types.ModuleType("home")
    home.f = f
    user = types.ModuleType("user")
    user.f = f
    user.alias = f

    class Thing:
        def __call__(self, x):
            return 2 * x

    original_call = Thing.__dict__["__call__"]
    tracer = Tracer()
    installed = install(tracer, [home, user], [(home, "f", "home.f", None, None)],
                        [(Thing, "__call__", None, "thing.calls")])
    assert home.f is user.f is user.alias and home.f is not f
    assert user.alias(1) == 2 and Thing()(3) == 6
    assert tracer.counters == {"thing.calls": 1}
    assert len(tracer.ends) == 1
    uninstall(installed)
    assert home.f is f and user.alias is f
    assert Thing.__dict__["__call__"] is original_call


def test_benchmark_json_lists_the_emitted_per_layer_metrics():
    from layers import PER_LAYER

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
