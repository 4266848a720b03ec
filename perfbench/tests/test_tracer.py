"""Self-time arithmetic and the patch-where-looked-up rule."""

import sys
import threading
import types

import pytest

import tracer


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_wrapped_children():
    clock = FakeClock()
    timer = tracer.SelfTimer(clock=clock)
    outer = timer.enter("outer")        # t=0
    clock.now = 2.0
    child = timer.enter("child")        # t=2
    clock.now = 5.0
    timer.exit(child)                   # child 3 s
    clock.now = 6.0
    child = timer.enter("child")        # t=6
    clock.now = 7.0
    timer.exit(child)                   # child 1 s
    clock.now = 10.0
    timer.exit(outer)                   # outer 10 s, 4 s in children
    assert timer.totals() == {"outer": (6.0, 1), "child": (4.0, 2)}


def test_grandchild_time_is_subtracted_once():
    clock = FakeClock()
    timer = tracer.SelfTimer(clock=clock)
    a = timer.enter("a")
    clock.now = 1.0
    b = timer.enter("b")
    clock.now = 2.0
    c = timer.enter("c")
    clock.now = 5.0
    timer.exit(c)                       # c 3
    clock.now = 6.0
    timer.exit(b)                       # b 5 total, 2 self
    clock.now = 10.0
    timer.exit(a)                       # a 10 total, 5 self
    totals = timer.totals()
    assert totals["a"] == (5.0, 1) and totals["b"] == (2.0, 1) and totals["c"] == (3.0, 1)
    assert sum(s for s, _ in totals.values()) == 10.0


def test_recursion_under_one_name_sums_self_times():
    clock = FakeClock()
    timer = tracer.SelfTimer(clock=clock)
    f1 = timer.enter("f")
    clock.now = 1.0
    f2 = timer.enter("f")
    clock.now = 3.0
    timer.exit(f2)
    clock.now = 4.0
    timer.exit(f1)
    assert timer.totals() == {"f": (4.0, 2)}


def test_out_of_order_exit_raises():
    timer = tracer.SelfTimer(clock=FakeClock())
    a = timer.enter("a")
    timer.enter("b")
    with pytest.raises(RuntimeError):
        timer.exit(a)


def test_threads_keep_separate_stacks():
    timer = tracer.SelfTimer()
    barrier = threading.Barrier(2, timeout=10)

    def work(name):
        frame = timer.enter(name)
        barrier.wait()  # both spans open at once
        timer.exit(frame)

    threads = [threading.Thread(target=work, args=(n,)) for n in ("x", "y")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    totals = timer.totals()
    assert totals["x"][1] == 1 and totals["y"][1] == 1


def test_wrap_names_by_argument_and_reports_results():
    clock = FakeClock()
    timer = tracer.SelfTimer(clock=clock)
    seen = []

    def charge(active=None):
        clock.now += 1.0
        return active

    wrapped = timer.wrap(
        charge, lambda active=None: "full" if active is None else "frontier", seen.append
    )
    assert wrapped() is None
    assert wrapped(active=[1]) == [1]
    assert timer.totals() == {"full": (1.0, 1), "frontier": (1.0, 1)}
    assert seen == [None, [1]]


def test_wrap_records_time_when_the_call_raises():
    clock = FakeClock()
    timer = tracer.SelfTimer(clock=clock)

    def boom():
        clock.now += 2.0
        raise KeyError("x")

    with pytest.raises(KeyError):
        timer.wrap(boom, "boom")()
    assert timer.totals() == {"boom": (2.0, 1)}


def test_patch_everywhere_swaps_every_repro_reference():
    def original():
        return "orig"

    defining = types.ModuleType("repro._perfbench_test_a")
    importer = types.ModuleType("repro._perfbench_test_b")
    outsider = types.ModuleType("_perfbench_test_outsider")
    defining.fn = original
    importer.alias = original
    outsider.fn = original
    names = [m.__name__ for m in (defining, importer, outsider)]
    sys.modules.update({m.__name__: m for m in (defining, importer, outsider)})
    try:
        timer = tracer.SelfTimer(clock=FakeClock())
        wrapped = timer.wrap(original, "fn")
        assert tracer._patch_everywhere(original, wrapped) >= 2
        assert defining.fn is wrapped and importer.alias is wrapped
        assert outsider.fn is original
    finally:
        for name in names:
            sys.modules.pop(name, None)


def test_layer_metrics_derive_ratios_from_counter_deltas():
    clock = FakeClock()
    timer = tracer.SelfTimer(clock=clock)
    frame = timer.enter("gpusim.charge_full")
    clock.now = 0.002
    timer.exit(frame)
    timer.count("algorithms.iterations", 7)
    before = dict.fromkeys(tracer.COUNTERS, 0.0)
    after = dict(before)
    after.update({
        "solve.sweeps": 4.0, "solve.sim_cycles": 100.0,
        "harness.exact_cache.hit": 3.0, "harness.exact_cache.miss": 1.0,
    })
    out = tracer.layer_metrics(timer, before, after)
    assert out["gpusim.us_per_sweep"] == pytest.approx(500.0)
    assert out["gpusim.sim_sweeps"] == 4.0 and out["gpusim.sim_cycles"] == 100.0
    assert out["eval.exact_cache_hit_ratio"] == 0.75
    assert out["algorithms.iterations"] == 7
    assert out["attributed_s"] == pytest.approx(0.002)
    assert out["core.build_plan_s"] == 0.0 and out["core.build_plan_calls"] == 0
