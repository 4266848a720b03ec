"""Engine equivalence: the frontier-gather engine's contract.

The ``repro.perf`` engine is a pure host-side optimisation: however a
solve is driven, it must produce **byte-identical values, identical
iteration counts, and identical SimMetrics charges**.  Recorded truth
lives in the golden pins (``sssp_wcc_golden.json``, ``bc_golden.json``)
and the independent oracles; these tests hold the engine's paths to each
other across every plan technique (exact, coalescing, shmem,
divergence): single-source SSSP on a fresh runner against the same
source on a runner another source already drove (the multi-source
path) and, on exact plans, against Dijkstra; every schedule against the
unscheduled run; and BC's stacked S-source run against the same sources
run one at a time on a shared runner.

Byte-identical means ``tobytes()`` equality — stricter than
``np.array_equal`` (distinguishes ``-0.0`` from ``0.0`` and NaN
payloads), because the engine claims the *same floating-point
operations in the same order*, not merely the same mathematical result.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.bc import betweenness_centrality, pick_sources
from repro.algorithms.common import Runner, plan_for
from repro.algorithms.exact import exact_sssp
from repro.algorithms.sssp import sssp
from repro.core.pipeline import build_plan
from repro.verify.differential import check_bc_lanes

TECHNIQUES = ("exact", "coalescing", "shmem", "divergence")


def _plan_for(graph, technique):
    if technique == "exact":
        return graph
    return build_plan(graph, technique)


def assert_identical(engine_res, reference_res):
    """Byte-identical values + identical iterations and charges."""
    assert engine_res.values.dtype == reference_res.values.dtype
    assert engine_res.values.tobytes() == reference_res.values.tobytes()
    assert engine_res.iterations == reference_res.iterations
    assert engine_res.metrics.num_sweeps == reference_res.metrics.num_sweeps
    # SweepCost is a frozen dataclass: == compares every charge field,
    # including the final cycle count
    assert engine_res.metrics.total == reference_res.metrics.total


def assert_sssp_matches_warm_runner(graph, technique, source):
    """``sssp`` on a fresh runner equals the same source run on a runner
    another source already drove, and Dijkstra when exact."""
    plan = _plan_for(graph, technique)
    solo = sssp(plan, source)
    shared = Runner(plan_for(plan))
    sssp(plan, (source + 1) % graph.num_nodes, runner_factory=lambda p, d: shared)
    swept = shared.metrics.num_sweeps
    warm = sssp(plan, source, runner_factory=lambda p, d: shared)
    assert solo.values.dtype == warm.values.dtype
    assert solo.values.tobytes() == warm.values.tobytes()
    assert solo.iterations == warm.iterations
    assert shared.metrics.num_sweeps - swept == solo.metrics.num_sweeps
    if technique == "exact":
        ref = exact_sssp(graph, source)
        assert np.array_equal(np.isfinite(solo.values), np.isfinite(ref))
        finite = np.isfinite(ref)
        assert np.allclose(solo.values[finite], ref[finite])


@pytest.mark.parametrize("technique", TECHNIQUES)
class TestSSSPEquivalence:
    def test_rmat(self, rmat_small, technique):
        source = int(np.argmax(rmat_small.out_degrees()))
        assert_sssp_matches_warm_runner(rmat_small, technique, source)

    def test_road(self, road_small, technique):
        assert_sssp_matches_warm_runner(road_small, technique, 0)


@pytest.mark.parametrize("technique", TECHNIQUES)
@pytest.mark.parametrize("strategy", ["inner", "outer"])
class TestBCEquivalence:
    def test_rmat(self, rmat_small, technique, strategy):
        plan = _plan_for(rmat_small, technique)
        sources = pick_sources(rmat_small.num_nodes, 4, 1)
        if strategy == "inner":
            assert check_bc_lanes(plan, sources) == []
            return
        # outer: the inner run's values, one charged sweep per level of
        # the deepest source in each pass
        outer = betweenness_centrality(plan, sources=sources, strategy="outer")
        inner = betweenness_centrality(plan, sources=sources)
        assert outer.values.tobytes() == inner.values.tobytes()
        assert outer.iterations == inner.iterations
        depths = [
            betweenness_centrality(plan, sources=[int(s)]).iterations
            for s in sources
        ]
        assert outer.metrics.num_sweeps == 2 * max(depths)


@pytest.mark.parametrize("technique", TECHNIQUES)
@pytest.mark.parametrize("schedule", ["push", "pull", "direction-optimizing"])
class TestScheduleEquivalence:
    """Schedules are cost-model-only: under ANY schedule the engine must
    still match the unscheduled run byte-for-byte in values and
    iteration counts — including Graffix plans with replica groups —
    and a pull sweep's *charges* must be bit-faithful to its own
    schedule (reproducible), while push-pinned charges coincide with
    the unscheduled run's exactly."""

    def test_sssp_values_match_reference(self, rmat_small, technique, schedule):
        plan = _plan_for(rmat_small, technique)
        source = int(np.argmax(rmat_small.out_degrees()))
        eng = sssp(plan, source, schedule=schedule)
        ref = sssp(plan, source)
        assert eng.values.dtype == ref.values.dtype
        assert eng.values.tobytes() == ref.values.tobytes()
        assert eng.iterations == ref.iterations
        if schedule == "push":
            assert_identical(eng, ref)
        else:
            # non-push charges differ from push by design but
            # must be deterministic per schedule
            again = sssp(plan, source, schedule=schedule)
            assert eng.metrics.total == again.metrics.total

    def test_sssp_road(self, road_small, technique, schedule):
        plan = _plan_for(road_small, technique)
        eng = sssp(plan, 0, schedule=schedule)
        ref = sssp(plan, 0)
        assert eng.values.tobytes() == ref.values.tobytes()
        assert eng.iterations == ref.iterations

    def test_bc_values_match_reference(self, rmat_small, technique, schedule):
        plan = _plan_for(rmat_small, technique)
        eng = betweenness_centrality(
            plan, num_sources=4, seed=1, schedule=schedule
        )
        ref = betweenness_centrality(plan, num_sources=4, seed=1)
        assert eng.values.dtype == ref.values.dtype
        assert eng.values.tobytes() == ref.values.tobytes()
        assert eng.iterations == ref.iterations
        if schedule == "push":
            assert_identical(eng, ref)


class TestBCEngineValidation:
    def test_topology_driven_equivalence(self, rmat_small):
        sources = pick_sources(rmat_small.num_nodes, 2, 0)
        assert check_bc_lanes(rmat_small, sources, topology_driven=True) == []
        full = betweenness_centrality(
            rmat_small, sources=sources, topology_driven=True
        )
        frontier = betweenness_centrality(rmat_small, sources=sources)
        assert full.values.tobytes() == frontier.values.tobytes()
        # one full sweep per level of either pass
        assert full.metrics.num_sweeps == 2 * full.iterations
