"""The batched multi-source sweep engine (``repro.perf.batched``).

The engine's contract is *bit-identical decomposition*: lane ``l`` of a
stacked run must be indistinguishable — values, iteration count, charged
metrics — from the same source run alone.  These tests pin that contract
on fixed graphs and fuzz it over the adversarial strategies with the
source-set shapes the issue calls out (singletons, pairs, duplicates,
sets covering more than half the graph).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.bc import pick_sources
from repro.algorithms.bfs import bfs
from repro.algorithms.sssp import sssp
from repro.core.pipeline import build_plan
from repro.errors import AlgorithmError, SimulationError
from repro.gpusim.device import DeviceConfig
from repro.gpusim.kernel import ExecutionContext
from repro.graphs.generators import rmat, road_network
from repro.perf.batched import (
    BatchedResult,
    LaneLedger,
    bfs_levels_batched,
    expand_lanes,
    lane_sources,
    sssp_batched,
)
from repro.perf.gather import expand_frontier
from repro.verify.differential import check_bc_lanes

from strategies import adversarial_graphs

DEV = DeviceConfig(warp_size=8, line_words=4, shared_mem_words=512)


@pytest.fixture(scope="module")
def road():
    return road_network(14, seed=3)


@pytest.fixture(scope="module")
def social():
    return rmat(8, edge_factor=6, seed=5)


def _assert_lane_equal(batched: BatchedResult, k: int, solo, tag: str):
    assert batched.values[k].dtype == solo.values.dtype, tag
    assert batched.values[k].tobytes() == solo.values.tobytes(), tag
    assert batched.iterations[k] == solo.iterations, tag
    assert batched.lane_metrics[k].summary() == solo.metrics.summary(), tag


# ---------------------------------------------------------------------------
class TestExpandLanes:
    def test_lane_slices_match_solo_expansions(self, road):
        rng = np.random.default_rng(0)
        fronts = [
            np.sort(rng.choice(road.num_nodes, size=s, replace=False))
            for s in (1, 7, 19)
        ]
        lx = expand_lanes(road.offsets, road.indices, fronts)
        assert len(lx.sweeps) == 3
        for sweep, front in zip(lx.sweeps, fronts):
            solo = expand_frontier(road.offsets, road.indices, front)
            assert np.array_equal(sweep.e_src, solo.e_src)
            assert np.array_equal(sweep.e_dst, solo.e_dst)
            assert np.array_equal(sweep.epos, solo.epos)
            assert np.array_equal(sweep.degs, solo.degs)

    def test_empty_frontier_lane(self, road):
        lx = expand_lanes(
            road.offsets,
            road.indices,
            [np.empty(0, dtype=np.int64), np.array([0])],
        )
        assert lx.sweeps[0].e_src.size == 0
        assert lx.rec_bounds[0] == lx.rec_bounds[1] == 0

    def test_concatenation_preserves_record_order(self, road):
        fronts = [np.array([3, 5]), np.array([1])]
        lx = expand_lanes(road.offsets, road.indices, fronts)
        solo = [expand_frontier(road.offsets, road.indices, f) for f in fronts]
        cat_src = np.concatenate([s.e_src for s in solo])
        assert np.array_equal(lx.e_src, cat_src)


# ---------------------------------------------------------------------------
class TestLaneLedger:
    def test_defer_requires_flush(self, road):
        ctx = ExecutionContext(road, DEV)
        ledger = LaneLedger(1)
        exp = expand_frontier(road.offsets, road.indices, np.array([0]))
        ledger.defer(0, exp)
        with pytest.raises(SimulationError):
            ledger.lane_metrics(DEV)
        with pytest.raises(SimulationError):
            ledger.replay(ctx)
        ledger.flush(ctx)
        metrics = ledger.lane_metrics(DEV)
        assert metrics[0].num_sweeps == 1

    def test_flush_matches_eager_charge(self, road):
        # deferred-then-flushed costs must be the eager scalar costs
        rng = np.random.default_rng(1)
        fronts = [
            np.sort(rng.choice(road.num_nodes, size=s, replace=False))
            for s in (2, 9, 31, 64)
        ]
        ctx = ExecutionContext(road, DEV)
        ledger = LaneLedger(len(fronts))
        for lane, front in enumerate(fronts):
            ledger.defer(lane, expand_frontier(road.offsets, road.indices, front))
        ledger.flush(ctx)
        for lane, front in enumerate(fronts):
            eager = ExecutionContext(road, DEV)
            eager.charge(active=front)
            assert (
                ledger.lane_metrics(DEV)[lane].summary()
                == eager.metrics.summary()
            )

    def test_replay_reproduces_looped_totals(self, road):
        fronts = [np.array([0, 1]), np.array([5])]
        ledger = LaneLedger(2)
        ctx = ExecutionContext(road, DEV)
        for lane, front in enumerate(fronts):
            ledger.defer(lane, expand_frontier(road.offsets, road.indices, front))
        ledger.flush(ctx)
        ledger.replay(ctx)
        looped = ExecutionContext(road, DEV)
        for front in fronts:
            looped.charge(active=front)
        assert ctx.metrics.summary() == looped.metrics.summary()
        assert ctx.metrics.num_sweeps == looped.metrics.num_sweeps

    def test_lane_sources_validation(self):
        with pytest.raises(AlgorithmError):
            lane_sources([], 4)
        with pytest.raises(AlgorithmError):
            lane_sources([4], 4)
        with pytest.raises(AlgorithmError):
            lane_sources([-1], 4)
        assert lane_sources([2, 2], 4).tolist() == [2, 2]  # dups allowed


# ---------------------------------------------------------------------------
class TestBatchedEquivalence:
    @pytest.mark.parametrize("technique", ["exact", "coalescing"])
    @pytest.mark.parametrize("schedule", [None, "direction-optimizing"])
    def test_bfs_lanes_match_looped(self, road, technique, schedule):
        target = road if technique == "exact" else build_plan(road, technique, device=DEV)
        srcs = [0, 17, 17, road.num_nodes - 1]  # includes a duplicate
        bb = bfs_levels_batched(target, srcs, device=DEV, schedule=schedule)
        assert bb.values.shape == (len(srcs), road.num_nodes)
        for k, s in enumerate(srcs):
            solo = bfs(target, s, device=DEV, schedule=schedule)
            _assert_lane_equal(bb, k, solo, f"bfs lane {k} {technique}/{schedule}")

    @pytest.mark.parametrize("technique", ["exact", "divergence"])
    @pytest.mark.parametrize("schedule", [None, "direction-optimizing"])
    def test_sssp_lanes_match_looped(self, social, technique, schedule):
        target = (
            social if technique == "exact" else build_plan(social, technique, device=DEV)
        )
        srcs = [1, 2, 200]
        sb = sssp_batched(target, srcs, device=DEV, schedule=schedule)
        for k, s in enumerate(srcs):
            solo = sssp(target, s, device=DEV, schedule=schedule)
            _assert_lane_equal(sb, k, solo, f"sssp lane {k} {technique}/{schedule}")

    @pytest.mark.parametrize("schedule", [None, "pull", "direction-optimizing"])
    def test_bc_lanes_match_solo_runs(self, road, schedule):
        srcs = pick_sources(road.num_nodes, 5, 0)
        assert check_bc_lanes(road, srcs, device=DEV, schedule=schedule) == []

    def test_bc_per_source_attribution(self, road):
        """Each source's charges are exactly its solo run's, ledgered in
        source order."""
        srcs = pick_sources(road.num_nodes, 4, 1)
        assert check_bc_lanes(road, srcs, device=DEV) == []

    def test_single_lane_equals_solo(self, road):
        bb = bfs_levels_batched(road, [42], device=DEV)
        solo = bfs(road, 42, device=DEV)
        _assert_lane_equal(bb, 0, solo, "single lane")


class TestEagerRoutedLanes:
    """With every non-empty sweep over ``BATCH_EAGER_EDGES`` the lane
    path prices through the scalar arm of ``ExecutionContext.price_batch``;
    lanes must still match their looped runs exactly."""

    @pytest.fixture(autouse=True)
    def _force_eager(self, monkeypatch):
        monkeypatch.setattr(ExecutionContext, "BATCH_EAGER_EDGES", 1)

    @pytest.mark.parametrize("technique", ["exact", "divergence"])
    @pytest.mark.parametrize("schedule", [None, "direction-optimizing"])
    def test_bc_lanes_match_looped(self, road, technique, schedule):
        target = road if technique == "exact" else build_plan(road, technique, device=DEV)
        srcs = pick_sources(road.num_nodes, 4, 2)
        assert check_bc_lanes(target, srcs, device=DEV, schedule=schedule) == []

    @pytest.mark.parametrize("schedule", [None, "direction-optimizing"])
    def test_sssp_lanes_match_looped(self, social, schedule):
        srcs = [1, 2, 200]
        sb = sssp_batched(social, srcs, device=DEV, schedule=schedule)
        for k, s in enumerate(srcs):
            solo = sssp(social, s, device=DEV, schedule=schedule)
            _assert_lane_equal(sb, k, solo, f"sssp lane {k}/{schedule}")


# ---------------------------------------------------------------------------
@st.composite
def _source_sets(draw, n):
    """Adversarial source-set shapes: 1, 2, duplicates, S > n/2."""
    shape = draw(st.sampled_from(["single", "pair", "dup", "wide"]))
    pick = lambda: draw(st.integers(0, n - 1))  # noqa: E731
    if shape == "single":
        return [pick()]
    if shape == "pair":
        return [pick(), pick()]
    if shape == "dup":
        s = pick()
        return [s, s, pick()]
    size = min(n, n // 2 + 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    return rng.choice(n, size=size, replace=False).tolist()


@settings(max_examples=25, deadline=None)
@given(data=st.data(), graph=adversarial_graphs())
def test_fuzz_batched_matches_looped(data, graph):
    srcs = data.draw(_source_sets(graph.num_nodes))
    bb = bfs_levels_batched(graph, srcs, device=DEV)
    sb = sssp_batched(graph, srcs, device=DEV)
    for k, s in enumerate(srcs):
        _assert_lane_equal(bb, k, bfs(graph, s, device=DEV), f"bfs lane {k}")
        _assert_lane_equal(sb, k, sssp(graph, s, device=DEV), f"sssp lane {k}")
