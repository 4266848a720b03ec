"""The stacked multi-source gather (``repro.perf.batched``) and BC's lanes.

The engine's contract is *bit-identical decomposition*: an S-source BC
run must be indistinguishable — values, iteration count, charged
metrics — from its sources run one by one on a shared runner.  These
tests pin the stacked gather against solo expansions, pin BC's lanes on
fixed graphs, and fuzz them over the adversarial graph strategies with
adversarial source-set shapes (singletons, pairs, duplicates, sets
covering more than half the graph).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.bc import pick_sources
from repro.core.pipeline import build_plan
from repro.gpusim.device import DeviceConfig
from repro.gpusim.kernel import ExecutionContext
from repro.graphs.generators import road_network
from repro.perf.batched import expand_lanes
from repro.perf.gather import expand_frontier
from repro.verify.differential import check_bc_lanes

from strategies import adversarial_graphs

DEV = DeviceConfig(warp_size=8, line_words=4, shared_mem_words=512)


@pytest.fixture(scope="module")
def road():
    return road_network(14, seed=3)


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
class TestBatchedEquivalence:
    @pytest.mark.parametrize("schedule", [None, "pull", "direction-optimizing"])
    def test_bc_lanes_match_solo_runs(self, road, schedule):
        srcs = pick_sources(road.num_nodes, 5, 0)
        assert check_bc_lanes(road, srcs, device=DEV, schedule=schedule) == []

    def test_bc_per_source_attribution(self, road):
        """Each source's charges are exactly its solo run's, ledgered in
        source order."""
        srcs = pick_sources(road.num_nodes, 4, 1)
        assert check_bc_lanes(road, srcs, device=DEV) == []


class TestOneRecordChunkLanes:
    """With ``CHUNK_RECORDS`` at one record every non-empty sweep closes
    its own chunk of ``ExecutionContext.price_batch``; lanes must still
    match their looped runs exactly."""

    @pytest.fixture(autouse=True)
    def _one_record_chunks(self, monkeypatch):
        monkeypatch.setattr(ExecutionContext, "CHUNK_RECORDS", 1)

    @pytest.mark.parametrize("technique", ["exact", "divergence"])
    @pytest.mark.parametrize("schedule", [None, "direction-optimizing"])
    def test_bc_lanes_match_looped(self, road, technique, schedule):
        target = road if technique == "exact" else build_plan(road, technique, device=DEV)
        srcs = pick_sources(road.num_nodes, 4, 2)
        assert check_bc_lanes(target, srcs, device=DEV, schedule=schedule) == []


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
    assert check_bc_lanes(graph, srcs, device=DEV) == []
