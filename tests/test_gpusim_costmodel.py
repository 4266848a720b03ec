"""Unit tests for the sweep cost model and device config."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.graphs.csr import CSRGraph
from repro.gpusim.costmodel import (
    SweepCost,
    charge_sweep,
    charge_vertex_sweeps,
    expand_accesses,
)
from repro.gpusim.device import K40C, DeviceConfig
from repro.gpusim.memory import count_transactions, split_transactions
from repro.gpusim.warp import divergence_stats, form_warps
from repro.graphs.generators import PAPER_GRAPH_NAMES, paper_suite
from repro.perf.gather import expand_frontier


class TestDeviceConfig:
    def test_defaults_valid(self):
        assert K40C.warp_size == 32
        assert K40C.parallel_warps == K40C.num_sms * K40C.warps_per_sm

    def test_warp_size_power_of_two(self):
        with pytest.raises(SimulationError):
            DeviceConfig(warp_size=33)

    def test_latency_ordering_enforced(self):
        with pytest.raises(SimulationError):
            DeviceConfig(global_latency=1, shared_latency=5)
        with pytest.raises(SimulationError):
            DeviceConfig(edge_latency=1, shared_latency=5)

    def test_positive_fields_enforced(self):
        with pytest.raises(SimulationError):
            DeviceConfig(issue_cycles=0)
        with pytest.raises(SimulationError):
            DeviceConfig(clock_ghz=0)
        with pytest.raises(SimulationError):
            DeviceConfig(line_words=-4)

    def test_cycles_to_seconds(self):
        d = DeviceConfig(num_sms=10, warps_per_sm=10, clock_ghz=1.0)
        assert d.cycles_to_seconds(1e9) == pytest.approx(0.01)

    def test_with_revalidates(self):
        with pytest.raises(SimulationError):
            K40C.with_(warp_size=3)
        assert K40C.with_(warp_size=16).warp_size == 16


class TestExpandAccesses:
    def test_structure(self, tiny_graph):
        active = np.arange(tiny_graph.num_nodes)
        warp, step, epos, dst = expand_accesses(tiny_graph, active, 4)
        assert warp.size == tiny_graph.num_edges
        # node 0 sits in warp 0; its 7 edges are steps 0..6
        first = warp == 0
        assert step[epos < tiny_graph.offsets[1]].tolist() == list(range(7))
        assert np.array_equal(dst, tiny_graph.indices[epos])

    def test_empty_active(self, tiny_graph):
        warp, step, epos, dst = expand_accesses(
            tiny_graph, np.empty(0, dtype=np.int64), 4
        )
        assert warp.size == 0

    def test_subset_active(self, tiny_graph):
        active = np.array([0, 1], dtype=np.int64)
        warp, step, epos, dst = expand_accesses(tiny_graph, active, 32)
        assert warp.size == 13  # deg(0)=7 + deg(1)=6
        assert (warp == 0).all()


class TestChargeSweep:
    def test_empty_graph_is_free(self):
        g = CSRGraph.empty(8)
        cost = charge_sweep(g, K40C)
        # no edges: only the src-attribute pass and zero-degree warps
        assert cost.atomic_ops == 0
        assert cost.edge_transactions == 0

    def test_zero_active_free(self, tiny_graph):
        cost = charge_sweep(tiny_graph, K40C, np.empty(0, dtype=np.int64))
        assert cost == SweepCost()

    def test_cycles_formula(self, tiny_graph):
        d = K40C
        c = charge_sweep(tiny_graph, d)
        expected = (
            c.serial_steps * d.issue_cycles
            + c.edge_transactions * d.edge_latency
            + c.attr_global_transactions * d.global_latency
            + c.attr_shared_transactions * d.shared_latency
            + c.src_transactions * d.global_latency
            + c.atomic_ops * d.atomic_cycles
        )
        assert c.cycles == expected

    def test_atomic_ops_equal_processed_edges(self, rmat_small):
        c = charge_sweep(rmat_small, K40C)
        assert c.atomic_ops == rmat_small.num_edges

    def test_all_shared_moves_traffic(self, rmat_small):
        g_cost = charge_sweep(rmat_small, K40C)
        s_cost = charge_sweep(rmat_small, K40C, all_shared=True)
        assert s_cost.attr_global_transactions == 0
        assert s_cost.attr_shared_transactions > 0
        assert s_cost.cycles < g_cost.cycles

    def test_resident_mask_discounts(self, rmat_small):
        n = rmat_small.num_nodes
        none = charge_sweep(rmat_small, K40C)
        mask = np.zeros(n, dtype=bool)
        mask[np.argsort(-rmat_small.in_degrees())[: n // 4]] = True
        disc = charge_sweep(rmat_small, K40C, resident_mask=mask)
        assert disc.attr_shared_transactions > 0
        assert disc.cycles < none.cycles

    def test_resident_mask_length_checked(self, rmat_small):
        with pytest.raises(SimulationError):
            charge_sweep(rmat_small, K40C, resident_mask=np.ones(3, dtype=bool))

    def test_active_out_of_range(self, tiny_graph):
        with pytest.raises(SimulationError):
            charge_sweep(tiny_graph, K40C, np.array([999]))

    def test_frontier_cheaper_than_full(self, rmat_small):
        full = charge_sweep(rmat_small, K40C)
        frontier = charge_sweep(rmat_small, K40C, np.arange(10, dtype=np.int64))
        assert frontier.cycles < full.cycles

    def test_cost_addition(self):
        a = SweepCost(serial_steps=1, cycles=10.0, atomic_ops=2)
        b = SweepCost(serial_steps=2, cycles=5.0, atomic_ops=1)
        c = a + b
        assert c.serial_steps == 3 and c.cycles == 15.0 and c.atomic_ops == 3

    def test_divergence_ratio_property(self):
        c = SweepCost(busy_lane_steps=3, idle_lane_steps=1)
        assert c.divergence_ratio == 0.25
        assert SweepCost().divergence_ratio == 0.0

    def test_locality_matters(self):
        """The core premise: a layout where warp lanes' step-j targets are
        adjacent must cost fewer attribute transactions than a scattered
        one — same degrees, same edge count."""
        n, deg = 64, 4
        # clustered: node i's neighbors are i-adjacent ids
        src = np.repeat(np.arange(n), deg)
        dst_near = (np.repeat(np.arange(n), deg) + np.tile(np.arange(deg), n)) % n
        rng = np.random.default_rng(0)
        dst_far = rng.permutation(n)[dst_near]  # same multiset degrees-wise
        near = charge_sweep(CSRGraph.from_edges(n, src, dst_near), K40C)
        far = charge_sweep(CSRGraph.from_edges(n, src, dst_far), K40C)
        assert near.attr_global_transactions < far.attr_global_transactions


class TestChargeVertexSweeps:
    """Input handling of the one vertex pricer; its costs are checked
    against the independent reference in ``TestPricersMatchReference``."""

    def test_empty_list(self, rmat_small):
        assert charge_vertex_sweeps(rmat_small, K40C, []) == []

    def test_rejects_bad_ids(self, tiny_graph):
        bogus = expand_frontier(
            tiny_graph.offsets,
            tiny_graph.indices.astype(np.int64),
            np.array([0], dtype=np.int64),
        )
        bogus.frontier[0] = 999
        with pytest.raises(SimulationError):
            charge_vertex_sweeps(tiny_graph, K40C, [bogus])


def _reference_cost(
    device, serial, busy, idle, edge_t, glob_t, shared_t, src_t, all_shared=False
):
    """The cycle formula of the model's docstring, term by term; an
    ``all_shared`` sweep reads edges and sources at shared latency."""
    edge_latency = device.shared_latency if all_shared else device.edge_latency
    src_latency = device.shared_latency if all_shared else device.global_latency
    cycles = (
        serial * device.issue_cycles
        + edge_t * edge_latency
        + glob_t * device.global_latency
        + shared_t * device.shared_latency
        + src_t * src_latency
        + busy * device.atomic_cycles
    )
    return SweepCost(
        serial, busy, idle, edge_t, glob_t, shared_t, src_t, busy, float(cycles)
    )


def _attr_transactions(warp, step, dst, line, mask):
    """(global, shared) destination-attribute transactions."""
    if mask is None:
        return count_transactions(warp, step, dst, line).transactions, 0
    glob, shared = split_transactions(warp, step, dst, line, mask[dst])
    return glob.transactions, shared.transactions


def _vertex_reference(graph, device, active, mask, all_shared=False):
    """One lane per active node, priced with the composable pieces."""
    if active.size == 0:
        return SweepCost()
    ws, line = device.warp_size, device.line_words
    schedule = form_warps(active, ws)
    degs = graph.offsets[active + 1] - graph.offsets[active]
    div = divergence_stats(schedule, degs, ws)
    warp, step, epos, dst = expand_accesses(graph, active, ws)
    if all_shared:
        glob_t, shared_t = 0, _attr_transactions(warp, step, dst, line, None)[0]
    else:
        glob_t, shared_t = _attr_transactions(warp, step, dst, line, mask)
    src = count_transactions(
        schedule.warp_of_position, np.zeros(active.size, np.int64), active, line
    )
    return _reference_cost(
        device,
        div.serial_steps,
        div.busy_lane_steps,
        div.idle_lane_steps,
        count_transactions(warp, step, epos, line).transactions,
        glob_t,
        shared_t,
        src.transactions,
        all_shared,
    )


def _edge_reference(graph, device, active, mask):
    """One lane per edge record: warps of ``warp_size`` consecutive
    records in gather order, one step each."""
    ws, line = device.warp_size, device.line_words
    srcs, dsts, eposs = [], [], []
    for v in active.tolist():
        lo, hi = int(graph.offsets[v]), int(graph.offsets[v + 1])
        for e in range(lo, hi):
            srcs.append(v)
            dsts.append(int(graph.indices[e]))
            eposs.append(e)
    total = len(eposs)
    if total == 0:
        return SweepCost()
    warp = np.arange(total, dtype=np.int64) // ws
    step = np.zeros(total, dtype=np.int64)
    dst = np.array(dsts, dtype=np.int64)
    glob_t, shared_t = _attr_transactions(warp, step, dst, line, mask)
    serial = -(-total // ws)
    return _reference_cost(
        device,
        serial,
        total,
        serial * ws - total,
        count_transactions(warp, step, np.array(eposs), line).transactions,
        glob_t,
        shared_t,
        count_transactions(warp, step, np.array(srcs), line).transactions,
    )


@pytest.fixture(scope="module")
def small_suite() -> dict:
    return paper_suite("small", seed=7)


class TestPricersMatchReference:
    """``charge_sweep`` against costs assembled independently of it:
    ``expand_accesses`` + ``form_warps``/``divergence_stats`` +
    ``count_transactions``/``split_transactions`` for the vertex
    partition, a per-record loop for the edge partition.  Random
    frontiers (id order and shuffled) and full sweeps (``active=None``,
    the gather's all-nodes shortcut) of the small suite, with and without
    a resident mask."""

    @pytest.mark.parametrize("partition", ["vertex", "edge"])
    @pytest.mark.parametrize("masked", [False, True], ids=["plain", "resident"])
    @pytest.mark.parametrize("sweep", ["sorted", "shuffled", "full"])
    @pytest.mark.parametrize("name", PAPER_GRAPH_NAMES)
    def test_charge_sweep_matches_reference(
        self, small_suite, name, sweep, masked, partition
    ):
        graph = small_suite[name]
        n = graph.num_nodes
        rng = np.random.default_rng(PAPER_GRAPH_NAMES.index(name))
        mask = rng.random(n) < 0.3 if masked else None
        if sweep == "full":
            active, everyone = None, np.arange(n, dtype=np.int64)
        else:
            everyone = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
            if sweep == "sorted":
                everyone = np.sort(everyone)
            active = everyone = everyone.astype(np.int64)
        reference = _vertex_reference if partition == "vertex" else _edge_reference
        got = charge_sweep(
            graph, K40C, active, resident_mask=mask, partition=partition
        )
        assert got == reference(graph, K40C, everyone, mask)

    @pytest.mark.parametrize(
        "access", ["plain", "resident", "all_shared", "resident+all_shared"]
    )
    @pytest.mark.parametrize("name", PAPER_GRAPH_NAMES)
    def test_one_call_prices_a_run(self, small_suite, name, access):
        """One ``charge_vertex_sweeps`` call over K random sweeps — empty
        frontiers between live ones, a sweep of zero-degree nodes only,
        frontiers mixing zero-degree nodes in, id-sorted and shuffled —
        prices each sweep exactly as the reference prices it alone."""
        graph = small_suite[name]
        n = graph.num_nodes
        rng = np.random.default_rng(100 + PAPER_GRAPH_NAMES.index(name))
        mask = rng.random(n) < 0.3 if "resident" in access else None
        all_shared = "all_shared" in access
        zero = np.flatnonzero(graph.out_degrees() == 0).astype(np.int64)
        empty = np.empty(0, dtype=np.int64)
        fronts = [empty]
        for k in range(6):
            f = rng.choice(n, size=int(rng.integers(1, min(n, 300))), replace=False)
            f = np.union1d(f, zero[:5]) if k % 2 else np.sort(f)
            if k == 3:
                rng.shuffle(f)
            fronts += [f.astype(np.int64), empty]
        fronts.append(zero[:40])
        idx = graph.indices.astype(np.int64)
        sweeps = [expand_frontier(graph.offsets, idx, f) for f in fronts]
        got = charge_vertex_sweeps(
            graph, K40C, sweeps, resident_mask=mask, all_shared=all_shared
        )
        assert got == [
            _vertex_reference(graph, K40C, f, mask, all_shared) for f in fronts
        ]
