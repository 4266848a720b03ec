"""White-box tests for the Tigr virtual-split cost accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.tigr import TigrRunner, _TigrContext, virtual_split
from repro.core.pipeline import build_plan
from repro.algorithms.common import plan_for
from repro.gpusim.device import K40C
from repro.obs import metrics as obs_metrics
from repro.perf.gather import expand_frontier


class TestVirtualize:
    def test_maps_masters_to_their_ranges(self, twitter_small):
        split = virtual_split(twitter_small, vmax=4)
        ctx = _TigrContext(split, K40C)
        hub = int(np.argmax(twitter_small.out_degrees()))
        virtual = ctx._virtualize(np.array([hub], dtype=np.int64))
        lo, hi = split.vstart[hub], split.vstart[hub + 1]
        assert np.array_equal(virtual, np.arange(lo, hi))
        assert virtual.size == -(-int(twitter_small.out_degrees()[hub]) // 4)

    def test_bool_mask_accepted(self, tiny_graph):
        split = virtual_split(tiny_graph, vmax=4)
        ctx = _TigrContext(split, K40C)
        mask = np.zeros(tiny_graph.num_nodes, dtype=bool)
        mask[[0, 3]] = True
        virtual = ctx._virtualize(mask)
        expected = np.concatenate(
            [
                np.arange(split.vstart[0], split.vstart[1]),
                np.arange(split.vstart[3], split.vstart[4]),
            ]
        )
        assert np.array_equal(virtual, expected)

    def test_none_passthrough(self, tiny_graph):
        split = virtual_split(tiny_graph, vmax=4)
        ctx = _TigrContext(split, K40C)
        assert ctx._virtualize(None) is None

    def test_empty_active(self, tiny_graph):
        split = virtual_split(tiny_graph, vmax=4)
        ctx = _TigrContext(split, K40C)
        out = ctx._virtualize(np.empty(0, dtype=np.int64))
        assert out.size == 0


class TestChargeSemantics:
    def test_frontier_charge_expands_to_virtual(self, twitter_small):
        split = virtual_split(twitter_small, vmax=4)
        ctx = _TigrContext(split, K40C)
        hub = int(np.argmax(twitter_small.out_degrees()))
        cost = ctx.charge(np.array([hub], dtype=np.int64))
        # all the hub's edges processed, but across many low-degree lanes
        assert cost.atomic_ops == int(twitter_small.out_degrees()[hub])
        assert cost.serial_steps <= 4 * (
            -(-int(twitter_small.out_degrees()[hub]) // 4) // 1
        )

    def test_divergence_bounded_by_vmax(self, twitter_small):
        split = virtual_split(twitter_small, vmax=4)
        ctx = _TigrContext(split, K40C)
        cost = ctx.charge(None)
        # per-warp serialized steps can never exceed vmax
        assert cost.serial_steps <= 4 * split.num_virtual / K40C.warp_size + 4

    def test_resident_mask_padded(self, rmat_small):
        plan = build_plan(rmat_small, "shmem")
        if plan.resident_mask is None or not plan.resident_mask.any():
            pytest.skip("no clusters")
        runner = TigrRunner(plan, K40C)
        cost = runner.ctx.charge(None)
        assert cost.attr_shared_transactions > 0

    def test_cluster_subgraph_stays_master_space(self, rmat_small):
        plan = build_plan(rmat_small, "shmem")
        if not plan.has_clusters:
            pytest.skip("no clusters")
        runner = TigrRunner(plan, K40C)
        resident = np.nonzero(plan.resident_mask)[0]
        cost = runner.ctx.charge(
            resident, all_shared=True, subgraph=plan.cluster_graph
        )
        assert cost.attr_global_transactions == 0
        assert cost.atomic_ops == int(
            (plan.cluster_graph.offsets[resident + 1]
             - plan.cluster_graph.offsets[resident]).sum()
        )


class TestBatchCharging:
    """Tigr prices sweeps in one place: a batch charge must record the
    same virtualised costs as charging each sweep on its own."""

    def _sweeps(self, graph):
        hub = int(np.argmax(graph.out_degrees()))
        rng = np.random.default_rng(3)
        idx = graph.indices.astype(np.int64)
        fronts = [np.array([hub], dtype=np.int64)] + [
            np.sort(rng.choice(graph.num_nodes, size=s, replace=False))
            for s in (5, 40)
        ]
        return [expand_frontier(graph.offsets, idx, f) for f in fronts]

    def test_charge_batch_equals_per_sweep_charges(self, twitter_small):
        split = virtual_split(twitter_small, vmax=4)
        sweeps = self._sweeps(twitter_small)
        batched = _TigrContext(split, K40C)
        batched.charge_batch(sweeps)
        looped = _TigrContext(split, K40C)
        for exp in sweeps:
            looped.charge(exp.frontier)
        assert batched.metrics.num_sweeps == looped.metrics.num_sweeps == 3
        assert batched.metrics.total == looped.metrics.total

    def test_charges_advance_solve_counters(self, tiny_graph):
        ctx = _TigrContext(virtual_split(tiny_graph, vmax=4), K40C)
        sweeps = obs_metrics.counter("solve.sweeps")
        cycles = obs_metrics.counter("solve.sim_cycles")
        s0, c0 = sweeps.value, cycles.value
        cost = ctx.charge(None)
        assert sweeps.value - s0 == 1
        assert cycles.value - c0 == cost.cycles


class TestRunnerIntegration:
    def test_tigr_runner_exact_plan(self, rmat_small):
        runner = TigrRunner(plan_for(rmat_small), K40C)
        assert runner.split.num_virtual >= rmat_small.num_nodes
        runner.ctx.charge(None)
        assert runner.metrics.cycles > 0

    def test_idle_lanes_fewer_than_master_space(self, twitter_small):
        from repro.algorithms.sssp import sssp
        from repro.baselines import tigr

        src = int(np.argmax(twitter_small.out_degrees()))
        master = sssp(twitter_small, src)
        virtualized = tigr.run("sssp", twitter_small, source=src)
        assert (
            virtualized.metrics.total.idle_lane_steps
            < master.metrics.total.idle_lane_steps
        )


class TestFullSweepMemo:
    """Tigr overrides only the sweep pricer, so its full sweeps go
    through the base context's memo."""

    def test_virtual_graph_priced_once(self, rmat_small, monkeypatch):
        import repro.baselines.tigr as tigr

        plan = build_plan(rmat_small, "shmem")
        runner = TigrRunner(plan, K40C)
        ctx = runner.ctx
        original = tigr.charge_sweep
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(tigr, "charge_sweep", counted)
        virtual = runner.split.graph
        everyone = np.arange(virtual.num_nodes, dtype=np.int64)
        want = original(virtual, K40C, everyone, resident_mask=ctx.resident_mask)
        costs = [ctx.charge(None) for _ in range(4)]
        assert calls == [virtual]
        assert all(cost == want for cost in costs)
        assert ctx.metrics.num_sweeps == 4
