"""Unit tests for ExecutionContext and SimMetrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.gpusim.costmodel import SweepCost
from repro.gpusim.device import K40C, DeviceConfig
from repro.gpusim.kernel import ExecutionContext
from repro.gpusim.metrics import SimMetrics
from repro.perf.gather import expand_frontier


class TestExecutionContext:
    def test_default_order_identity(self, tiny_graph):
        ctx = ExecutionContext(tiny_graph)
        assert np.array_equal(ctx.order, np.arange(tiny_graph.num_nodes))

    def test_custom_order_respected(self, tiny_graph):
        order = np.arange(tiny_graph.num_nodes)[::-1].copy()
        ctx = ExecutionContext(tiny_graph, order=order)
        assert np.array_equal(ctx.order, order)
        # ordered() must sort actives by their rank in the order
        active = np.array([0, 19], dtype=np.int64)
        assert list(ctx.ordered(active)) == [19, 0]

    def test_order_must_be_permutation(self, tiny_graph):
        n = tiny_graph.num_nodes
        for order in (
            np.zeros(n, dtype=int),
            np.arange(3),
            np.r_[-n, np.arange(1, n)],  # -n would wrap onto node 0
            np.r_[np.arange(n - 1), n],  # one past the last node
            np.arange(n) + 0.25,  # would truncate onto the identity
            np.ones(n, dtype=bool),
        ):
            with pytest.raises(SimulationError, match="processing order"):
                ExecutionContext(tiny_graph, order=order)

    def test_ordered_with_bool_mask(self, tiny_graph):
        ctx = ExecutionContext(tiny_graph)
        mask = np.zeros(tiny_graph.num_nodes, dtype=bool)
        mask[[3, 7]] = True
        assert list(ctx.ordered(mask)) == [3, 7]

    def test_ordered_mask_wrong_length(self, tiny_graph):
        ctx = ExecutionContext(tiny_graph)
        with pytest.raises(SimulationError):
            ctx.ordered(np.ones(3, dtype=bool))

    def test_charge_accumulates(self, tiny_graph):
        ctx = ExecutionContext(tiny_graph)
        c1 = ctx.charge()
        c2 = ctx.charge(np.array([0, 1]))
        assert ctx.metrics.num_sweeps == 2
        assert ctx.metrics.cycles == c1.cycles + c2.cycles

    def test_charge_subgraph(self, tiny_graph, rmat_small):
        ctx = ExecutionContext(rmat_small)
        sub_cost = ctx.charge(
            np.arange(tiny_graph.num_nodes), subgraph=tiny_graph
        )
        assert sub_cost.atomic_ops == tiny_graph.num_edges

    def test_resident_mask_checked(self, tiny_graph):
        with pytest.raises(SimulationError):
            ExecutionContext(tiny_graph, resident_mask=np.ones(2, dtype=bool))

    def test_processing_order_changes_cost(self, rmat_small):
        """Warp composition follows the order — a degree-grouped order
        must yield fewer serialized steps than a random one."""
        from repro.core.divergence import bucket_order

        rng = np.random.default_rng(1)
        random_order = rng.permutation(rmat_small.num_nodes)
        c_random = ExecutionContext(rmat_small, order=random_order)
        c_random.charge()
        grouped = ExecutionContext(rmat_small, order=bucket_order(rmat_small, 16))
        grouped.charge()
        assert (
            grouped.metrics.total.serial_steps
            < c_random.metrics.total.serial_steps
        )


class TestSimMetrics:
    def test_add_and_merge(self):
        m1 = SimMetrics(device=K40C)
        m1.add(SweepCost(cycles=10.0, atomic_ops=1))
        m2 = SimMetrics(device=K40C)
        m2.add(SweepCost(cycles=5.0, atomic_ops=2))
        m1.merge(m2)
        assert m1.cycles == 15.0
        assert m1.num_sweeps == 2
        assert m1.total.atomic_ops == 3

    def test_seconds_scaling(self):
        d = DeviceConfig(num_sms=1, warps_per_sm=1, clock_ghz=1.0)
        m = SimMetrics(device=d)
        m.add(SweepCost(cycles=2e9))
        assert m.seconds == pytest.approx(2.0)

    def test_shared_fraction(self):
        m = SimMetrics(device=K40C)
        m.add(SweepCost(attr_global_transactions=3, attr_shared_transactions=1))
        assert m.shared_fraction == 0.25
        empty = SimMetrics(device=K40C)
        assert empty.shared_fraction == 0.0

    def test_summary_keys(self):
        m = SimMetrics(device=K40C)
        m.add(SweepCost(cycles=1.0))
        s = m.summary()
        for key in ("cycles", "seconds", "sweeps", "divergence_ratio"):
            assert key in s


class TestChargeBatch:
    """charge_batch must leave the ledger exactly as per-sweep charge()
    calls would, however the sweeps are chunked, and under the
    non-identity-order fallback."""

    def _sweeps(self, graph, rng, k):
        idx = graph.indices.astype(np.int64)
        out = []
        for _ in range(k):
            size = int(rng.integers(1, graph.num_nodes))
            frontier = np.sort(
                rng.choice(graph.num_nodes, size=size, replace=False)
            ).astype(np.int64)
            out.append(expand_frontier(graph.offsets, idx, frontier))
        return out

    def _assert_same_ledger(self, graph, sweeps, **ctx_kwargs):
        batch_ctx = ExecutionContext(graph, K40C, **ctx_kwargs)
        batch_ctx.charge_batch(sweeps)
        loop_ctx = ExecutionContext(graph, K40C, **ctx_kwargs)
        for exp in sweeps:
            loop_ctx.charge(exp.frontier, expansion=exp)
        assert batch_ctx.metrics.num_sweeps == loop_ctx.metrics.num_sweeps
        assert batch_ctx.metrics.total == loop_ctx.metrics.total

    def test_matches_per_sweep_charges(self, rmat_small):
        rng = np.random.default_rng(21)
        self._assert_same_ledger(rmat_small, self._sweeps(rmat_small, rng, 7))

    def test_one_record_chunks(self, rmat_small, monkeypatch):
        # every non-empty sweep closes its own chunk: the chunk
        # boundaries must still produce the identical ledger
        monkeypatch.setattr(ExecutionContext, "CHUNK_RECORDS", 1)
        rng = np.random.default_rng(22)
        self._assert_same_ledger(rmat_small, self._sweeps(rmat_small, rng, 5))

    def test_resident_mask_respected(self, rmat_small):
        rng = np.random.default_rng(23)
        mask = rng.random(rmat_small.num_nodes) < 0.5
        self._assert_same_ledger(
            rmat_small, self._sweeps(rmat_small, rng, 5), resident_mask=mask
        )

    def test_non_identity_order_falls_back(self, rmat_small):
        rng = np.random.default_rng(24)
        order = rng.permutation(rmat_small.num_nodes).astype(np.int64)
        sweeps = self._sweeps(rmat_small, rng, 4)
        batch_ctx = ExecutionContext(rmat_small, K40C, order=order)
        batch_ctx.charge_batch(sweeps)
        loop_ctx = ExecutionContext(rmat_small, K40C, order=order)
        for exp in sweeps:
            loop_ctx.charge(exp.frontier)
        assert batch_ctx.metrics.total == loop_ctx.metrics.total

    def test_empty_batch_is_noop(self, tiny_graph):
        ctx = ExecutionContext(tiny_graph, K40C)
        ctx.charge_batch([])
        assert ctx.metrics.num_sweeps == 0

    def test_mismatched_expansion_raises(self, tiny_graph):
        exp = expand_frontier(
            tiny_graph.offsets,
            tiny_graph.indices.astype(np.int64),
            np.array([0, 1], dtype=np.int64),
        )
        ctx = ExecutionContext(tiny_graph, K40C)
        with pytest.raises(SimulationError):
            ctx.charge(np.array([2], dtype=np.int64), expansion=exp)


class TestFullSweepExpansionCache:
    """``charge(None)`` prices through the memo and the gather's
    all-nodes shortcut; the charges must equal an uncached
    ``charge_sweep`` over the explicit node list."""

    def test_identical_to_uncached_full_sweep(self, rmat_small):
        from repro.gpusim.costmodel import charge_sweep

        ctx = ExecutionContext(rmat_small, K40C)
        first = ctx.charge(None)
        second = ctx.charge(None)
        plain = charge_sweep(
            rmat_small, K40C, np.arange(rmat_small.num_nodes, dtype=np.int64)
        )
        assert first == plain
        assert second == plain

    def test_resident_mask_and_all_shared(self, rmat_small):
        from repro.gpusim.costmodel import charge_sweep

        rng = np.random.default_rng(31)
        mask = rng.random(rmat_small.num_nodes) < 0.4
        ctx = ExecutionContext(rmat_small, K40C, resident_mask=mask)
        everyone = np.arange(rmat_small.num_nodes, dtype=np.int64)
        assert ctx.charge(None) == charge_sweep(
            rmat_small, K40C, everyone, resident_mask=mask
        )
        assert ctx.charge(None, all_shared=True) == charge_sweep(
            rmat_small, K40C, everyone, all_shared=True
        )

    def test_non_identity_order_skips_cache(self, rmat_small):
        from repro.gpusim.costmodel import charge_sweep

        rng = np.random.default_rng(32)
        order = rng.permutation(rmat_small.num_nodes).astype(np.int64)
        ctx = ExecutionContext(rmat_small, K40C, order=order)
        assert ctx.charge(None) == charge_sweep(rmat_small, K40C, order)

    def test_subgraph_skips_cache(self, tiny_graph, rmat_small):
        ctx = ExecutionContext(rmat_small, K40C)
        sub = tiny_graph
        if sub.num_nodes == rmat_small.num_nodes:  # pragma: no cover
            pytest.skip("fixtures must differ for this test")
        # subgraph sweeps are gathered over the subgraph's CSR, never
        # the main graph's
        from repro.gpusim.costmodel import charge_sweep

        got = ctx.charge(
            np.arange(sub.num_nodes, dtype=np.int64), subgraph=sub
        )
        assert got == charge_sweep(
            sub, K40C, np.arange(sub.num_nodes, dtype=np.int64)
        )


class TestFullSweepMemo:
    """``price`` prices each full-sweep key once per memo (a context's
    own here); every later ``charge(None)`` reuses the same frozen cost,
    so the ledger and the counters match re-pricing bit for bit."""

    @staticmethod
    def _counting(monkeypatch):
        import repro.gpusim.kernel as kernel

        calls = []
        original = kernel.charge_sweep

        def counted(*args, **kwargs):
            calls.append(kwargs.get("partition"))
            return original(*args, **kwargs)

        monkeypatch.setattr(kernel, "charge_sweep", counted)
        return calls

    @staticmethod
    def _counter(name):
        from repro.obs import metrics as obs_metrics

        return obs_metrics.counter(name)

    def test_ledger_bit_equal_to_sequential_adds(self, rmat_small):
        from repro.gpusim.costmodel import charge_sweep

        rng = np.random.default_rng(41)
        mask = rng.random(rmat_small.num_nodes) < 0.3
        everyone = np.arange(rmat_small.num_nodes, dtype=np.int64)
        sweeps = self._counter("solve.sweeps")
        cycles = self._counter("solve.sim_cycles")
        ctx = ExecutionContext(rmat_small, K40C, resident_mask=mask)
        expected = SimMetrics(device=K40C)
        s0, c0 = sweeps.value, cycles.value
        want_cycles = c0
        for _ in range(6):
            ctx.charge(None)
            cost = charge_sweep(rmat_small, K40C, everyone, resident_mask=mask)
            expected.add(cost)
            want_cycles += cost.cycles
        assert ctx.metrics.num_sweeps == expected.num_sweeps == 6
        assert ctx.metrics.total == expected.total
        assert ctx.metrics.cycles == expected.cycles
        assert sweeps.value - s0 == 6
        assert cycles.value == want_cycles

    def test_hit_returns_same_cost_object(self, rmat_small):
        ctx = ExecutionContext(rmat_small, K40C)
        assert ctx.price(None) is ctx.charge(None) is ctx.charge(None)

    def test_cost_model_called_once_per_key(self, rmat_small, monkeypatch):
        calls = self._counting(monkeypatch)
        hits = self._counter("gpusim.full_sweep_memo.hit")
        misses = self._counter("gpusim.full_sweep_memo.miss")
        h0, m0 = hits.value, misses.value
        ctx = ExecutionContext(rmat_small, K40C)
        for _ in range(4):
            ctx.charge(None)
            ctx.charge(None, partition="edge")
            ctx.charge(None, all_shared=True)
        assert calls == ["vertex", "edge", "vertex"]
        assert misses.value - m0 == 3
        assert hits.value - h0 == 9
        # frontier sweeps are priced on every call
        frontier = np.array([0, 1], dtype=np.int64)
        ctx.charge(frontier)
        ctx.charge(frontier)
        assert len(calls) == 5
        assert misses.value - m0 == 3

    def test_keys_never_alias(self, rmat_small):
        from repro.gpusim.costmodel import charge_sweep
        from repro.perf.edgeshare import EdgeView

        g = rmat_small
        rng = np.random.default_rng(42)
        mask = rng.random(g.num_nodes) < 0.4
        everyone = np.arange(g.num_nodes, dtype=np.int64)
        rev = EdgeView(g).pull.rev
        ctx = ExecutionContext(g, K40C, resident_mask=mask)
        cases = [
            ({}, charge_sweep(g, K40C, everyone, resident_mask=mask)),
            (
                {"partition": "edge"},
                charge_sweep(g, K40C, everyone, resident_mask=mask, partition="edge"),
            ),
            ({"all_shared": True}, charge_sweep(g, K40C, everyone, all_shared=True)),
            (
                {"subgraph": rev},
                charge_sweep(rev, K40C, everyone, resident_mask=mask),
            ),
            (
                {"subgraph": rev, "partition": "edge"},
                charge_sweep(rev, K40C, everyone, resident_mask=mask, partition="edge"),
            ),
        ]
        assert len({want for _, want in cases}) == len(cases)
        for _ in range(2):  # the second round is all memo hits
            for kwargs, want in cases:
                assert ctx.charge(None, **kwargs) == want

        order = rng.permutation(g.num_nodes).astype(np.int64)
        permuted = ExecutionContext(g, K40C, order=order)
        unmasked = ExecutionContext(g, K40C)
        for _ in range(2):
            assert permuted.charge(None) == charge_sweep(g, K40C, order)
            assert unmasked.charge(None) == charge_sweep(g, K40C, everyone)
        assert permuted.charge(None) != unmasked.charge(None)
        assert unmasked.charge(None) != ctx.charge(None)

    def test_mismatched_expansion_raises_on_hit(self, tiny_graph):
        ctx = ExecutionContext(tiny_graph, K40C)
        idx = tiny_graph.indices.astype(np.int64)
        everyone = np.arange(tiny_graph.num_nodes, dtype=np.int64)
        full = expand_frontier(tiny_graph.offsets, idx, everyone)
        partial = expand_frontier(tiny_graph.offsets, idx, everyone[:2])
        ctx.charge(None)
        ctx.charge(None, expansion=full)  # a matching one is accepted
        with pytest.raises(SimulationError):
            ctx.charge(None, expansion=partial)
        assert ctx.metrics.num_sweeps == 2

    def test_unknown_partition_raises_every_call(self, tiny_graph, monkeypatch):
        calls = self._counting(monkeypatch)
        misses = self._counter("gpusim.full_sweep_memo.miss")
        m0 = misses.value
        ctx = ExecutionContext(tiny_graph, K40C)
        for _ in range(3):
            with pytest.raises(SimulationError):
                ctx.charge(None, partition="diagonal")
        assert len(calls) == 3
        assert misses.value == m0
        assert ctx.metrics.num_sweeps == 0


class TestPlanFullSweepMemo:
    """A :class:`Runner` shares its plan's memo for its device, so each
    full sweep is priced once per plan and device, not once per solve,
    and every ledger equals one priced on a fresh, unshared context."""

    @staticmethod
    def _misses() -> float:
        from repro.obs import metrics as obs_metrics

        return obs_metrics.counter("gpusim.full_sweep_memo.miss").value

    @staticmethod
    def _unshared(plan, device=K40C):
        """A runner whose context keeps a memo of its own."""
        from repro.algorithms.common import Runner

        runner = Runner(plan, device)
        runner.ctx = ExecutionContext(
            plan.graph, device, order=plan.order, resident_mask=plan.resident_mask
        )
        return runner

    @staticmethod
    def _solve(algo, plan, **kwargs):
        from repro.algorithms import pagerank, sssp

        if algo == "sssp":
            return sssp(plan, 0, **kwargs)
        return pagerank(plan, **kwargs)

    @staticmethod
    def _ledger(result):
        import dataclasses

        m = result.metrics
        return (m.device, m.num_sweeps, dataclasses.astuple(m.total))

    @pytest.mark.parametrize(
        "technique", ["exact", "coalescing", "shmem", "divergence", "combined"]
    )
    @pytest.mark.parametrize("algo", ["sssp", "pagerank"])
    def test_second_solve_prices_nothing(self, rmat_small, technique, algo):
        from repro.core.pipeline import build_plan

        plan = build_plan(rmat_small, technique)
        first = self._solve(algo, plan)
        m0 = self._misses()
        second = self._solve(algo, plan)
        assert self._misses() == m0
        fresh = self._solve(algo, plan, runner_factory=self._unshared)
        for got in (first, second):
            assert self._ledger(got) == self._ledger(fresh)
            assert got.iterations == fresh.iterations
            np.testing.assert_array_equal(got.values, fresh.values)

    def test_devices_do_not_share_entries(self, rmat_small):
        from repro.algorithms import pagerank
        from repro.core.pipeline import build_plan

        slow = K40C.with_(global_latency=48)
        plan = build_plan(rmat_small, "exact")
        pagerank(plan)
        assert plan.full_sweep_costs(K40C)
        assert plan.full_sweep_costs(slow) == {}
        m0 = self._misses()
        got = pagerank(plan, device=slow)
        assert self._misses() == m0 + 1
        want = pagerank(plan, device=slow, runner_factory=self._unshared)
        assert self._ledger(got) == self._ledger(want)
        assert got.cycles != pagerank(plan).cycles

    def test_copies_start_empty(self, rmat_small, tmp_path):
        import dataclasses

        from repro.algorithms import pagerank
        from repro.core.pipeline import build_plan
        from repro.core.serialize import load_plan, save_plan

        plan = build_plan(rmat_small, "divergence")
        pagerank(plan)
        assert plan.full_sweep_costs(K40C)
        copy = dataclasses.replace(plan)
        assert copy == plan
        assert copy.full_sweep_costs(K40C) == {}
        save_plan(plan, tmp_path / "plan.npz")
        loaded = load_plan(tmp_path / "plan.npz")
        assert loaded.full_sweep_costs(K40C) == {}
        m0 = self._misses()
        again = pagerank(loaded)
        assert self._misses() == m0 + 1
        assert self._ledger(again) == self._ledger(pagerank(plan))

    def test_tigr_keeps_its_own_memo(self, rmat_small):
        from repro.baselines import tigr
        from repro.core.pipeline import build_plan

        plan = build_plan(rmat_small, "exact")
        tigr.run("pr", plan)
        tigr.run("sssp", plan)
        assert plan.full_sweep_costs(K40C) == {}

    def test_threads_on_one_plan_share_identical_ledgers(self, rmat_small):
        import threading

        from repro.core.pipeline import build_plan

        plan = build_plan(rmat_small, "shmem")
        barrier = threading.Barrier(4)
        results = {}

        def solve(k):
            barrier.wait()
            results[k] = self._solve(("sssp", "pagerank")[k % 2], plan)

        threads = [threading.Thread(target=solve, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for k in range(4):
            algo = ("sssp", "pagerank")[k % 2]
            want = self._solve(algo, plan, runner_factory=self._unshared)
            assert self._ledger(results[k]) == self._ledger(want)
            np.testing.assert_array_equal(results[k].values, want.values)

    def test_rebuilt_reverse_view_reuses_its_entry(self, rmat_small):
        from repro.core.pipeline import build_plan

        plan = build_plan(rmat_small, "exact")
        first = self._solve("sssp", plan, schedule="pull")
        m0 = self._misses()
        rev = plan.edges.pull.rev
        plan.edges._pull = None  # the next pull solve rebuilds the view
        second = self._solve("sssp", plan, schedule="pull")
        assert plan.edges.pull.rev is not rev
        assert self._misses() == m0
        assert self._ledger(second) == self._ledger(first)
