"""The transforms' 2-hop edges against brute-force dict oracles.

Both §2 (node replication) and §4 (degree padding) add edges to 2-hop
neighbours.  The oracles below rebuild those edges from the modules'
docstring specs with plain Python dicts and lists, one path at a time,
and compare every node's out-edges (destination and weight) with the
transformed graph.  The graphs are adversarial on purpose: parallel
edges with different weights, self-loops, weight ties, a node that earns
replicas in two chunks, and padded nodes with fewer 2-hop candidates
than their deficit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.core.divergence as divergence
from repro.core.divergence import normalize_degrees
from repro.core.knobs import CoalescingKnobs, DivergenceKnobs
from repro.core.renumber import renumber
from repro.core.replicate import ReplicationResult, replicate
from repro.gpusim.device import DeviceConfig
from repro.graphs.csr import CSRGraph


@st.composite
def two_hop_graphs(draw, max_nodes=20, max_edges=40):
    """Multigraphs with self-loops, parallel edges and tied weights."""
    n = draw(st.integers(2, max_nodes))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), min_size=1, max_size=max_edges))
    # near-neighbour edges close triangles inside a chunk, where 2-hop
    # targets are not already direct ones
    near = draw(st.lists(st.tuples(node, st.integers(1, 3)), max_size=max_edges))
    edges += [(v, (v + d) % n) for v, d in near]
    loops = draw(st.lists(node, max_size=3))
    edges += [(v, v) for v in loops]
    # parallel copies of some edges (weights drawn independently below)
    edges += draw(st.lists(st.sampled_from(edges), max_size=8))
    src, dst = (np.array(col, dtype=np.int64) for col in zip(*edges))
    weights = None
    if draw(st.booleans()):
        # few distinct values: tied 2-hop path weights are common
        weights = np.array(
            draw(st.lists(st.sampled_from([1.0, 2.0, 3.0]),
                          min_size=src.size, max_size=src.size))
        )
    return CSRGraph.from_edges(n, src, dst, weights)


def _rows(graph: CSRGraph) -> dict[int, list[tuple[int, float | None]]]:
    """Every node's out-edges in adjacency order, as ``(dst, weight)``."""
    rows = {}
    for v in range(graph.num_nodes):
        dsts = graph.neighbors(v).tolist()
        ws = graph.edge_weights_of(v).tolist() if graph.is_weighted else [None] * len(dsts)
        rows[v] = list(zip(dsts, ws))
    return rows


def _path_weight(w1, w2):
    return None if w1 is None else w1 + w2


def _assert_rows_equal(graph: CSRGraph, expected: dict) -> None:
    got = _rows(graph)
    assert set(got) == set(expected)
    for v in got:
        assert sorted(got[v]) == sorted(expected[v]), v


# ---------------------------------------------------------------------------
# §2: a replica of n in chunk C takes n's edges into C and gains edges to
# n's 2-hop neighbours inside C, one per target at its lightest path,
# never to n itself nor to a node n already reaches directly.
# ---------------------------------------------------------------------------
def replication_oracle(
    graph: CSRGraph, k: int, threshold: float, cap: int
) -> ReplicationResult:
    knobs = CoalescingKnobs(
        chunk_size=k, connectedness_threshold=threshold, max_replicas_per_node=cap
    )
    ren = renumber(graph, k)
    res = replicate(graph, ren, knobs)
    slot_rows = {s: [] for s in range(ren.num_slots)}
    for v, row in _rows(graph).items():
        slot_rows[int(ren.new_id[v])] += [(int(ren.new_id[d]), w) for d, w in row]
    levels = ren.slot_levels()
    non_hole = {}
    for s in range(ren.num_slots):
        if ren.rep_of[s] >= 0:
            non_hole[s // k] = non_hole.get(s // k, 0) + 1

    expected = {s: list(row) for s, row in slot_rows.items()}
    per_node: dict[int, int] = {}
    seen: set[tuple[int, int]] = set()
    moved_total = added_total = 0
    holes = set(ren.holes().tolist())
    for hole, orig in res.replicas.tolist():
        u = int(ren.new_id[orig])
        # the chunk the replica serves: every edge it owns lands there
        chunks = {d // k for d in res.graph.neighbors(hole).tolist()}
        assert len(chunks) == 1, (hole, chunks)
        (c,) = chunks
        assert hole in holes and res.rep_of[hole] == orig
        assert levels[c * k] >= 1 and levels[hole] == levels[c * k] - 1
        moved = [(d, w) for d, w in slot_rows[u] if d // k == c]
        assert len(moved) / non_hole[c] >= threshold
        assert (orig, c) not in seen
        seen.add((orig, c))
        per_node[orig] = per_node.get(orig, 0) + 1
        assert per_node[orig] <= cap

        direct = {d for d, _ in slot_rows[u]}
        best: dict[int, float | None] = {}
        for mid, w1 in slot_rows[u]:
            for t, w2 in slot_rows[mid]:
                if t // k != c or t == u or t in direct:
                    continue
                path = _path_weight(w1, w2)
                if t not in best or (path is not None and path < best[t]):
                    best[t] = path
        expected[u] = [(d, w) for d, w in expected[u] if d // k != c]
        expected[hole] = moved + sorted(best.items())
        moved_total += len(moved)
        added_total += len(best)

    _assert_rows_equal(res.graph, expected)
    assert res.edges_moved == moved_total
    assert res.edges_added == added_total
    return res


# ---------------------------------------------------------------------------
# §4: a node whose degreeSim = 1 - deg / warpMaxDeg lies in (0, threshold]
# gains edges to its first ceil(target_fraction * warpMaxDeg) - deg
# distinct 2-hop neighbours in adjacency order (never itself, never a
# direct neighbour), each weighted by the first path that reached it.
# ---------------------------------------------------------------------------
def padding_oracle(
    graph: CSRGraph, threshold: float, target_fraction: float, warp_size: int
) -> list[tuple[int, int, int]]:
    knobs = DivergenceKnobs(
        degree_sim_threshold=threshold, target_fraction=target_fraction
    )
    plan = normalize_degrees(graph, knobs, DeviceConfig(warp_size=warp_size))
    order = plan.order.tolist()
    assert sorted(order) == list(range(graph.num_nodes))
    rows = _rows(graph)
    expected = {v: list(row) for v, row in rows.items()}
    padded, deficits = [], []
    for pos, v in enumerate(order):
        warp = order[pos - pos % warp_size : pos - pos % warp_size + warp_size]
        warp_max = max(len(rows[x]) for x in warp)
        deg = len(rows[v])
        sim = 1.0 - deg / warp_max if warp_max else 0.0
        if not 0 < sim <= threshold:
            continue
        need = math.ceil(target_fraction * warp_max) - deg
        if need <= 0:
            continue
        direct = {d for d, _ in rows[v]}
        added: dict[int, float | None] = {}
        for mid, w1 in rows[v]:
            for t, w2 in rows[mid]:
                if t != v and t not in direct and t not in added:
                    added[t] = _path_weight(w1, w2)
        added_edges = list(added.items())[:need]
        expected[v] += added_edges
        deficits.append((v, need, len(added_edges)))
        if added_edges:
            padded.append(v)

    _assert_rows_equal(plan.graph, expected)
    assert plan.padded_nodes.tolist() == padded
    assert plan.edges_added == sum(got for _, _, got in deficits)
    return deficits


@given(
    two_hop_graphs(),
    st.sampled_from([2, 4]),
    st.sampled_from([0.1, 0.3, 0.6]),
    st.integers(1, 3),
)
def test_replication_matches_oracle(graph, k, threshold, cap):
    replication_oracle(graph, k, threshold, cap)


@given(
    two_hop_graphs(),
    st.sampled_from([0.3, 0.6, 1.0]),
    st.sampled_from([0.85, 1.0]),
    st.sampled_from([2, 4, 8]),
)
def test_padding_matches_oracle(graph, threshold, target_fraction, warp_size):
    padding_oracle(graph, threshold, target_fraction, warp_size)


def _two_root_graph(weighted: bool) -> CSRGraph:
    """Two BFS roots over two chunks of children that reach each other.

    Root 0 points at six of the level-1 nodes 1..8 (twice at 3 and 7,
    with different weights); root 9 points at the other two, 4 and 8, so
    they sit at level 1 too but are 2-hop targets of 0 only.  The
    children form two rings 1->2->3->4->1 and 5->6->7->8->5 with tied
    weights, and 0 and 3 carry self-loops.
    """
    src = [0] * 8 + [9, 9] + list(range(1, 9)) + [0, 3]
    dst = [1, 2, 3, 3, 5, 6, 7, 7, 4, 8, 2, 3, 4, 1, 6, 7, 8, 5, 0, 3]
    w = [1.0, 1.0, 1.0, 3.0, 1.0, 1.0, 2.0, 1.0] + [1.0] * 2 + [2.0] * 8 + [1.0, 1.0]
    return CSRGraph.from_edges(10, src, dst, w if weighted else None)


def test_node_replicated_into_two_chunks():
    for weighted in (True, False):
        res = replication_oracle(_two_root_graph(weighted), 4, 0.5, 4)
        replicas_of = np.bincount(res.replicas[:, 1], minlength=10)
        assert replicas_of[0] == 2
        assert res.edges_added > 0


def test_replica_gains_no_edge_to_its_original():
    # root 0 over one chunk {1, 2, 3, 4}; node 1 reaches half of its own
    # chunk, and its path 1 -> 2 -> 1 returns to itself
    graph = CSRGraph.from_edges(5, [0, 0, 0, 0, 1, 1, 2], [1, 2, 3, 4, 2, 3, 1])
    res = replication_oracle(graph, 4, 0.5, 1)
    assert sorted(res.replicas[:, 1].tolist()) == [0, 1]


def _hub_graph() -> CSRGraph:
    """:func:`_two_root_graph` plus a hub, node 10, of degree 10: nodes
    1..8 have degree 1 or 2 and only a few 2-hop candidates each, so
    their deficits outrun their candidates."""
    base = _two_root_graph(True)
    src = base.edge_sources().tolist() + [10] * 10
    dst = base.indices.tolist() + list(range(10))
    w = base.weights.tolist() + [1.0] * 10
    return CSRGraph.from_edges(11, src, dst, w)


def test_padding_with_fewer_candidates_than_needed():
    deficits = padding_oracle(_hub_graph(), 1.0, 1.0, 16)
    assert any(0 < got < need for _, need, got in deficits)


@pytest.mark.parametrize("block_records", [1, 3, 8])
def test_padding_blocks_match_one_pass(monkeypatch, block_records):
    # every padded node of the hub graph has a handful of 2-hop records,
    # so tiny blocks cut the pass between and inside runs of nodes
    graph = _hub_graph()
    knobs = DivergenceKnobs(degree_sim_threshold=1.0, target_fraction=1.0)
    device = DeviceConfig(warp_size=16)
    whole = normalize_degrees(graph, knobs, device)
    monkeypatch.setattr(divergence, "_BLOCK_RECORDS", block_records)
    padding_oracle(graph, 1.0, 1.0, 16)
    blocked = normalize_degrees(graph, knobs, device)
    assert blocked.graph == whole.graph
    assert np.array_equal(blocked.padded_nodes, whole.padded_nodes)
    assert blocked.edges_added == whole.edges_added > 0


def test_uniform_degrees_need_no_padding():
    ring = CSRGraph.from_edges(4, [0, 1, 2, 3], [1, 2, 3, 0])
    plan = normalize_degrees(
        ring, DivergenceKnobs(degree_sim_threshold=1.0, target_fraction=1.0),
        DeviceConfig(warp_size=4),
    )
    assert plan.graph is ring
    assert plan.edges_added == 0 and plan.padded_nodes.size == 0


@pytest.mark.parametrize(
    "graph",
    [
        CSRGraph.from_edges(3, [0, 1, 2], [0, 1, 2]),  # self-loops only
        CSRGraph.from_edges(4, [], []),  # no edges at all
    ],
    ids=["self-loops", "edgeless"],
)
def test_replication_without_picks_keeps_slot_graph(graph):
    res = replication_oracle(graph, 2, 0.1, 1)
    ren = renumber(graph, 2)
    slot_graph = CSRGraph.from_edges(
        ren.num_slots, ren.new_id[graph.edge_sources()], ren.new_id[graph.indices]
    )
    assert res.replicas.shape == (0, 2)
    assert res.edges_moved == res.edges_added == 0
    assert res.graph == slot_graph
