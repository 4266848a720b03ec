"""Unit tests for node replication (Algorithm 2, step 2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.coalesce import transform_graph
from repro.core.knobs import CoalescingKnobs
from repro.core.renumber import renumber
from repro.core.replicate import replicate
from repro.errors import TransformError
from repro.graphs.validate import assert_valid


class TestReplicateMechanics:
    def test_chunk_size_mismatch_rejected(self, rmat_small):
        ren = renumber(rmat_small, 8)
        with pytest.raises(TransformError):
            replicate(rmat_small, ren, CoalescingKnobs(chunk_size=16))

    def test_threshold_one_only_fully_connected(self, all_structures):
        """At threshold 1.0 only nodes connected to *every* non-hole node
        of a chunk replicate (possible for nearly-empty tail chunks)."""
        for g in all_structures.values():
            ren = renumber(g, 16)
            full = replicate(g, ren, CoalescingKnobs(connectedness_threshold=1.0))
            half = replicate(g, ren, CoalescingKnobs(connectedness_threshold=0.5))
            assert full.replicas.shape[0] <= half.replicas.shape[0]

    def test_lower_threshold_more_replicas(self, social_small):
        counts = []
        for thr in (0.9, 0.5, 0.2):
            knobs = CoalescingKnobs(connectedness_threshold=thr)
            rep = replicate(social_small, renumber(social_small, 16), knobs)
            counts.append(rep.replicas.shape[0])
        assert counts[0] <= counts[1] <= counts[2]

    def test_replicas_fill_only_holes(self, social_small):
        knobs = CoalescingKnobs(connectedness_threshold=0.3)
        ren = renumber(social_small, 16)
        hole_set = set(ren.holes().tolist())
        rep = replicate(social_small, ren, knobs)
        for slot, orig in rep.replicas:
            assert slot in hole_set
            assert 0 <= orig < social_small.num_nodes
            assert rep.rep_of[slot] == orig

    def test_max_replicas_per_node_respected(self, social_small):
        knobs = CoalescingKnobs(
            connectedness_threshold=0.1, max_replicas_per_node=1
        )
        rep = replicate(social_small, renumber(social_small, 16), knobs)
        if rep.replicas.size:
            _, counts = np.unique(rep.replicas[:, 1], return_counts=True)
            assert counts.max() <= 1

    def test_graph_valid_after_replication(self, all_structures):
        for g in all_structures.values():
            rep = replicate(
                g, renumber(g, 16), CoalescingKnobs(connectedness_threshold=0.3)
            )
            assert_valid(rep.graph, allow_duplicates=True)

    def test_edge_conservation(self, social_small):
        """Moved edges are conserved; only the 2-hop additions are new."""
        knobs = CoalescingKnobs(connectedness_threshold=0.3)
        rep = replicate(social_small, renumber(social_small, 16), knobs)
        assert rep.graph.num_edges == social_small.num_edges + rep.edges_added

    def test_moved_edges_leave_primary(self, social_small):
        """After replication the primary copy no longer owns the moved
        edges (its out-degree dropped by exactly the moved count)."""
        knobs = CoalescingKnobs(connectedness_threshold=0.3)
        ren = renumber(social_small, 16)
        rep = replicate(social_small, ren, knobs)
        if rep.edges_moved == 0:
            pytest.skip("no replicas on this structure/seed")
        degs_after = rep.graph.out_degrees()
        moved_total = 0
        for slot, orig in rep.replicas:
            # replica degree = moved + added for that replica; sum check:
            moved_total += int(degs_after[slot])
        assert moved_total == rep.edges_moved + rep.edges_added

    def test_two_hop_edge_weights_are_path_sums(self, weighted_graph):
        """Any brand-new edge weight must equal some 2-hop path weight."""
        knobs = CoalescingKnobs(chunk_size=4, connectedness_threshold=0.2)
        ren = renumber(weighted_graph, 4)
        rep = replicate(weighted_graph, ren, knobs)
        if rep.edges_added == 0:
            pytest.skip("no added edges on this structure")
        # collect all 2-hop path sums of the original graph
        sums = set()
        for u in range(weighted_graph.num_nodes):
            for i, mid in enumerate(weighted_graph.neighbors(u)):
                w1 = weighted_graph.edge_weights_of(u)[i]
                for j, q in enumerate(weighted_graph.neighbors(int(mid))):
                    sums.add(round(float(w1 + weighted_graph.edge_weights_of(int(mid))[j]), 9))
        srcs = rep.graph.edge_sources()
        replica_slots = set(rep.replicas[:, 0].tolist())
        orig_weights = set(weighted_graph.weights.tolist())
        for e in range(rep.graph.num_edges):
            if int(srcs[e]) in replica_slots:
                w = float(rep.graph.weights[e])
                assert (w in orig_weights) or (round(w, 9) in sums)


class TestTransformGraphDriver:
    def test_bookkeeping(self, social_small):
        gg = transform_graph(
            social_small, CoalescingKnobs(connectedness_threshold=0.3)
        )
        assert gg.num_original == social_small.num_nodes
        assert gg.num_slots == gg.graph.num_nodes
        assert gg.num_slots >= gg.num_original
        assert gg.num_replicas + gg.num_holes + gg.num_original == gg.num_slots

    def test_lift_lower_roundtrip(self, coalesced_plan, rmat_small):
        gg = coalesced_plan.graffix
        vals = np.arange(rmat_small.num_nodes, dtype=np.float64)
        lifted = gg.lift(vals, fill=-1.0)
        assert lifted.size == gg.num_slots
        lowered = gg.lower(lifted)
        assert np.array_equal(lowered, vals)

    def test_lift_fills_holes(self, coalesced_plan):
        gg = coalesced_plan.graffix
        lifted = gg.lift(np.zeros(gg.num_original), fill=7.5)
        holes = gg.rep_of < 0
        if holes.any():
            assert (lifted[holes] == 7.5).all()

    def test_lift_replicas_start_with_original_value(self, social_small):
        gg = transform_graph(
            social_small, CoalescingKnobs(connectedness_threshold=0.3)
        )
        vals = np.random.default_rng(0).random(gg.num_original)
        lifted = gg.lift(vals)
        for slot, orig in gg.replication.replicas:
            assert lifted[slot] == vals[orig]

    def test_lift_wrong_length(self, coalesced_plan):
        with pytest.raises(TransformError):
            coalesced_plan.graffix.lift(np.zeros(3))

    def test_lower_wrong_length(self, coalesced_plan):
        with pytest.raises(TransformError):
            coalesced_plan.graffix.lower(np.zeros(3))

    def test_replica_groups_structure(self, social_small):
        gg = transform_graph(
            social_small, CoalescingKnobs(connectedness_threshold=0.2)
        )
        slots, gids, sizes = gg.replica_groups()
        if sizes.size == 0:
            pytest.skip("no replicas")
        assert slots.size == sizes.sum()
        # every group's slots map to one original
        for gid in range(sizes.size):
            members = slots[gids == gid]
            owners = set(gg.rep_of[members].tolist())
            assert len(owners) == 1
            assert len(members) >= 2

    def test_replica_group_firsts(self, social_small):
        gg = transform_graph(
            social_small, CoalescingKnobs(connectedness_threshold=0.2)
        )
        slots, gids, _sizes = gg.replica_groups()
        firsts = gg.replica_group_firsts()
        assert firsts.shape == slots.shape
        assert slots.size > 0
        for gid in np.unique(gids):
            members = slots[gids == gid]
            # the first slot listed for a group is also its smallest
            assert (firsts[gids == gid] == members[0]).all()
            assert members[0] == members.min()

    def test_extra_space_fraction_positive(self, rmat_small, coalesced_plan):
        frac = coalesced_plan.graffix.extra_space_fraction(rmat_small)
        assert 0.0 <= frac < 1.0
