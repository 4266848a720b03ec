"""Property tests: parser robustness and confluence-operator algebra."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphFormatError
from repro.graphs.io import read_dimacs, read_edge_list, write_edge_list

from strategies import random_graphs


class TestParserRobustness:
    """Malformed input must fail with GraphFormatError (or parse), never
    crash with an arbitrary exception — the contract a loader needs when
    pointed at real downloaded files."""

    @given(text=st.text(alphabet="0123456789 an.p#sp-\n", max_size=200))
    @settings(max_examples=80, deadline=None)
    def test_edge_list_never_crashes(self, text, tmp_path_factory):
        p = tmp_path_factory.mktemp("fuzz") / "g.txt"
        p.write_text(text)
        try:
            g = read_edge_list(p)
            g.check()
        except GraphFormatError:
            pass  # rejection is fine; any other exception type is a bug

    @given(text=st.text(alphabet="0123456789 acp sp\n-", max_size=200))
    @settings(max_examples=80, deadline=None)
    def test_dimacs_never_crashes(self, text, tmp_path_factory):
        p = tmp_path_factory.mktemp("fuzz") / "g.gr"
        p.write_text(text)
        try:
            g = read_dimacs(p)
            g.check()
        except GraphFormatError:
            pass

    @given(g=random_graphs(max_nodes=20, max_edges=60))
    @settings(max_examples=25, deadline=None)
    def test_edge_list_roundtrip_random(self, g, tmp_path_factory):
        p = tmp_path_factory.mktemp("rt") / "g.txt"
        write_edge_list(g, p)
        assert read_edge_list(p) == g


class TestConfluenceAlgebra:
    @pytest.fixture(scope="class")
    def gg(self):
        from repro.core.coalesce import transform_graph
        from repro.core.knobs import CoalescingKnobs
        from repro.graphs.generators import preferential_attachment

        g = preferential_attachment(150, out_degree=8, seed=6)
        gg = transform_graph(g, CoalescingKnobs(connectedness_threshold=0.2))
        if gg.num_replicas == 0:
            pytest.skip("no replicas")
        return gg

    @given(seed=st.integers(0, 2**31 - 1), op=st.sampled_from(["mean", "min", "max"]))
    @settings(max_examples=40, deadline=None)
    def test_idempotence(self, seed, op, gg):
        from repro.core.confluence import merge_replicas

        rng = np.random.default_rng(seed)
        values = rng.random(gg.num_slots) * 100
        merge_replicas(values, gg, op)
        once = values.copy()
        merge_replicas(values, gg, op)
        assert np.allclose(values, once)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_mean_bounded_by_min_max(self, seed, gg):
        """The merged value lies within each group's pre-merge range."""
        from repro.core.confluence import merge_replicas

        rng = np.random.default_rng(seed)
        values = rng.random(gg.num_slots) * 100
        slots, gids, sizes = gg.replica_groups()
        lo = {g_: values[slots[gids == g_]].min() for g_ in range(sizes.size)}
        hi = {g_: values[slots[gids == g_]].max() for g_ in range(sizes.size)}
        merge_replicas(values, gg, "mean")
        for g_ in range(sizes.size):
            member = slots[gids == g_][0]
            assert lo[g_] - 1e-9 <= values[member] <= hi[g_] + 1e-9

    @given(seed=st.integers(0, 2**31 - 1), factor=st.floats(0.1, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_mean_is_scale_equivariant(self, seed, factor, gg):
        """merge(c·x) == c·merge(x) — the generic operator cannot depend
        on the attribute's unit (distances in meters vs kilometers)."""
        from repro.core.confluence import merge_replicas

        rng = np.random.default_rng(seed)
        base = rng.random(gg.num_slots) * 50
        a = base.copy()
        merge_replicas(a, gg, "mean")
        b = base * factor
        merge_replicas(b, gg, "mean")
        assert np.allclose(b, a * factor, rtol=1e-9)
