"""Metamorphic relation tests: the relations hold, and broken runs fail."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.graphs.builder import permute
from repro.verify.corpus import default_corpus
from repro.verify.metamorphic import (
    check_exact_identity,
    check_knob_monotonicity,
    check_relabel_invariance,
    check_weight_scaling,
)

from strategies import random_graphs


@pytest.fixture(scope="module")
def corpus():
    return default_corpus(0)


def test_relabel_invariance_holds(corpus, small_device):
    for name in ("er", "road", "chain"):
        assert check_relabel_invariance(
            corpus[name], seed=3, device=small_device
        ) == [], name


def test_weight_scaling_holds(corpus, small_device):
    for name in ("zero-weight", "multigraph", "chain"):
        assert check_weight_scaling(corpus[name], device=small_device) == [], name


def test_weight_scaling_rejects_non_power_of_two(corpus, small_device):
    with pytest.raises(ValueError):
        check_weight_scaling(corpus["chain"], factor=3.0, device=small_device)


def test_knob_monotonicity_holds(corpus, small_device):
    for name in ("social", "multigraph", "star"):
        assert check_knob_monotonicity(corpus[name], device=small_device) == [], name


def test_exact_identity_holds(corpus, small_device):
    assert check_exact_identity(corpus["rmat"], device=small_device) == []


def test_relabel_graph_is_isomorphic(corpus):
    g = corpus["er"]
    perm = np.random.default_rng(1).permutation(g.num_nodes)
    g2 = permute(g, perm)
    assert g2.num_nodes == g.num_nodes
    assert g2.num_edges == g.num_edges
    assert np.array_equal(
        np.sort(g.out_degrees()), np.sort(g2.out_degrees())
    )
    # relabelled out-degree of perm[v] equals original out-degree of v
    assert np.array_equal(g.out_degrees(), g2.out_degrees()[perm])


@settings(max_examples=10)
@given(graph=random_graphs(max_nodes=20, max_edges=60, weighted=True))
def test_relabel_invariance_fuzz(graph):
    from repro.gpusim.device import DeviceConfig

    dev = DeviceConfig(warp_size=8, line_words=4, shared_mem_words=512)
    assert check_relabel_invariance(graph, seed=0, device=dev) == []


@settings(max_examples=10)
@given(graph=random_graphs(max_nodes=24, max_edges=80, weighted=True))
def test_weight_scaling_fuzz(graph):
    from repro.gpusim.device import DeviceConfig

    dev = DeviceConfig(warp_size=8, line_words=4, shared_mem_words=512)
    assert check_weight_scaling(graph, device=dev) == []


def test_relabel_detects_a_label_sensitive_bug(corpus, small_device, monkeypatch):
    """Sanity: the relation actually discriminates — comparing against a
    *different* graph (one edge weight nudged) must trip the oracle."""
    g = corpus["road"]
    nudged = g.with_weights(g.effective_weights() * 1.5)

    import repro.verify.metamorphic as meta

    monkeypatch.setattr(meta, "permute", lambda graph, perm: permute(nudged, perm))
    violations = check_relabel_invariance(g, seed=3, device=small_device)
    assert any("relabel" in v.oracle for v in violations)
