"""Unit tests for execution-plan persistence (the amortization round-trip)."""

from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest

from repro.algorithms.pagerank import pagerank
from repro.algorithms.sssp import sssp
from repro.core.pipeline import build_plan
from repro.core.serialize import load_plan, save_plan
from repro.errors import SimulationError, TransformError


@pytest.mark.parametrize(
    "technique", ["exact", "coalescing", "shmem", "divergence", "combined"]
)
def test_roundtrip_structure(rmat_small, technique, tmp_path):
    plan = build_plan(rmat_small, technique)
    p = tmp_path / "plan.npz"
    save_plan(plan, p)
    loaded = load_plan(p)
    assert loaded.technique == plan.technique
    assert loaded.num_original == plan.num_original
    assert loaded.graph == plan.graph
    assert loaded.edges_added == plan.edges_added
    assert loaded.local_iterations == plan.local_iterations
    if plan.order is not None:
        assert np.array_equal(loaded.order, plan.order)
    if plan.resident_mask is not None:
        assert np.array_equal(loaded.resident_mask, plan.resident_mask)
    if plan.cluster_graph is not None:
        assert loaded.cluster_graph == plan.cluster_graph
    if plan.graffix is not None:
        assert np.array_equal(loaded.graffix.rep_of, plan.graffix.rep_of)
        assert np.array_equal(
            loaded.graffix.primary_slot, plan.graffix.primary_slot
        )


@pytest.mark.parametrize("technique", ["coalescing", "shmem", "divergence"])
def test_loaded_plan_executes_identically(rmat_small, technique, tmp_path):
    """The whole point: identical simulated results from a reloaded plan."""
    plan = build_plan(rmat_small, technique)
    p = tmp_path / "plan.npz"
    save_plan(plan, p)
    loaded = load_plan(p)

    src = int(np.argmax(rmat_small.out_degrees()))
    a = sssp(plan, src)
    b = sssp(loaded, src)
    assert np.array_equal(
        np.nan_to_num(a.values, posinf=-1), np.nan_to_num(b.values, posinf=-1)
    )
    assert a.cycles == b.cycles

    pa = pagerank(plan)
    pb = pagerank(loaded)
    assert np.allclose(pa.values, pb.values)
    assert pa.cycles == pb.cycles


def test_replica_groups_survive(social_small, tmp_path):
    from repro.core.knobs import CoalescingKnobs

    plan = build_plan(
        social_small,
        "coalescing",
        coalescing=CoalescingKnobs(connectedness_threshold=0.3),
    )
    if not plan.has_replicas:
        pytest.skip("no replicas")
    p = tmp_path / "plan.npz"
    save_plan(plan, p)
    loaded = load_plan(p)
    s1, g1, z1 = plan.graffix.replica_groups()
    s2, g2, z2 = loaded.graffix.replica_groups()
    assert np.array_equal(np.sort(s1), np.sort(s2))
    assert np.array_equal(z1, z2)


def test_not_a_plan_rejected(tmp_path):
    p = tmp_path / "bogus.npz"
    np.savez(p, foo=np.arange(3))
    with pytest.raises(TransformError):
        load_plan(p)


def test_lift_lower_after_reload(rmat_small, tmp_path):
    plan = build_plan(rmat_small, "coalescing")
    p = tmp_path / "plan.npz"
    save_plan(plan, p)
    loaded = load_plan(p)
    vals = np.arange(rmat_small.num_nodes, dtype=np.float64)
    assert np.array_equal(loaded.lower(loaded.lift(vals)), vals)


def _tamper_order(order: np.ndarray, how: str) -> np.ndarray:
    order = order.copy()
    if how == "negative":
        order[0] -= order.size  # wraps onto the same id if cast blindly
    elif how == "too-large":
        order[0] = order.size
    else:  # float ids would truncate onto the same permutation
        return order.astype(np.float64) + 0.25
    return order


@pytest.mark.parametrize("how", ["negative", "too-large", "float"])
def test_tampered_order_rejected_at_run(rmat_small, how):
    """A divergence plan whose ``order`` was edited in memory must fail
    with a typed error when it runs, not wrap, index out of bounds or
    truncate into a different kernel."""
    plan = build_plan(rmat_small, "divergence")
    tampered = dataclasses.replace(plan, order=_tamper_order(plan.order, how))
    with pytest.raises(SimulationError, match="processing order"):
        sssp(tampered, 0)


def _save_tampered(plan, path, **arrays_in):
    """Save ``plan`` to ``path``, then overwrite the named arrays on disk."""
    save_plan(plan, path)
    with np.load(path) as data:
        arrays = dict(data)
    arrays.update(arrays_in)
    np.savez_compressed(path, **arrays)


def _at(path, pattern: str) -> str:
    """A match pattern for an error that names ``path`` first."""
    return re.escape(f"{path}: ") + pattern


@pytest.mark.parametrize("how", ["negative", "too-large", "float"])
def test_tampered_order_rejected_at_load(rmat_small, how, tmp_path):
    """The same edits made on disk never load: the run-time check is
    shared by ``load_plan``, which names the file."""
    plan = build_plan(rmat_small, "divergence")
    p = tmp_path / "plan.npz"
    _save_tampered(plan, p, order=_tamper_order(plan.order, how))
    with pytest.raises(TransformError, match=_at(p, "processing order")):
        load_plan(p)


class TestTamperedPlanRejectedAtLoad:
    """Each of these loaded without complaint and failed only on the
    first run; ``load_plan`` now raises ``TransformError`` naming the
    file."""

    def test_order_names_a_node_past_the_graph(self, suite_tiny, tmp_path):
        plan = build_plan(suite_tiny["rmat"], "divergence")
        assert plan.graph.num_nodes == 256
        order = plan.order.copy()
        order[0] = 1_000_000
        p = tmp_path / "plan.npz"
        _save_tampered(plan, p, order=order)
        with pytest.raises(TransformError, match=_at(p, r".*outside \[0, 256\)")):
            load_plan(p)

    def test_all_zero_order(self, suite_tiny, tmp_path):
        plan = build_plan(suite_tiny["rmat"], "divergence")
        p = tmp_path / "plan.npz"
        _save_tampered(plan, p, order=np.zeros_like(plan.order))
        with pytest.raises(TransformError, match=_at(p, ".*permutation")):
            load_plan(p)

    def test_short_resident_mask(self, suite_tiny, tmp_path):
        plan = build_plan(suite_tiny["rmat"], "shmem")
        assert plan.graph.num_nodes == 256
        p = tmp_path / "plan.npz"
        _save_tampered(plan, p, resident_mask=np.ones(3, dtype=bool))
        with pytest.raises(TransformError, match=_at(p, "resident_mask length")):
            load_plan(p)
