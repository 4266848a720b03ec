"""Differential harness tests: agreement passes, divergence is caught."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.pipeline import build_plan
from repro.verify.corpus import default_corpus
from repro.verify.differential import (
    check_bc_lanes,
    check_bc_oracle,
    check_cache_differential,
    check_serial_parallel,
    plans_identical,
)


@pytest.fixture(scope="module")
def corpus():
    return default_corpus(0)


@pytest.mark.parametrize("technique", ["exact", "coalescing", "divergence"])
def test_bc_lanes_agree(corpus, technique, small_device):
    graph = corpus["social"]
    target = graph if technique == "exact" else build_plan(
        graph, technique, device=small_device
    )
    sources = [0, 5, 5, graph.num_nodes - 1]
    assert check_bc_lanes(target, sources, device=small_device) == []


@pytest.mark.parametrize("name", ["rmat", "road"])
def test_bc_oracle_agrees(corpus, name, small_device):
    assert check_bc_oracle(corpus[name], seed=1, device=small_device) == []


def test_bc_lanes_catch_a_wrong_ledger(corpus, small_device, monkeypatch):
    """A stacked run that drops one lane-level charge must be caught."""
    from repro.algorithms import bc

    charge = bc._charge_lanes

    def drop_last(ctx, logs):
        if len(logs) > 1:
            logs = [logs[0][:-1]] + logs[1:]
        charge(ctx, logs)

    monkeypatch.setattr(bc, "_charge_lanes", drop_last)
    graph = corpus["road"]
    assert check_bc_lanes(graph, [0, graph.num_nodes // 2], device=small_device)


def test_cache_differential_byte_identity(corpus, tmp_path, small_device):
    assert (
        check_cache_differential(
            corpus["er"], "coalescing", str(tmp_path), device=small_device
        )
        == []
    )


def test_plans_identical_flags_every_field(corpus, small_device):
    plan = build_plan(corpus["er"], "divergence", device=small_device)
    assert plans_identical(plan, plan) == []

    other = dataclasses.replace(plan, edges_added=plan.edges_added + 1)
    assert "edges_added" in plans_identical(plan, other)

    reordered = dataclasses.replace(plan, order=plan.order[::-1].copy())
    assert "order" in plans_identical(plan, reordered)

    # wall-clock preprocess time must NOT count as a difference
    slower = dataclasses.replace(
        plan, preprocess_seconds=plan.preprocess_seconds + 99.0
    )
    assert plans_identical(plan, slower) == []


def test_plans_identical_checks_graph_bytes(corpus, small_device):
    plan = build_plan(corpus["chain"], "exact", device=small_device)
    tweaked_graph = plan.graph.with_weights(
        plan.graph.effective_weights() * 2.0
    )
    other = dataclasses.replace(plan, graph=tweaked_graph)
    assert "graph" in plans_identical(plan, other)


def test_serial_parallel_rows_identical():
    assert check_serial_parallel(
        technique="divergence", scale="tiny", algorithms=("sssp",)
    ) == []
