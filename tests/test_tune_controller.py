"""Units + properties for ``repro.tune``'s proxies and controller.

The hypothesis fuzz pins the *budget monotonicity* property on the
adversarial corpus strategies: on plans without replica renumbering
(divergence / exact) the SSSP solve is monotone — values start at
``inf`` and only descend through real-path relaxations toward the
exact distances — so a tighter budget, which can only demand *more*
work before stopping, must never increase the golden-band error.
Mean-confluence (coalescing) plans trade error non-monotonically and
are covered by the banded golden cells instead
(``verify --quick``'s ``golden:tuned``).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings

from repro.algorithms.sssp import sssp
from repro.core.pipeline import build_plan
from repro.eval.accuracy import attribute_inaccuracy
from repro.tune import (
    AdaptiveController,
    ErrorBudget,
    ProxyReadings,
    adaptive_runner_factory,
    frontier_mismatch,
    replica_disagreement,
    residual_mass,
)
from repro.verify.cli import VERIFY_DEVICE, VERIFY_KNOBS
from repro.verify.corpus import default_corpus

from strategies import adversarial_graphs, budget_ladders


class TestErrorBudgetValidation:
    def test_defaults_valid_and_disabled(self):
        assert not ErrorBudget().enabled

    def test_finite_budget_enabled(self):
        assert ErrorBudget(target_percent=10.0).enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"target_percent": 0.0},
            {"target_percent": -5.0},
            {"sample_every": -1},
            {"stop_fraction": 0.0},
            {"stop_fraction": 1.5},
            {"max_margin_scale": 0.5},
            {"extra_local_rounds": -1},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ErrorBudget(**kwargs)


class TestProxies:
    def test_residual_mass_zero_when_static(self):
        v = np.array([1.0, 2.0, np.inf])
        assert residual_mass(v.copy(), v.copy()) == 0.0

    def test_residual_mass_counts_newly_finite(self):
        prev = np.array([1.0, np.inf])
        curr = np.array([1.0, 3.0])
        # the fresh node contributes |3| + 1 over mass |1| + |3|
        assert residual_mass(prev, curr) == pytest.approx(100.0)

    def test_residual_mass_all_inf_is_zero(self):
        v = np.full(4, np.inf)
        assert residual_mass(v.copy(), v.copy()) == 0.0

    def test_residual_mass_scales_with_change(self):
        prev = np.array([10.0, 10.0])
        small = residual_mass(prev, np.array([10.0, 10.1]))
        large = residual_mass(prev, np.array([10.0, 15.0]))
        assert 0.0 < small < large

    def test_replica_disagreement_none_graffix(self):
        assert replica_disagreement(np.array([1.0]), None) == 0.0

    def test_replica_disagreement_detects_spread(self):
        corpus = default_corpus()
        plan = build_plan(
            corpus["social"],
            "coalescing",
            device=VERIFY_DEVICE,
            coalescing=VERIFY_KNOBS["coalescing"],
        )
        gg = plan.graffix
        assert gg is not None
        slots, gids, sizes = gg.replica_groups()
        values = np.zeros(plan.graph.num_nodes)
        agree = replica_disagreement(values, gg)
        assert agree == 0.0
        if slots.size:
            values[slots[0]] = 10.0  # one replica drifts
            assert replica_disagreement(values, gg) > 0.0

    def test_frontier_mismatch_zero_on_same_edges(self):
        corpus = default_corpus()
        g = corpus["road"]
        from repro.perf.edgeshare import EdgeView
        from repro.algorithms.sssp import sssp_relax

        edges = EdgeView(g)
        values = np.full(g.num_nodes, np.inf)
        values[0] = 0.0
        assert frontier_mismatch(values, edges, edges, sssp_relax) == 0.0

    def test_error_percent_prefers_worst_signal(self):
        r = ProxyReadings(
            residual_percent=50.0,
            disagreement_percent=3.0,
            mismatch_percent=7.0,
        )
        assert r.error_percent() == 7.0
        assert ProxyReadings(residual_percent=1.0).error_percent() == 0.0


class TestControllerSteering:
    def test_low_pressure_loosens(self):
        corpus = default_corpus()
        plan = build_plan(corpus["road"], "exact", device=VERIFY_DEVICE)
        c = AdaptiveController(
            plan, VERIFY_DEVICE, budget=ErrorBudget(target_percent=20.0)
        )
        c._steer(ProxyReadings(residual_percent=0.0))
        assert c._loosened and not c._tightened
        assert c.margin_scale > 1.0

    def test_high_pressure_tightens_and_resets_margin(self):
        corpus = default_corpus()
        plan = build_plan(corpus["road"], "exact", device=VERIFY_DEVICE)
        c = AdaptiveController(
            plan, VERIFY_DEVICE, budget=ErrorBudget(target_percent=10.0)
        )
        c._steer(ProxyReadings(residual_percent=0.0))
        assert c.margin_scale > 1.0
        c._steer(
            ProxyReadings(residual_percent=0.0, disagreement_percent=50.0)
        )
        assert c._tightened and not c._loosened
        assert c.margin_scale == 1.0
        assert c.interventions["tighten"] >= 1

    def test_margin_scale_capped(self):
        corpus = default_corpus()
        plan = build_plan(corpus["road"], "exact", device=VERIFY_DEVICE)
        budget = ErrorBudget(target_percent=20.0, max_margin_scale=4.0)
        c = AdaptiveController(plan, VERIFY_DEVICE, budget=budget)
        for _ in range(10):
            c._steer(ProxyReadings(residual_percent=0.0))
        assert c.margin_scale == 4.0

    def test_exact_graph_ignored_for_exact_plans(self):
        corpus = default_corpus()
        g = corpus["road"]
        plan = build_plan(g, "exact", device=VERIFY_DEVICE)
        c = AdaptiveController(
            plan, VERIFY_DEVICE,
            budget=ErrorBudget(target_percent=20.0), exact_graph=g,
        )
        assert c._exact is None  # nothing to probe against itself

    def test_keep_iterating_loosens_tolerance(self):
        corpus = default_corpus()
        plan = build_plan(corpus["road"], "exact", device=VERIFY_DEVICE)
        c = AdaptiveController(
            plan, VERIFY_DEVICE,
            budget=ErrorBudget(target_percent=20.0, stop_fraction=0.25),
        )
        # effective tol = 0.25 * 20% = 0.05 L1 mass
        assert c.keep_iterating(0.06, 1e-8)
        assert not c.keep_iterating(0.04, 1e-8)
        assert c.interventions["early_stop"] == 1

    def test_keep_iterating_infinite_budget_matches_base(self):
        corpus = default_corpus()
        plan = build_plan(corpus["road"], "exact", device=VERIFY_DEVICE)
        c = AdaptiveController(plan, VERIFY_DEVICE)
        assert c.keep_iterating(2e-8, 1e-8)
        assert not c.keep_iterating(5e-9, 1e-8)
        assert c.interventions["early_stop"] == 0


def _divergence_inaccuracy(graph, budget_percent):
    """Adaptive SSSP inaccuracy on the divergence plan (monotone domain)."""
    plan = build_plan(
        graph,
        "divergence",
        device=VERIFY_DEVICE,
        divergence=VERIFY_KNOBS["divergence"],
    )
    src = int(np.argmax(graph.out_degrees()))
    exact = sssp(graph, src, device=VERIFY_DEVICE)
    factory = adaptive_runner_factory(
        ErrorBudget(target_percent=budget_percent), exact_graph=graph
    )
    res = sssp(plan, src, device=VERIFY_DEVICE, runner_factory=factory)
    return attribute_inaccuracy(exact.values, res.values)


class TestBudgetMonotonicityFuzz:
    """differential:tuned — the `repro verify --quick` fuzz oracles."""

    @given(graph=adversarial_graphs(), ladder=budget_ladders())
    @settings(max_examples=25, deadline=None)
    def test_tightening_never_increases_error(self, graph, ladder):
        tight, loose = ladder
        inacc_tight = _divergence_inaccuracy(graph, tight)
        inacc_loose = _divergence_inaccuracy(graph, loose)
        assert inacc_tight <= inacc_loose + 1e-9

    @given(graph=adversarial_graphs())
    @settings(max_examples=15, deadline=None)
    def test_within_band_on_adversarial_corpus(self, graph):
        # adaptive divergence runs stay inside the golden-band error
        # ceiling even on the nastiest generated shapes
        inacc = _divergence_inaccuracy(graph, 20.0)
        assert inacc <= 60.0
