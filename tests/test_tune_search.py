"""The offline auto-tuner: search, caching, CLI and obs-diff wiring."""

from __future__ import annotations

import gc
import json
import weakref
from pathlib import Path

import pytest

from repro.cache import memo
from repro.errors import TransformError
from repro.graphs.generators import paper_suite
from repro.gpusim.device import DeviceConfig
from repro.obs.diff import diff_files, extract_series, load_comparable
from repro.perf.edgeshare import EdgeView, PullEdgeView
from repro.tune import run_tune, serve_overrides, tune_family
from repro.tune import cli as tune_cli
from repro.tune.cli import main as tune_main, record_trajectory
from repro.tune import search
from repro.tune.controller import adaptive_runner_factory
from repro.tune.search import _candidates, _plan_with_threshold

#: small device so the transforms do real work on the tiny suite
DEVICE = DeviceConfig(warp_size=8, line_words=4, shared_mem_words=512)


@pytest.fixture(scope="module")
def suite():
    return paper_suite("tiny", seed=7)


@pytest.fixture(autouse=True)
def _memory_cache():
    # isolate every test from ambient disk caches
    memo.configure(cache_dir=None)
    yield
    memo.configure(cache_dir=None)


class TestSearchHelpers:
    def test_seeded_by_guidelines(self, suite):
        """Candidate thresholds bracket the paper's guideline values."""
        assert 0.4 in _candidates(suite["usa-road"], "coalescing")  # §5.2

    def test_unknown_technique(self, suite):
        with pytest.raises(TransformError):
            _candidates(suite["rmat"], "prefetch")

    @pytest.mark.parametrize("technique", ["coalescing", "shmem", "divergence"])
    def test_threshold_plan_usable(self, suite, technique):
        from repro.algorithms.sssp import sssp

        graph = suite["rmat"]
        thr = _candidates(graph, technique)[0]
        plan = _plan_with_threshold(graph, technique, thr, DEVICE)
        assert plan.technique == technique
        assert sssp(plan, 0, device=DEVICE).values.size == graph.num_nodes


class TestTuneFamily:
    def test_record_structure(self, suite):
        rec = tune_family(
            "rmat", suite["rmat"], budget_percent=20.0,
            device=DEVICE, quick=True,
        )
        assert rec["family"] == "rmat"
        assert rec["technique"] in ("coalescing", "shmem", "divergence")
        assert rec["static"]["cycles"] > 0
        assert rec["tuned"]["cycles"] > 0
        assert rec["speedup_vs_static"] == pytest.approx(
            rec["static"]["cycles"] / rec["tuned"]["cycles"]
        )
        assert rec["within_budget"] == (
            rec["tuned"]["inaccuracy_percent"] <= 20.0
        )
        assert rec["static_trials"] > rec["tuned_trials"] >= 1

    def test_static_choice_is_budget_feasible(self, suite):
        rec = tune_family(
            "usa-road", suite["usa-road"], budget_percent=20.0,
            device=DEVICE, quick=True,
        )
        assert rec["static"]["inaccuracy_percent"] <= 20.0

    def test_cached_second_call_identical(self, suite, tmp_path):
        memo.configure(cache_dir=tmp_path)
        first = tune_family(
            "rmat", suite["rmat"], budget_percent=20.0,
            device=DEVICE, quick=True,
        )
        second = tune_family(
            "rmat", suite["rmat"], budget_percent=20.0,
            device=DEVICE, quick=True,
        )
        assert first == second

    def test_budget_changes_cache_key(self, suite, tmp_path):
        memo.configure(cache_dir=tmp_path)
        a = tune_family(
            "rmat", suite["rmat"], budget_percent=20.0,
            device=DEVICE, quick=True,
        )
        b = tune_family(
            "rmat", suite["rmat"], budget_percent=5.0,
            device=DEVICE, quick=True,
        )
        assert b["budget_percent"] == 5.0
        assert a["budget_percent"] == 20.0


class TestRunTune:
    def test_report_shape_and_aggregate(self):
        report = run_tune(
            scale="tiny", families=["rmat", "usa-road"],
            device=DEVICE, quick=True,
        )
        assert set(report["families"]) == {"rmat", "usa-road"}
        assert report["best_family"] in report["families"]
        assert report["aggregate_speedup_vs_static"] > 0
        assert report["best_speedup_vs_static"] >= (
            report["aggregate_speedup_vs_static"]
        )
        assert report["serve"]["bc_node"]["num_sources"] >= 1
        assert report["serve"]["pr_topk"]["tol"] > 0
        assert report["cache"]["misses"] == 2

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown families"):
            run_tune(scale="tiny", families=["nope"], quick=True)

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError, match="budget_percent"):
            run_tune(scale="tiny", budget_percent=0.0, quick=True)

    def test_warm_second_run_hits_cache(self, tmp_path):
        memo.configure(cache_dir=tmp_path)
        cold = run_tune(
            scale="tiny", families=["rmat"], device=DEVICE, quick=True
        )
        warm = run_tune(
            scale="tiny", families=["rmat"], device=DEVICE, quick=True
        )
        assert cold["cache"]["misses"] == 1
        assert warm["cache"]["hits"] >= 1
        assert warm["cache"]["misses"] == 0
        assert warm["families"] == cold["families"]


class TestPlanLifetime:
    """The search frees each plan once probed, and its edge views with it."""

    def test_one_static_plan_alive_after_the_loop(self, suite, monkeypatch):
        memo.disable()  # an artifact cache keeps every plan on purpose
        plans, alive_after_loop = [], []

        def alive():
            return sum(ref() is not None for ref in plans)

        def plan_with_threshold(*args):
            assert alive() <= 1  # the running best; the loser is gone
            plan = _plan_with_threshold(*args)
            plans.append(weakref.ref(plan))
            return plan

        def runner_factory(*args, **kwargs):
            alive_after_loop.append(alive())
            return adaptive_runner_factory(*args, **kwargs)

        monkeypatch.setattr(search, "_plan_with_threshold", plan_with_threshold)
        monkeypatch.setattr(search, "adaptive_runner_factory", runner_factory)
        rec = search._search_family(
            "rmat", suite["rmat"], budget_percent=20.0, device=DEVICE,
            quick=True, schedules=search.SCHEDULES_SEARCHED,
        )
        assert len(plans) == 9
        assert rec["static_trials"] == 9 * len(search.SCHEDULES_SEARCHED)
        assert alive_after_loop == [1] * rec["tuned_trials"]
        assert alive() == 0

    def test_no_edge_view_outlives_run_tune(self):
        memo.disable()

        def views():
            return [
                o for o in gc.get_objects()
                if isinstance(o, (EdgeView, PullEdgeView))
            ]

        before = views()  # held, so no new view can reuse their ids
        run_tune(scale="tiny", quick=True)
        known = {id(v) for v in before}
        assert [v for v in views() if id(v) not in known] == []


class TestServeOverrides:
    def test_shape_and_bounds(self, suite):
        overrides = serve_overrides(
            suite["usa-road"], budget_percent=20.0, device=DEVICE, quick=True
        )
        assert 1 <= overrides["bc_node"]["num_sources"] <= 8
        assert overrides["pr_topk"]["tol"] == pytest.approx(0.05)

    def test_tighter_budget_never_fewer_sources(self, suite):
        loose = serve_overrides(
            suite["usa-road"], budget_percent=40.0, device=DEVICE, quick=True
        )
        tight = serve_overrides(
            suite["usa-road"], budget_percent=1e-9, device=DEVICE, quick=True
        )
        assert (
            tight["bc_node"]["num_sources"]
            >= loose["bc_node"]["num_sources"]
        )


class TestTuneCli:
    def test_quick_smoke_and_warm_reuse(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        cache = tmp_path / "cache"
        argv = [
            "--quick", "--scale", "tiny", "--families", "rmat",
            "--cache-dir", str(cache),
        ]
        assert tune_main(argv + ["--out", str(out1)]) == 0
        assert tune_main(argv + ["--out", str(out2)]) == 0
        cold = json.loads(out1.read_text())
        warm = json.loads(out2.read_text())
        assert cold["cache"]["misses"] >= 1
        assert warm["cache"]["hits"] >= 1
        assert warm["families"] == cold["families"]

    def test_min_speedup_gate_fails(self, tmp_path):
        rc = tune_main(
            [
                "--quick", "--scale", "tiny", "--families", "rmat",
                "--out", str(tmp_path / "r.json"),
                "--min-speedup", "1000.0",
            ]
        )
        assert rc == 1

    def test_record_trajectory(self, tmp_path):
        out = tmp_path / "r.json"
        traj = tmp_path / "traj.json"
        rc = tune_main(
            [
                "--quick", "--scale", "tiny", "--families", "rmat",
                "--out", str(out), "--record-trajectory", str(traj),
            ]
        )
        assert rc == 0
        doc = json.loads(traj.read_text())
        assert len(doc["entries"]) == 1
        assert doc["entries"][0]["report"]["families"]

    def test_record_trajectory_appends_with_provenance(self, tmp_path):
        report = {"scale": "tiny", "seed": 7, "budget_percent": 20.0,
                  "quick": True, "families": {}}
        path = tmp_path / "sub" / "traj.json"
        entry = record_trajectory(report, path)
        assert entry["commit"]
        assert entry["config"] == {"scale": "tiny", "seed": 7,
                                   "budget_percent": 20.0, "quick": True}
        record_trajectory(report, path)
        doc = json.loads(path.read_text())
        assert doc["schema"] == 1
        assert [e["report"] for e in doc["entries"]] == [report, report]

    def test_record_trajectory_refuses_non_trajectory(self, tmp_path):
        path = tmp_path / "not-trajectory.json"
        path.write_text(json.dumps({"families": {}}))
        with pytest.raises(ValueError, match="not a trajectory"):
            record_trajectory({"families": {}}, path)

    @pytest.mark.parametrize("text", ["[]", "hello", '{"entries": {}}'])
    def test_bad_trajectory_path_fails_before_search(
        self, tmp_path, monkeypatch, capsys, text
    ):
        def no_search(**_):
            raise AssertionError("the search ran before the path check")

        monkeypatch.setattr(tune_cli, "run_tune", no_search)
        traj = tmp_path / "traj.json"
        traj.write_text(text)
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            tune_main(["--quick", "--out", str(out),
                       "--record-trajectory", str(traj)])
        assert exc.value.code == 2
        assert "not a trajectory" in capsys.readouterr().err
        assert not out.exists() and traj.read_text() == text

    def test_default_paths_are_committed_files(self):
        root = Path(__file__).resolve().parents[1]
        for rel in (tune_cli.TUNE_REPORT_PATH, tune_cli.TRAJECTORY_PATH):
            assert (root / rel).is_file(), rel


class TestObsDiffTuneKind:
    def _report(self, tmp_path, name="r.json"):
        out = tmp_path / name
        assert tune_main(
            [
                "--quick", "--scale", "tiny", "--families", "rmat",
                "--out", str(out),
            ]
        ) == 0
        return out

    def test_kind_detected(self, tmp_path):
        out = self._report(tmp_path)
        kind, payload = load_comparable(out)
        assert kind == "tune"
        series = extract_series(kind, payload)
        assert any(k.endswith(":tuned_cycles") for k in series)
        assert any(k.endswith(":inv_speedup_vs_static") for k in series)
        assert any(k.endswith(":inaccuracy_percent") for k in series)

    def test_self_diff_neutral(self, tmp_path):
        out = self._report(tmp_path)
        diff = diff_files(out, out)
        assert diff["kind"] == "tune"
        assert not diff["regressed"]

    def test_trajectory_kind_redetected(self, tmp_path):
        out = tmp_path / "r.json"
        traj = tmp_path / "traj.json"
        tune_main(
            [
                "--quick", "--scale", "tiny", "--families", "rmat",
                "--out", str(out), "--record-trajectory", str(traj),
            ]
        )
        kind, payload = load_comparable(traj)
        assert kind == "tune"
        diff = diff_files(traj, out)
        assert diff["kind"] == "tune"
        assert not diff["regressed"]
