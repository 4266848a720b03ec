"""Trajectory recording and the diff of a fresh run against a trajectory.

A trajectory file is ``{"schema": 1, "entries": [...]}``; ``repro tune
--record-trajectory`` appends each run to it with its commit, and
``obs diff TRAJECTORY FRESH`` compares a fresh report with the last entry.
"""

from __future__ import annotations

import json

import pytest

from repro.cache import memo
from repro.obs import diff as obs_diff
from repro.tune import run_tune
from repro.tune.cli import main as tune_main, record_trajectory

QUICK = ["--quick", "--scale", "tiny", "--families", "rmat"]


@pytest.fixture(autouse=True)
def _memory_cache():
    # isolate every test from ambient disk caches, and restore the
    # process cache state afterwards so later modules see no cache
    with memo.enabled(cache_dir=None):
        yield


class TestRecordTrajectory:
    def test_cli_records_point(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        traj = tmp_path / "TRAJECTORY.json"
        status = tune_main(QUICK + ["--out", str(out), "--record-trajectory", str(traj)])
        assert status == 0
        assert "recorded trajectory entry at commit" in capsys.readouterr().out
        doc = json.loads(traj.read_text())
        assert len(doc["entries"]) == 1
        # the recorded point is the report the run wrote, not a summary of it
        assert doc["entries"][0]["report"] == json.loads(out.read_text())


class TestDiffAgainstTrajectory:
    """The CI shape: ``obs diff TRAJECTORY.json FRESH.json``."""

    def test_gate_is_quiet_on_identical_runs(self, tmp_path):
        report = run_tune(scale="tiny", families=["rmat"], quick=True)
        traj = tmp_path / "TRAJECTORY.json"
        record_trajectory(report, traj)
        fresh = tmp_path / "FRESH.json"
        fresh.write_text(json.dumps(report))
        verdict = obs_diff.diff_files(traj, fresh)
        assert verdict["regressed"] is False
        assert verdict["pairs"]
        assert all(p["verdict"] == "neutral" for p in verdict["pairs"])
