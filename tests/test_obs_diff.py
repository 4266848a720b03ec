"""Tests for the noise-aware comparator (repro.obs.diff)."""

from __future__ import annotations

import json

import pytest

from repro.obs import diff as obs_diff


def _tune_report(scale=1.0, *, families=("rmat", "usa-road")) -> dict:
    """A tune-shaped report whose every series scales with ``scale``."""
    return {
        "schema": 1,
        "families": {
            family: {
                "tuned": {
                    "cycles": 1000.0 * (i + 1) * scale,
                    "inaccuracy_percent": 5.0 * (i + 1) * scale,
                },
                "speedup_vs_static": 2.0 / scale,
            }
            for i, family in enumerate(families)
        },
    }


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return p


class TestLoadComparable:
    def test_detects_tune(self, tmp_path):
        kind, _ = obs_diff.load_comparable(_write(tmp_path, "a.json", _tune_report()))
        assert kind == "tune"

    def test_detects_metrics(self, tmp_path):
        kind, _ = obs_diff.load_comparable(
            _write(tmp_path, "m.json", {"counters": {}, "gauges": {}, "histograms": {}})
        )
        assert kind == "metrics"

    def test_detects_verify(self, tmp_path):
        kind, _ = obs_diff.load_comparable(
            _write(tmp_path, "v.json", {"checks": [], "metrics": {"gauges": {}}})
        )
        assert kind == "verify"

    def test_detects_profile(self, tmp_path):
        kind, _ = obs_diff.load_comparable(
            _write(tmp_path, "p.json", {"samples": 10, "spans": []})
        )
        assert kind == "profile"

    def test_trajectory_resolves_to_entry_report(self, tmp_path):
        doc = {
            "schema": 1,
            "entries": [
                {"commit": "aaa", "report": _tune_report(2.0)},
                {"commit": "bbb", "report": _tune_report(1.0)},
            ],
        }
        kind, payload = obs_diff.load_comparable(_write(tmp_path, "t.json", doc))
        assert kind == "tune"
        assert payload["families"]["rmat"]["tuned"]["cycles"] == 1000.0
        _, first = obs_diff.load_comparable(tmp_path / "t.json", entry=0)
        assert first["families"]["rmat"]["tuned"]["cycles"] == 2000.0

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            obs_diff.load_comparable("/nonexistent/x.json")

    def test_empty_and_corrupt(self, tmp_path):
        empty = tmp_path / "e.json"
        empty.write_text("")
        with pytest.raises(ValueError):
            obs_diff.load_comparable(empty)
        bad = tmp_path / "b.json"
        bad.write_text("{not json")
        with pytest.raises(ValueError):
            obs_diff.load_comparable(bad)

    def test_empty_trajectory(self, tmp_path):
        with pytest.raises(ValueError, match="no entries"):
            obs_diff.load_comparable(
                _write(tmp_path, "t.json", {"schema": 1, "entries": []})
            )


class TestVerdicts:
    def test_identical_runs_all_neutral(self, tmp_path):
        """Acceptance: no false regressions on two identical runs."""
        a = _write(tmp_path, "a.json", _tune_report())
        b = _write(tmp_path, "b.json", _tune_report())
        report = obs_diff.diff_files(a, b)
        assert report["regressed"] is False
        assert all(p["verdict"] == "neutral" for p in report["pairs"])

    def test_seeded_2x_slowdown_flagged(self, tmp_path):
        """Acceptance: a 2x slowdown must regress at default noise."""
        a = _write(tmp_path, "a.json", _tune_report(1.0))
        b = _write(tmp_path, "b.json", _tune_report(2.0))
        report = obs_diff.diff_files(a, b)
        assert report["regressed"] is True
        assert all(p["verdict"] == "regressed" for p in report["pairs"])

    def test_2x_speedup_improves(self, tmp_path):
        a = _write(tmp_path, "a.json", _tune_report(2.0))
        b = _write(tmp_path, "b.json", _tune_report(1.0))
        report = obs_diff.diff_files(a, b)
        assert report["regressed"] is False
        assert all(p["verdict"] == "improved" for p in report["pairs"])

    def test_seeded_slowdown_against_trajectory_flagged(self, tmp_path):
        """The CI shape: a fresh report against a trajectory's last entry."""
        doc = {"schema": 1, "entries": [{"commit": "a", "report": _tune_report()}]}
        traj = _write(tmp_path, "traj.json", doc)
        same = _write(tmp_path, "same.json", _tune_report())
        slow = _write(tmp_path, "slow.json", _tune_report(2.0))
        assert obs_diff.diff_files(traj, same)["regressed"] is False
        assert obs_diff.diff_files(traj, slow)["regressed"] is True

    def test_noise_band_is_the_threshold(self):
        a = {"k": 1.0}
        assert obs_diff.compare_series(a, {"k": 1.2})[0]["verdict"] == "neutral"
        assert obs_diff.compare_series(a, {"k": 1.3})[0]["verdict"] == "regressed"
        assert obs_diff.compare_series(a, {"k": 0.7})[0]["verdict"] == "improved"
        (pair,) = obs_diff.compare_series(a, {"k": 1.3}, noise=0.5)
        assert pair["verdict"] == "neutral"

    def test_added_and_removed(self):
        a = {"old": 1.0}
        b = {"new": 1.0}
        pairs = {p["key"]: p["verdict"] for p in obs_diff.compare_series(a, b)}
        assert pairs == {"old": "removed", "new": "added"}

    def test_below_floor_skipped(self):
        a = {"k": 1e-5}
        b = {"k": 3e-5}
        (pair,) = obs_diff.compare_series(a, b)
        assert pair["verdict"] == "below-floor"

    def test_zero_baseline_with_real_candidate_regresses(self):
        a = {"k": 0.0}
        b = {"k": 1.0}
        (pair,) = obs_diff.compare_series(a, b, min_value=1e-4)
        assert pair["verdict"] == "regressed"


class TestExtraction:
    def test_metrics_series(self):
        snap = {
            "histograms": {
                "serve.request.time": {
                    "buckets": [0.1], "counts": [5, 0], "total": 0.25, "count": 5
                }
            },
            "gauges": {"verify.check.seconds.x": 0.5, "serve.queue.depth": 3},
        }
        series = obs_diff.extract_series("metrics", snap)
        assert series["metrics:serve.request.time:mean"] == pytest.approx(0.05)
        # time-like gauges only: queue depth is not a timing
        assert "metrics:serve.queue.depth" not in series
        assert "metrics:verify.check.seconds.x" in series

    def test_verify_series(self):
        payload = {
            "checks": [],
            "metrics": {
                "gauges": {
                    "verify.check.seconds.invariants:er:exact": 0.12,
                    "verify.checks.pass": 3.0,
                }
            },
        }
        series = obs_diff.extract_series("verify", payload)
        assert series == {"verify:invariants:er:exact": 0.12}

    def test_profile_series(self):
        payload = {"samples": 10, "spans": [{"span": "solve.sweep", "seconds": 1.5}]}
        series = obs_diff.extract_series("profile", payload)
        assert series["profile:solve.sweep:seconds"] == 1.5

    def test_kind_mismatch_raises(self, tmp_path):
        a = _write(tmp_path, "a.json", _tune_report())
        m = _write(tmp_path, "m.json", {"counters": {}})
        with pytest.raises(ValueError, match="cannot diff"):
            obs_diff.diff_files(a, m)


class TestCli:
    def test_exit_codes(self, tmp_path, capsys):
        a = _write(tmp_path, "a.json", _tune_report(1.0))
        b = _write(tmp_path, "b.json", _tune_report(2.0))
        assert obs_diff.main([str(a), str(a)]) == 0
        assert obs_diff.main([str(a), str(b)]) == 1
        assert obs_diff.main([str(a), str(b), "--no-fail"]) == 0
        assert obs_diff.main(["/nope.json", str(a)]) == 2
        out = capsys.readouterr().out
        assert "REGRESSED" in out

    def test_out_file(self, tmp_path, capsys):
        a = _write(tmp_path, "a.json", _tune_report())
        out = tmp_path / "diff.json"
        assert obs_diff.main([str(a), str(a), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["summary"]["neutral"] == 6
        capsys.readouterr()

    def test_dispatch_via_module_main(self, tmp_path, capsys):
        from repro.__main__ import main as repro_main

        a = _write(tmp_path, "a.json", _tune_report())
        assert repro_main(["obs", "diff", str(a), str(a)]) == 0
        assert "neutral" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("[1, 2]", id="array"),
            pytest.param("hello", id="text"),
            pytest.param('{"entries": [{"commit": "a"}]}', id="entry-without-report"),
            pytest.param('{"entries": [1]}', id="entry-not-object"),
            pytest.param(
                '{"families": {"rmat": {"speedup_vs_static": 1.2}}}',
                id="family-without-tuned",
            ),
        ],
    )
    def test_malformed_input_exits_2(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        good = _write(tmp_path, "good.json", _tune_report())
        assert obs_diff.main([str(bad), str(good)]) == 2
        assert obs_diff.main([str(good), str(bad)]) == 2
        out = capsys.readouterr().out
        assert out.count("\n") == 2 and out.startswith("obs diff: ")

    def test_trace_inputs(self, tmp_path, capsys):
        from repro.obs.trace import Tracer

        def make(path, slow):
            t = Tracer()
            with t.span("solve.sweep"):
                pass
            t.spans[0].duration = 2.0 if slow else 1.0
            t.export_jsonl(path)

        make(tmp_path / "a.jsonl", False)
        make(tmp_path / "b.jsonl", True)
        code = obs_diff.main(
            [str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")]
        )
        assert code == 1
        assert "trace:solve.sweep" in capsys.readouterr().out
