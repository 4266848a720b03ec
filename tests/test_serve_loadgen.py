"""The load generator: spec parsing, KPI gating, the exact-answer check,
and a small end-to-end run against an in-process server."""

from __future__ import annotations

import json

import numpy as np
import pytest
import yaml

from repro.algorithms.pagerank import pagerank
from repro.errors import ServeError
from repro.serve import loadgen
from repro.serve.deadline import Deadline
from repro.serve.loadgen import ExactAnswers, evaluate_kpis, load_spec, run_spec
from repro.serve.server import ReproServer
from repro.serve.service import GraphService, ServeConfig


def write_spec(tmp_path, spec: dict):
    path = tmp_path / "spec.yml"
    path.write_text(yaml.safe_dump(spec))
    return path


BASE_SPEC = {
    "name": "unit",
    "server": {"scale": "tiny", "seed": 7, "workers": 2},
    "clients": 2,
    "requests": 24,
    "seed": 99,
    "deadline_ms": 5000,
    "verify": True,
    "queries": [
        {"op": "sssp", "graph": "rmat", "ratio": 0.5},
        {"op": "pr_topk", "graph": "rmat", "ratio": 0.3, "k": 5},
        {"op": "bc_node", "graph": "rmat", "ratio": 0.2, "num_sources": 2},
    ],
    "kpis": [
        {"le": {"shed_rate": 0.0}},
        {"ge": {"ok_rate": 1.0}},
    ],
}


class TestLoadSpec:
    def test_roundtrip_with_defaults(self, tmp_path):
        minimal = {"queries": [{"op": "sssp", "graph": "rmat", "ratio": 1.0}]}
        spec = load_spec(write_spec(tmp_path, minimal))
        assert spec["clients"] == 4 and spec["requests"] == 200
        assert spec["verify"] is True

    def test_rejects_non_mapping(self, tmp_path):
        path = tmp_path / "bad.yml"
        path.write_text("- just\n- a\n- list\n")
        with pytest.raises(ServeError, match="mapping"):
            load_spec(path)

    def test_rejects_missing_queries(self, tmp_path):
        with pytest.raises(ServeError, match="queries"):
            load_spec(write_spec(tmp_path, {"clients": 2}))

    def test_rejects_unknown_op(self, tmp_path):
        bad = {"queries": [{"op": "mst", "graph": "rmat", "ratio": 1.0}]}
        with pytest.raises(ServeError, match="unknown query op"):
            load_spec(write_spec(tmp_path, bad))

    def test_rejects_zero_ratios(self, tmp_path):
        bad = {"queries": [{"op": "sssp", "graph": "rmat", "ratio": 0.0}]}
        with pytest.raises(ServeError, match="ratio"):
            load_spec(write_spec(tmp_path, bad))

    def test_rejects_missing_graph(self, tmp_path):
        bad = {"queries": [{"op": "sssp", "ratio": 1.0}]}
        with pytest.raises(ServeError, match="graph"):
            load_spec(write_spec(tmp_path, bad))

    def test_rejects_missing_file(self, tmp_path):
        with pytest.raises(ServeError, match="cannot read load spec"):
            load_spec(tmp_path / "missing.yml")

    def test_rejects_malformed_yaml(self, tmp_path):
        path = tmp_path / "bad.yml"
        path.write_text("queries: [a, b\nfoo: : :\n")
        with pytest.raises(ServeError, match=r"not valid YAML \(line 2\)"):
            load_spec(path)

    @pytest.mark.parametrize("text", [None, "queries: [a, b\n"])
    def test_main_reports_bad_spec_in_one_line(self, tmp_path, capsys, text):
        path = tmp_path / "spec.yml"
        if text is not None:
            path.write_text(text)
        out = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            loadgen.main(["--spec", str(path), "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().splitlines()[-1].startswith(
            "python -m repro bench serve: error: "
        )
        assert not out.exists()


class TestKpis:
    def test_le_and_ge(self):
        metrics = {"q50_ms": 80.0, "qps": 25.0}
        gates = evaluate_kpis(
            [{"le": {"q50_ms": 100}}, {"ge": {"qps": 50}}], metrics
        )
        assert gates[0]["pass"] is True
        assert gates[1]["pass"] is False and gates[1]["value"] == 25.0

    def test_missing_metric_fails_closed(self):
        gates = evaluate_kpis([{"le": {"q50_ms": 100}}], {"q50_ms": None})
        assert gates[0]["pass"] is False and gates[0]["value"] is None

    @pytest.mark.parametrize(
        "clause",
        [
            "not a dict",
            {"le": {"a": 1}, "ge": {"b": 2}},   # two ops in one clause
            {"eq": {"a": 1}},                   # unknown op
            {"le": [1, 2]},                     # body not a mapping
        ],
    )
    def test_malformed_clauses_rejected(self, clause):
        with pytest.raises(ServeError, match="kpi"):
            evaluate_kpis([clause], {})


class TestExactAnswers:
    """A non-degraded answer counts as correct only when it is whole and
    exact: the real server's answer passes, every tampered copy fails."""

    REQUESTS = {
        "sssp": {"op": "sssp", "graph": "rmat", "source": 1, "target": 5},
        "pr_topk": {"op": "pr_topk", "graph": "rmat", "k": 5},
        "bc_node": {
            "op": "bc_node", "graph": "usa-road", "node": 4,
            "num_sources": 2, "seed": 0,
        },
    }

    @pytest.fixture(scope="class")
    def answers(self):
        return ExactAnswers("tiny", 7)

    @pytest.fixture(scope="class")
    def served(self):
        """The in-process service's answer to each request, JSON round-tripped."""
        service = GraphService(ServeConfig(scale="tiny", seed=7, self_check=False))
        answer = {
            op: service.execute(dict(req), Deadline.from_ms(10000))["result"]
            for op, req in self.REQUESTS.items()
        }
        return json.loads(json.dumps(answer))

    @pytest.mark.parametrize("op", sorted(REQUESTS))
    def test_server_answer_is_the_expected_one(self, answers, served, op):
        assert served[op] == answers.expected(self.REQUESTS[op])
        assert answers.matches(self.REQUESTS[op], served[op])

    def test_pr_topk_k_is_capped_at_n(self, answers):
        got = answers.expected(dict(self.REQUESTS["pr_topk"], k=10**6))
        assert got["k"] == len(got["top"]) == answers.graphs["rmat"].num_nodes

    def test_batching_footnotes_are_ignored(self, answers, served):
        req = self.REQUESTS["sssp"]
        assert answers.matches(req, dict(served["sssp"], batched=True, batch_lanes=3))

    @pytest.mark.parametrize(
        "tamper",
        [lambda top: [], lambda top: top[:-1], lambda top: top[::-1]],
        ids=["empty", "short", "reordered"],
    )
    def test_tampered_top_is_wrong(self, answers, served, tamper):
        bad = dict(served["pr_topk"], top=tamper(served["pr_topk"]["top"]))
        assert not answers.matches(self.REQUESTS["pr_topk"], bad)

    def test_wrong_k_nodes_with_their_true_ranks_is_wrong(self, answers, served):
        req = self.REQUESTS["pr_topk"]
        ranks = pagerank(answers.plans["rmat"]).values
        chosen = {node for node, _ in served["pr_topk"]["top"]}
        others = [i for i in np.argsort(-ranks, kind="stable") if int(i) not in chosen]
        top = [[int(i), float(ranks[i])] for i in others[: req["k"]]]
        assert not answers.matches(req, dict(served["pr_topk"], top=top))

    @pytest.mark.parametrize("op,field", [("sssp", "distance"), ("bc_node", "score")])
    def test_value_one_ulp_off_is_wrong(self, answers, served, op, field):
        off = float(np.nextafter(served[op][field], np.inf))
        assert not answers.matches(self.REQUESTS[op], dict(served[op], **{field: off}))

    @pytest.mark.parametrize("op", ["sssp", "pr_topk"])
    def test_wrong_iterations_is_wrong(self, answers, served, op):
        bad = dict(served[op], iterations=served[op]["iterations"] + 1)
        assert not answers.matches(self.REQUESTS[op], bad)

    @pytest.mark.parametrize("op", sorted(REQUESTS))
    def test_non_exact_technique_is_wrong(self, answers, served, op):
        bad = dict(served[op], technique="coalescing")
        assert not answers.matches(self.REQUESTS[op], bad)

    def test_missing_result_is_wrong(self, answers):
        assert not answers.matches(self.REQUESTS["sssp"], None)


class TestPlanScopedPricing:
    """A hot plan keeps its full-sweep memo across queries: SSSP and
    PageRank sweep the same exact graph, so however many of them a graph
    serves, its full sweep is priced once."""

    N = 3

    def test_repeated_queries_price_one_full_sweep(self):
        from repro.obs import metrics as obs_metrics

        service = GraphService(ServeConfig(scale="tiny", seed=7, self_check=False))
        requests = [
            {"op": "sssp", "graph": "rmat", "source": s, "target": 5}
            for s in range(self.N)
        ] + [{"op": "pr_topk", "graph": "rmat", "k": 5}] * self.N
        obs_metrics.reset()
        try:
            served = [
                service.execute(dict(req), Deadline.from_ms(10000))["result"]
                for req in requests
            ]
            text = obs_metrics.prometheus_text()
        finally:
            obs_metrics.reset()
        (miss,) = [
            float(line.split()[1])
            for line in text.splitlines()
            if line.startswith("gpusim_full_sweep_memo_miss_total ")
        ]
        assert miss == 1
        answers = ExactAnswers("tiny", 7)
        for req, got in zip(requests, json.loads(json.dumps(served))):
            assert got == answers.expected(req)


class TestRunSpec:
    def test_end_to_end_report(self, tmp_path):
        report = run_spec(dict(BASE_SPEC))
        assert report["ok"], report["kpis"]
        o = report["overall"]
        assert o["requests"] == 24
        assert o["ok"] == 24
        assert o["wrong"] == 0
        assert o["verified"] > 0  # the oracle actually ran
        assert o["qps"] > 0
        assert o["q50_ms"] is not None
        # the implicit verify gate is present
        assert any(g["metric"] == "wrong" for g in report["kpis"])

    def test_failing_kpi_fails_the_report(self):
        spec = dict(BASE_SPEC)
        spec["requests"] = 8
        spec["kpis"] = [{"ge": {"qps": 10**9}}]
        report = run_spec(spec)
        assert report["ok"] is False

    def test_reversed_top_fails_the_report(self, monkeypatch):
        true_pr_topk = GraphService._pr_topk

        def reversed_pr_topk(self, *args):
            out = true_pr_topk(self, *args)
            out["top"] = out["top"][::-1]
            return out

        monkeypatch.setattr(GraphService, "_pr_topk", reversed_pr_topk)
        spec = dict(BASE_SPEC, requests=8)
        spec["queries"] = [{"op": "pr_topk", "graph": "rmat", "ratio": 1.0, "k": 5}]
        report = run_spec(spec)
        assert report["overall"]["wrong"] > 0
        assert report["ok"] is False

    def test_connect_to_server_of_another_scale_rejected(self):
        server = ReproServer(
            ServeConfig(scale="tiny", seed=7, self_check=False)
        )
        port = server.start()
        try:
            spec = dict(BASE_SPEC, server={"scale": "small", "seed": 7}, requests=4)
            with pytest.raises(ServeError, match="scale small, seed 7"):
                run_spec(spec, host=server.config.host, port=port)
        finally:
            server.stop()

    def test_unknown_graph_in_spec_rejected(self):
        spec = dict(BASE_SPEC)
        spec["queries"] = [{"op": "sssp", "graph": "nope", "ratio": 1.0}]
        spec["requests"] = 4
        with pytest.raises(ServeError, match="not loaded"):
            run_spec(spec)

    def test_main_reports_spec_server_mismatch_in_one_line(self, tmp_path, capsys):
        spec = dict(BASE_SPEC, requests=4)
        spec["queries"] = [{"op": "sssp", "graph": "nope", "ratio": 1.0}]
        out = tmp_path / "BENCH_SERVE.json"
        with pytest.raises(SystemExit) as exc:
            loadgen.main(["--spec", str(write_spec(tmp_path, spec)), "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().splitlines()[-1] == (
            "python -m repro bench serve: error: "
            "spec queries graph 'nope' not loaded on the server"
        )
        assert not out.exists()

    def test_main_writes_report(self, tmp_path, capsys):
        spec = dict(BASE_SPEC)
        spec["requests"] = 8
        spec["kpis"] = []
        path = write_spec(tmp_path, spec)
        out = tmp_path / "BENCH_SERVE.json"
        rc = loadgen.main(["--spec", str(path), "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["name"] == "unit"
        printed = capsys.readouterr().out
        assert "serve bench" in printed and "PASS" in printed
