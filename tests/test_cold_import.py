"""Cold start: each command imports only what it runs.

Every check runs in a fresh interpreter, because the pytest process has
long since imported everything.  The commands run on numpy alone: scipy
and networkx are imported only by the exact oracles, the RCM reordering
and the agreement report's ``scipy.stats`` (about 0.8 CPU s).
``repro.verify`` is imported only by serve and the ``verify`` command,
and the top-level ``repro`` package loads its subpackages on first use.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])


def fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON object."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def oracle_libraries(modules) -> list[str]:
    return sorted(m for m in modules if m.split(".")[0] in ("scipy", "networkx"))


def loaded_after(module: str) -> set[str]:
    return set(
        fresh(
            f"import json, sys\nimport {module}\n"
            "print(json.dumps(sorted(sys.modules)))"
        )
    )


@pytest.mark.parametrize("module", ["repro.tune.search", "repro.eval.tables"])
def test_offline_commands_skip_stats_and_verify(module):
    loaded = loaded_after(module)
    assert module in loaded
    assert oracle_libraries(loaded) == []
    assert not {m for m in loaded if m.startswith("repro.verify")}


def test_solving_loads_no_oracle_library():
    """A shmem plan (triangle counts), an MST solve (the Borůvka hook)
    and one served query per op run without scipy or networkx."""
    out = fresh(
        """
import json, sys
from repro.algorithms.mst import mst
from repro.core.pipeline import build_plan
from repro.graphs.generators import heavy_tail_social
from repro.serve.protocol import QUERY_OPS
from repro.serve.server import ReproServer
from repro.serve.service import ServeConfig

mst(build_plan(heavy_tail_social(200, seed=3), "shmem"))
server = ReproServer(ServeConfig(scale="tiny", workers=1))
queries = {
    "sssp": {"op": "sssp", "graph": "rmat", "source": 0},
    "pr_topk": {"op": "pr_topk", "graph": "rmat", "k": 5},
    "bc_node": {"op": "bc_node", "graph": "rmat", "node": 3},
}
status = {op: server.handle_request(queries[op])["status"] for op in QUERY_OPS}
print(json.dumps({"status": status, "modules": sorted(sys.modules)}))
"""
    )
    assert set(out["status"].values()) == {"ok"}, out["status"]
    assert oracle_libraries(out["modules"]) == []


def test_tune_and_tables_import_nothing_while_running():
    """Each command's imports cover what it runs: a quick tune and
    Tables 6-8 load no further repro module, and no scipy or networkx."""
    out = fresh(
        """
import json, sys
from repro.eval import tables
from repro.tune.search import run_tune

before = set(sys.modules)
run_tune(quick=True)
runner = tables.TableRunner(scale="tiny")
for table in (tables.table6_coalescing, tables.table7_shmem,
              tables.table8_divergence):
    table(runner)
print(json.dumps({"added": sorted(set(sys.modules) - before)}))
"""
    )
    added = out["added"]
    assert [m for m in added if m.split(".")[0] == "repro"] == []
    assert oracle_libraries(added) == []


def test_server_loads_invariants_not_verify_cli():
    loaded = loaded_after("repro.serve.server")
    assert "repro.verify.invariants" in loaded
    assert oracle_libraries(loaded) == []
    assert "repro.verify.cli" not in loaded


def test_score_table_imports_stats_on_first_use():
    out = fresh(
        """
import json, sys
from repro.eval import paper_data
from repro.eval.agreement import score_table

before = "scipy.stats" in sys.modules
cells = paper_data.TECHNIQUE_TABLES["table6"][0]
rows = [
    {"algorithm": a, "graph": g, "speedup": 1.0 + 0.1 * i}
    for i, (a, g) in enumerate(
        (a, g) for a, per in sorted(cells.items()) for g in sorted(per)
    )
]
rho = score_table("table6", rows).spearman_speedup
after = "scipy.stats" in sys.modules
from scipy import stats
paper = [cells[r["algorithm"]][r["graph"]][0] for r in rows]
oracle = float(stats.spearmanr([r["speedup"] for r in rows], paper).statistic)
print(json.dumps({"before": before, "after": after, "rho": rho, "oracle": oracle}))
"""
    )
    assert out["before"] is False and out["after"] is True
    assert out["rho"] == out["oracle"]


def test_lazy_namespace():
    out = fresh(
        """
import json, sys
import repro

eager = sorted(m for m in sys.modules if m.startswith("repro."))
covers_all = set(repro.__all__) <= set(dir(repro))
verify_ok = hasattr(repro.verify, "verify_plan")
try:
    repro.no_such_thing
    unknown = None
except AttributeError as exc:
    unknown = str(exc)

from repro import graphs, core, algorithms, eval as ev
g = graphs.rmat(8, edge_factor=4, seed=1)
plan = core.build_plan(g, "coalescing")
approx = algorithms.sssp(plan, source=0)
exact = algorithms.sssp(g, source=0)
ev.attribute_inaccuracy(exact.values, approx.values)

namespace = {}
exec("from repro import *", namespace)
star = sorted(name for name in repro.__all__ if name in namespace)
print(json.dumps({
    "eager": eager, "covers_all": covers_all, "verify_ok": verify_ok,
    "unknown": unknown, "star": star, "speedup": exact.cycles / approx.cycles,
}))
"""
    )
    assert out["eager"] == ["repro.errors"]
    assert out["covers_all"] and out["verify_ok"]
    assert "no_such_thing" in out["unknown"]
    assert out["star"] == sorted(repro.__all__)
    assert out["speedup"] > 0
