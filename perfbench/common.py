"""Constants, paths and correctness fingerprints shared by run.py and the worker passes."""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"

#: the suite the paper's tables and ``repro tune`` use by default; the
#: expected cycles and the known tuner defect are recorded on it
SCALE = "small"
SUITE_SEED = 7
NUM_BC_SOURCES = 3  # TableRunner's default BC source sample
TUNE_BUDGET_PERCENT = 20.0


class ProgramMissing(RuntimeError):
    """The checkout holds no program to benchmark."""


def use_program() -> None:
    """Make ``import repro`` load the checkout's ``src/`` tree."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program sources at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for every process the benchmark starts.

    ``REPRO_*`` variables (disk cache, fault injection, profiler) are
    dropped so no run reuses a cache or injects faults by accident.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of a process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"VmHWM missing from /proc/{pid}/status")


def load_expected() -> dict:
    """Recorded fingerprints; none recorded means every check fails."""
    if not EXPECTED.is_file():
        return {}
    return json.loads(EXPECTED.read_text())


# ---------------------------------------------------------------------------
# fingerprints compared bit-for-bit against expected.json
# ---------------------------------------------------------------------------
def cell_fingerprint(res) -> list:
    """One table cell's simulated quantities (floats round-trip via JSON)."""
    return [
        float(res.exact_cycles),
        float(res.approx_cycles),
        int(res.exact_iterations),
        int(res.approx_iterations),
        float(res.inaccuracy_percent),
    ]


def family_fingerprint(rec: dict) -> list:
    """One tuned family's pick and its simulated cycles."""
    return [
        rec["technique"],
        float(rec["threshold"]),
        rec["schedule"],
        json.dumps(rec["controller"], sort_keys=True),
        float(rec["exact_cycles"]),
        float(rec["static"]["cycles"]),
        float(rec["tuned"]["cycles"]),
        float(rec["static"]["inaccuracy_percent"]),
        float(rec["tuned"]["inaccuracy_percent"]),
        bool(rec["within_budget"]),
    ]


# ---------------------------------------------------------------------------
# independent oracles for the exact baseline runs
# ---------------------------------------------------------------------------
#: PageRank: the baseline stops once an iteration moves the ranks by at most
#: 1e-8 (repro.algorithms.pagerank), the oracle at 1e-12; 1e-6 per node
#: leaves a wide margin over that convergence gap
PR_ATOL = 1e-6
BC_ATOL = 1e-9
MST_RTOL = 1e-12


def oracle_checks(exact, graph, source, bc_sources, results: dict):
    """Yield ``(algorithm, ok)`` for one graph's five exact baseline runs."""
    import numpy as np

    res = results["sssp"]
    if res is None:
        yield "sssp", False
    else:
        ref = exact.exact_sssp(graph, source)
        finite = np.isfinite(ref)
        yield "sssp", bool(
            np.array_equal(np.isfinite(res.values), finite)
            and np.array_equal(res.values[finite], ref[finite])
        )
    res = results["mst"]
    ref_w = exact.exact_msf_weight(graph)
    yield "mst", res is not None and abs(
        float(res.aux["weight"]) - ref_w
    ) <= MST_RTOL * max(1.0, abs(ref_w))
    res = results["scc"]
    yield "scc", res is not None and int(res.aux["num_components"]) == int(
        exact.exact_scc_count(graph)
    )
    res = results["pr"]
    yield "pr", res is not None and bool(
        np.allclose(res.values, exact.exact_pagerank(graph), rtol=0.0, atol=PR_ATOL)
    )
    res = results["bc"]
    yield "bc", res is not None and bool(
        np.allclose(res.values, exact.exact_bc(graph, bc_sources), rtol=0.0, atol=BC_ATOL)
    )


# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------
SERVE_WORKERS = 2
SERVE_ARGS = [
    "serve", "--scale", SCALE, "--workers", str(SERVE_WORKERS),
    "--no-degradation", "--port", "0",
]


def serve_config():
    """The in-process equivalent of ``python -m repro <SERVE_ARGS>``."""
    from repro.serve.service import ServeConfig

    return ServeConfig(scale=SCALE, workers=SERVE_WORKERS, degradation=False)
