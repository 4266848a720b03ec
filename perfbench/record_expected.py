"""Record the simulated-quantity fingerprints every run is checked against.

Usage (from the repository root): ``python3 perfbench/record_expected.py``.

Writes ``perfbench/expected.json`` from one cold paper-tables pass and
one cold tune-search pass.  Run it only at a commit whose simulated
cycles are known good; a change that alters them on purpose re-records
them in its own commit and says why.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import run  # noqa: E402


def main() -> int:
    order = list(run.GRAPHS)
    tables, _ = run.run_pass(
        "paper-tables", {"order": order, "trace": False, "oracles": True}
    )
    tune, _ = run.run_pass("tune-search", {"order": order, "trace": False})
    expected = {
        "paper-tables": dict(sorted(tables["fingerprints"].items())),
        "tune-search": dict(sorted(tune["fingerprints"].items())),
    }
    common.EXPECTED.write_text(json.dumps(expected, indent=1) + "\n")
    print(
        f"recorded {len(expected['paper-tables'])} cells and "
        f"{len(expected['tune-search'])} families to {common.EXPECTED}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
