"""Computed agreement between the reproduction and the paper's numbers.

Given measured table rows (from :mod:`repro.eval.tables`) and the
transcribed paper values (:mod:`repro.eval.paper_data`), this module
scores the reproduction on the axes that are meaningful across a
substrate change:

* **direction agreement** — fraction of cells where measured speedup
  lands on the same side of 1.0 as the paper's;
* **rank correlation** — Spearman correlation between measured and paper
  speedups across cells (does the reproduction order the easy/hard cells
  the same way?);
* **geomean ratio** — measured geomean / paper geomean (1.0 = exact
  magnitude match, which a simulator is *not* expected to deliver);
* **ordering checks** — the cross-table claims (divergence is the mildest
  technique; Tigr gains below Baseline-I gains for coalescing and
  divergence).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ReproError
from . import paper_data
from .reporting import format_table, geomean

__all__ = ["TableAgreement", "score_table", "agreement_report"]


@dataclass(frozen=True)
class TableAgreement:
    """Agreement scores for one technique table."""

    table: str
    cells: int
    direction_agreement: float
    spearman_speedup: float
    geomean_ratio: float
    measured_geomean: float
    paper_geomean: float

    def as_row(self) -> dict:
        return {
            "table": self.table,
            "cells": self.cells,
            "direction_agreement": self.direction_agreement,
            "spearman_speedup": self.spearman_speedup,
            "measured_geomean": self.measured_geomean,
            "paper_geomean": self.paper_geomean,
            "geomean_ratio": self.geomean_ratio,
        }


def _paper_cells(table: str) -> dict[tuple[str, str], tuple[float, float]]:
    if table not in paper_data.TECHNIQUE_TABLES:
        raise ReproError(
            f"no paper data for {table!r}; have {sorted(paper_data.TECHNIQUE_TABLES)}"
        )
    cells, _gm, _baseline, _algos = paper_data.TECHNIQUE_TABLES[table]
    return {
        (algo, graph): pair
        for algo, per_graph in cells.items()
        for graph, pair in per_graph.items()
    }


def score_table(table: str, measured_rows: list[dict]) -> TableAgreement:
    """Score measured rows (from ``tables.tableN_*``) against the paper.

    ``measured_rows`` must carry ``algorithm``, ``graph``, ``speedup``.
    Only cells present on both sides are scored.
    """
    paper_cells = _paper_cells(table)
    pairs: list[tuple[float, float]] = []
    for row in measured_rows:
        key = (str(row["algorithm"]), str(row["graph"]))
        if key in paper_cells:
            pairs.append((float(row["speedup"]), paper_cells[key][0]))
    if not pairs:
        raise ReproError(f"no overlapping cells between measurement and {table}")

    measured = np.array([p[0] for p in pairs])
    paper = np.array([p[1] for p in pairs])
    direction = float(np.mean((measured >= 1.0) == (paper >= 1.0)))
    if np.unique(measured).size > 1 and np.unique(paper).size > 1:
        # scipy.stats costs ~0.8 CPU s to import and only this report
        # uses it, so it loads here, not with the package
        from scipy import stats

        rho = float(stats.spearmanr(measured, paper).statistic)
    else:
        rho = 0.0
    measured_gm = geomean(measured)
    paper_gm = paper_data.TECHNIQUE_TABLES[table][1][0]
    return TableAgreement(
        table=table,
        cells=len(pairs),
        direction_agreement=direction,
        spearman_speedup=rho,
        geomean_ratio=measured_gm / paper_gm,
        measured_geomean=measured_gm,
        paper_geomean=paper_gm,
    )


def agreement_report(results: dict[str, list[dict]]) -> str:
    """Score several tables and render the summary + cross-table checks.

    ``results`` maps ``"table6"``.. to the measured row lists.
    """
    scored = [score_table(name, rows) for name, rows in sorted(results.items())]
    text = format_table(
        [s.as_row() for s in scored],
        [
            "table",
            "cells",
            "direction_agreement",
            "spearman_speedup",
            "measured_geomean",
            "paper_geomean",
            "geomean_ratio",
        ],
        title="Agreement with the paper (per technique table)",
    )

    lines = [text, "", "cross-table ordering checks:"]
    by_name = {s.table: s for s in scored}

    def check(label: str, ok: bool) -> None:
        lines.append(f"  [{'ok' if ok else 'MISS'}] {label}")

    if {"table6", "table7", "table8"} <= by_name.keys():
        check(
            "divergence is the mildest technique vs Baseline-I "
            "(paper: 1.07 < 1.16/1.20)",
            by_name["table8"].measured_geomean
            <= min(
                by_name["table6"].measured_geomean,
                by_name["table7"].measured_geomean,
            )
            + 1e-9,
        )
    if {"table8", "table11"} <= by_name.keys():
        check(
            "divergence gains over Tigr below gains over Baseline-I "
            "(paper: 1.03 < 1.07)",
            by_name["table11"].measured_geomean
            < by_name["table8"].measured_geomean + 0.05,
        )
    if {"table6", "table12"} <= by_name.keys():
        check(
            "coalescing gains over Gunrock similar to Baseline-I "
            "(paper: 1.14 ~ 1.16)",
            abs(
                by_name["table12"].measured_geomean
                - by_name["table6"].measured_geomean
            )
            < 0.25,
        )
    return "\n".join(lines)
