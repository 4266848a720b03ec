"""Cheap per-iteration error proxies for the adaptive controller.

The controller cannot afford the paper's inaccuracy metric (it needs the
exact answer) mid-solve, so it turns to proxies that are cheap
relative to a global sweep and correlate with the drift each knob
injects.  It steers on residual mass and frontier mismatch; replica
disagreement is only meaningful before a confluence merge, and the
controller observes each sweep after it (where the spread is 0):

* **replica disagreement** — the normalized spread of attribute values
  inside each Graffix replica group, *before* the next confluence merge
  folds it away.  Mean-confluence drift is exactly disagreement that got
  averaged instead of resolved, so a rising spread means the coalescing
  approximation is actively injecting error (§2.4).
* **residual mass** — the L1 delta between consecutive sweeps over the
  L1 magnitude of the current values (PageRank's classic convergence
  residual, generalized: newly-reached nodes count their full value).
  Near zero it certifies the solve is only polishing — the signal that
  makes early termination safe.
* **frontier mismatch** — apply one relax sweep over the *plan's* edges
  and one over the *original exact* edges to two scratch copies and
  count the nodes on which they disagree.  This is the periodically
  sampled exact sweep: the structural edits (added 2-hop shortcut
  edges, clustering) show up as destinations the two sweeps treat
  differently.

All three return **percentages** so they compare directly against the
budget's ``target_percent``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ProxyReadings",
    "replica_disagreement",
    "residual_mass",
    "frontier_mismatch",
]

#: guards the normalizing denominators; values below this are treated as
#: mass-less rather than dividing the proxies into meaninglessness
_EPS = 1e-12


@dataclass(frozen=True)
class ProxyReadings:
    """One iteration's proxy sample (percent units; ``None`` = not taken)."""

    residual_percent: float
    disagreement_percent: float = 0.0
    mismatch_percent: float | None = None

    def error_percent(self) -> float:
        """The error-like pressure signal (residual is progress, not error)."""
        return max(self.disagreement_percent, self.mismatch_percent or 0.0)


def replica_disagreement(values: np.ndarray, graffix) -> float:
    """Mean relative spread inside replica groups, in percent.

    Groups where fewer than two members hold finite values carry no
    disagreement (an ``inf`` sentinel next to a distance is "not yet
    propagated", not drift — mirroring the confluence-mean convention).
    """
    if graffix is None:
        return 0.0
    slots, gids, sizes = graffix.replica_groups()
    if slots.size == 0:
        return 0.0
    member = values[slots]
    finite = np.isfinite(member)
    n = sizes.size
    counts = np.bincount(gids[finite], minlength=n)
    live = counts >= 2
    if not live.any():
        return 0.0
    lo = np.full(n, np.inf)
    hi = np.full(n, -np.inf)
    np.minimum.at(lo, gids[finite], member[finite])
    np.maximum.at(hi, gids[finite], member[finite])
    spread = hi[live] - lo[live]
    scale = np.maximum(np.abs(hi[live]), np.abs(lo[live]))
    rel = spread / np.maximum(scale, _EPS)
    return float(100.0 * rel.mean())


def residual_mass(prev: np.ndarray, curr: np.ndarray) -> float:
    """L1 change between sweeps over current L1 magnitude, in percent.

    Entries finite on both sides contribute their absolute delta; an
    entry that just became finite (a newly reached node) contributes its
    full magnitude — reaching new nodes is progress the plain delta of
    two ``inf`` sentinels would hide.
    """
    curr_finite = np.isfinite(curr)
    if not curr_finite.any():
        return 0.0
    prev_finite = np.isfinite(prev)
    both = curr_finite & prev_finite
    fresh = curr_finite & ~prev_finite
    moved = float(np.abs(curr[both] - prev[both]).sum())
    moved += float(np.abs(curr[fresh]).sum()) + float(fresh.sum())
    mass = float(np.abs(curr[curr_finite]).sum())
    return 100.0 * moved / max(mass, _EPS)


def frontier_mismatch(
    values: np.ndarray,
    plan_edges,
    exact_edges,
    relax,
    *,
    rtol: float = 1e-9,
    atol: float = 1e-12,
) -> float:
    """Percent of nodes on which a plan sweep and an exact sweep disagree.

    Both sweeps run on scratch copies of ``values`` (the solve state is
    untouched); the caller is responsible for charging the exact sweep
    to the cost model — sampling exact signal is not free on the GPU
    either.  Only meaningful when the plan's value space matches the
    original graph's node space (no replica renumbering).
    """
    a = values.copy()
    b = values.copy()
    relax(plan_edges, a)
    relax(exact_edges, b)
    if a.size == 0:
        return 0.0
    both = np.isfinite(a) & np.isfinite(b)
    agree = ~np.isfinite(a) & ~np.isfinite(b)
    agree[both] = np.isclose(a[both], b[both], rtol=rtol, atol=atol)
    return float(100.0 * (1.0 - agree.mean()))
