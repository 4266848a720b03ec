"""Stacked multi-source sweeps: one expansion per level for S lanes.

Level-synchronous solvers spend most of their host time on per-level
fixed costs — frontier setup, CSR gather dispatch, cost-model charging —
and a per-source loop pays them S times.  BC's one engine
(:func:`repro.algorithms.bc.betweenness_centrality`) stacks its S sampled
sources into *lanes* instead: state lives in ``(S, n)`` C-contiguous
arrays whose flat view puts lane ``l``'s node ``v`` at ``l * n + v``,
frontiers stay per-lane sparse id arrays, and each level runs **one**
concatenated CSR gather (:func:`expand_lanes`) plus one flat scatter
across every active lane.  This module holds the pieces that engine is
built from: the stacked gather, the replica-group level sync it shares
with :func:`repro.algorithms.bfs.bfs`, and the ``perf.batched.*`` run
counters.

Stacking is an optimization, not an approximation.  Lane ``l``'s scatter
targets live in ``[l*n, (l+1)*n)`` and its records keep the solo run's
global CSR edge order, so every float accumulates in its single-source
bit pattern; each lane's slice of a :class:`LaneExpansion` is bitwise the
expansion its solo run would price.  ``tests/bc_golden.json`` and the
``differential:batched`` checks (:mod:`repro.verify.differential`) hold
BC's stacked runs to their sources run one by one.

SSSP and BFS run one frontier per source: measured on the paper suite,
a stacked SSSP relax over ``(S, n)`` state was slower than the looped
solver on every graph but one (``docs/performance.md``).
"""

from __future__ import annotations

import numpy as np

from ..obs import metrics as obs_metrics
from .gather import SweepExpansion, expand_rows

__all__ = ["LaneExpansion", "expand_lanes"]


class LaneExpansion:
    """One stacked CSR gather over many lanes' frontiers.

    ``e_src``/``e_dst``/``epos`` concatenate the lanes' records;
    ``rec_bounds`` (length ``L+1``) delimits each lane's slice, and
    ``sweeps[l]`` is a zero-copy :class:`~repro.perf.gather.SweepExpansion`
    view of lane ``l`` — bitwise what ``expand_frontier`` would return
    for that frontier alone (``ragged_arange`` restarts per node, so the
    per-node step ordinals slice cleanly).
    """

    __slots__ = ("frontiers", "e_src", "e_dst", "epos", "rec_bounds", "sweeps")

    def __init__(self, frontiers, e_src, e_dst, epos, rec_bounds, sweeps):
        self.frontiers = frontiers
        self.e_src = e_src
        self.e_dst = e_dst
        self.epos = epos
        self.rec_bounds = rec_bounds
        self.sweeps = sweeps

    def row_offsets(self, lanes, n: int):
        """Each record's lane-row offset ``lane * n`` for flat state
        indexing — a scalar when one lane holds every record."""
        if len(lanes) == 1:
            return int(lanes[0]) * n
        return np.repeat(
            np.asarray(lanes, dtype=np.int64) * n, np.diff(self.rec_bounds)
        )


def expand_lanes(
    offsets: np.ndarray, indices: np.ndarray, frontiers
) -> LaneExpansion:
    """Expand many frontiers over one CSR in a single concatenated gather."""
    frontiers = [np.asarray(f, dtype=np.int64) for f in frontiers]
    counts = np.fromiter(
        (f.size for f in frontiers), dtype=np.int64, count=len(frontiers)
    )
    exp = expand_rows(
        offsets,
        indices,
        np.concatenate(frontiers) if len(frontiers) > 1 else frontiers[0],
    )
    nb = np.concatenate(([0], np.cumsum(counts))).tolist()
    rec_bounds = np.concatenate(([0], np.cumsum(exp.degs)))[nb]
    rb = rec_bounds.tolist()
    e_src = exp.e_src
    sweeps = []
    for i, frontier in enumerate(frontiers):
        recs = slice(rb[i], rb[i + 1])
        sweeps.append(
            SweepExpansion(
                frontier,
                exp.degs[nb[i] : nb[i + 1]],
                exp.step[recs],
                exp.epos[recs],
                exp.e_dst[recs],
                e_src[recs],
            )
        )
    return LaneExpansion(frontiers, e_src, exp.e_dst, exp.epos, rec_bounds, sweeps)


def count_run(**tallies) -> None:
    """Add one run's tallies to the ``perf.batched.*`` counters.

    Runs tally locally and count once at the end: a registry lookup per
    counter per level is a measurable share of a one-lane level.
    """
    for name, amount in tallies.items():
        obs_metrics.counter(f"perf.batched.{name}").inc(amount)


def _replica_info(plan):
    """``(primary, g_slots, g_gids, num_groups)``: each original node's
    primary slot and the plan's replica groups (empty on a plain graph)."""
    if plan.graffix is not None:
        primary = plan.graffix.primary_slot
        g_slots, g_gids, g_sizes = plan.graffix.replica_groups()
    else:
        primary = np.arange(plan.num_original, dtype=np.int64)
        g_slots = g_gids = g_sizes = np.empty(0, dtype=np.int64)
    return primary, g_slots, g_gids, int(g_sizes.size)


def _sync_groups(level, g_slots, g_gids, num_groups) -> None:
    """Replica copies are one logical node: every unreached copy of a
    reached group takes the group's lowest level, in place."""
    if num_groups == 0:
        return
    lv = level[g_slots].astype(np.float64)
    lv[lv < 0] = np.inf
    gmin = np.full(num_groups, np.inf)
    np.minimum.at(gmin, g_gids, lv)
    reached = np.isfinite(gmin)
    members = reached[g_gids] & (level[g_slots] < 0)
    level[g_slots[members]] = gmin[g_gids[members]].astype(np.int64)
