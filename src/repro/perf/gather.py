"""O(frontier)-work CSR gather primitives.

The ``indptr``-ragged-gather idiom was proven inline in ``bfs.py`` and
``scc.py``: expand a frontier's adjacency lists by repeating each node's
CSR slice start and adding a per-slice ``arange``.  This module makes it
the single public primitive every solver hot path goes through, so the
host work of a simulated sweep is proportional to the frontier's edges —
matching what the cost model charges — instead of a full-edge scan.

Ordering contract (load-bearing for byte-identical results): for a
frontier sorted ascending, :func:`frontier_edges` yields edge records in
global CSR edge order — exactly the order a full-edge boolean mask would
have produced.  Scatter updates (``np.add.at`` / ``np.minimum.at``)
applied to the gathered records therefore accumulate in the same order
as the pre-engine full-scan code, and float results match bit for bit.

:func:`scatter_min_changed` is the scatter side's companion: a
frontier sweep's ``np.minimum.at`` plus the change mask over just the
gathered records.
"""

from __future__ import annotations

import numpy as np

from ..graphs.properties import ragged_arange
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace

__all__ = [
    "SweepExpansion",
    "expand_frontier",
    "frontier_edges",
    "scatter_min_changed",
]


class SweepExpansion:
    """One sweep's CSR expansion, precomputed by the solver.

    The cost model expands the active list's adjacency the same way the
    gather engine does; handing it the solver's arrays via
    :meth:`repro.gpusim.kernel.ExecutionContext.charge` skips that
    duplicated work (charges are identical — only host time changes).

    ``frontier`` must be in the context's processing order; ``epos`` must
    be its adjacency's global edge positions grouped per node, ``step``
    the within-adjacency ordinal, ``degs``/``e_dst`` the matching
    degrees/destinations.  ``e_src`` is solver-side convenience and may
    be ``None``.
    """

    __slots__ = ("frontier", "degs", "step", "epos", "e_src", "e_dst")

    def __init__(
        self,
        frontier: np.ndarray,
        degs: np.ndarray,
        step: np.ndarray,
        epos: np.ndarray,
        e_src: np.ndarray | None,
        e_dst: np.ndarray,
    ) -> None:
        self.frontier = frontier
        self.degs = degs
        self.step = step
        self.epos = epos
        self.e_src = e_src
        self.e_dst = e_dst


def frontier_edges(
    offsets: np.ndarray,
    indices: np.ndarray,
    frontier: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand ``frontier``'s out-edges from a CSR structure.

    Returns ``(e_src, e_dst, epos)``: the source node id, destination
    node id, and global edge-array position of every out-edge of every
    frontier node, in frontier order (global CSR edge order when the
    frontier is sorted ascending).  Work and memory are
    O(frontier + frontier-edges); the full edge array is never scanned.

    ``epos`` indexes parallel per-edge arrays (weights, per-edge levels),
    so callers can gather any edge attribute without re-deriving the
    positions.
    """
    exp = expand_frontier(offsets, indices, frontier)
    return exp.e_src, exp.e_dst, exp.epos


def expand_frontier(
    offsets: np.ndarray,
    indices: np.ndarray,
    frontier: np.ndarray,
) -> SweepExpansion:
    """Like :func:`frontier_edges`, returning the full expansion record.

    The :class:`SweepExpansion` carries everything the cost model needs,
    so solvers can pass it to ``ExecutionContext.charge`` and avoid
    expanding the same frontier twice per sweep.
    """
    frontier = np.asarray(frontier, dtype=np.int64)
    if obs_trace.get_tracer() is not None:
        with obs_trace.span("perf.gather", frontier=int(frontier.size)) as sp:
            exp = _expand(offsets, indices, frontier)
            sp.set(edges=int(exp.epos.size))
        return exp
    return _expand(offsets, indices, frontier)


def _expand(
    offsets: np.ndarray, indices: np.ndarray, frontier: np.ndarray
) -> SweepExpansion:
    starts = offsets[frontier].astype(np.int64)
    degs = (offsets[frontier + 1] - offsets[frontier]).astype(np.int64)
    total = int(degs.sum())
    obs_metrics.counter("perf.gather.calls").inc()
    obs_metrics.counter("perf.gather.edges").inc(total)
    if total == 0:
        e = np.empty(0, dtype=np.int64)
        return SweepExpansion(frontier, degs, e, e, e, e)
    step = ragged_arange(degs)
    epos = np.repeat(starts, degs) + step
    e_dst = indices[epos].astype(np.int64, copy=False)
    return SweepExpansion(frontier, degs, step, epos, np.repeat(frontier, degs), e_dst)



def scatter_min_changed(
    values: np.ndarray, idx: np.ndarray, cand: np.ndarray
) -> np.ndarray:
    """``np.minimum.at(values, idx, cand)`` + touched-only change mask.

    Returns a boolean mask parallel to ``idx`` marking the records whose
    destination value strictly improved (every record pointing at an
    improved destination is marked, as the operator-API relax functor
    contract requires).  Only the touched destinations are snapshotted:
    O(k) for k records, never the whole array.
    """
    before = values[idx]
    np.minimum.at(values, idx, cand)
    return values[idx] < before
