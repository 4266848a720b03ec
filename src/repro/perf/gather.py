"""The simulator's one CSR row gather.

Expanding a set of nodes' adjacency lists into edge records — repeat
each node's CSR slice start and add a per-slice ``arange`` — happens
here and nowhere else in the simulator: solvers gather their frontiers
through :func:`expand_frontier`, BC's stacked lanes through
:func:`repro.perf.batched.expand_lanes`, and the cost model and the
execution context build the sweeps they price with :func:`expand_rows`.
So the records a solver scatters over and the records the cost model
prices are built by the same code.  Work and memory are
O(frontier + frontier-edges); the full edge array is never scanned.

Ordering contract (load-bearing for byte-identical results): for a
frontier sorted ascending the records come out in global CSR edge
order — exactly the order a full-edge boolean mask would have produced.
Scatter updates (``np.add.at`` / ``np.minimum.at``) applied to the
gathered records therefore accumulate in the same order as a full-scan
kernel, and float results match bit for bit.

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
    "expand_rows",
    "scatter_min_changed",
]


class SweepExpansion:
    """One sweep's edge records: the gathered rows of ``frontier``.

    ``frontier`` is in processing order; ``degs`` holds its nodes'
    degrees, and per record ``step`` is the within-adjacency ordinal,
    ``epos`` the global edge position, ``e_dst`` the destination and
    ``e_src`` the source node.  ``e_src`` is built on first read when
    the builder was not handed one: the vertex-partition pricer never
    reads it.

    Solvers hand their expansion to
    :meth:`repro.gpusim.kernel.ExecutionContext.charge`, so a sweep is
    gathered once and priced on the records the solver used.
    """

    __slots__ = ("frontier", "degs", "step", "epos", "e_dst", "_e_src")

    def __init__(
        self,
        frontier: np.ndarray,
        degs: np.ndarray,
        step: np.ndarray,
        epos: np.ndarray,
        e_dst: np.ndarray,
        e_src: np.ndarray | None = None,
    ) -> None:
        self.frontier = frontier
        self.degs = degs
        self.step = step
        self.epos = epos
        self.e_dst = e_dst
        self._e_src = e_src

    @property
    def e_src(self) -> np.ndarray:
        if self._e_src is None:
            self._e_src = np.repeat(self.frontier, self.degs)
        return self._e_src


def expand_rows(
    offsets: np.ndarray, indices: np.ndarray, frontier: np.ndarray | None
) -> SweepExpansion:
    """The edge records of ``frontier``'s CSR rows (``None``: every node
    in id order).

    Uncounted and untraced: the cost model and the execution context
    build the sweeps they price with it.  The all-nodes sweep takes a
    shortcut — its records are the edge array itself, so ``epos`` is an
    ``arange`` and ``e_dst`` a copy of ``indices``.
    """
    if frontier is None:
        degs = np.diff(offsets).astype(np.int64)
        return SweepExpansion(
            np.arange(degs.size, dtype=np.int64),
            degs,
            ragged_arange(degs),
            np.arange(indices.size, dtype=np.int64),
            indices.astype(np.int64),
        )
    frontier = np.asarray(frontier, dtype=np.int64)
    starts = offsets[frontier].astype(np.int64)
    degs = offsets[frontier + 1].astype(np.int64) - starts
    step = ragged_arange(degs)
    epos = np.repeat(starts, degs) + step
    return SweepExpansion(
        frontier, degs, step, epos, indices[epos].astype(np.int64, copy=False)
    )


def expand_frontier(
    offsets: np.ndarray,
    indices: np.ndarray,
    frontier: np.ndarray,
) -> SweepExpansion:
    """A solver's gather: :func:`expand_rows` of ``frontier``, counted.

    Records ``perf.gather.calls`` / ``perf.gather.edges`` and, under a
    tracer, a ``perf.gather`` span.  For a frontier sorted ascending the
    records are in global CSR edge order; ``epos`` indexes parallel
    per-edge arrays (weights, per-edge levels).
    """
    if obs_trace.get_tracer() is not None:
        with obs_trace.span("perf.gather", frontier=int(np.size(frontier))) as sp:
            exp = expand_rows(offsets, indices, frontier)
            sp.set(edges=int(exp.epos.size))
    else:
        exp = expand_rows(offsets, indices, frontier)
    obs_metrics.counter("perf.gather.calls").inc()
    obs_metrics.counter("perf.gather.edges").inc(int(exp.epos.size))
    return exp


def scatter_min_changed(
    values: np.ndarray, idx: np.ndarray, cand: np.ndarray
) -> np.ndarray:
    """``np.minimum.at(values, idx, cand)`` + touched-only change mask.

    Returns a boolean mask parallel to ``idx`` marking the records whose
    destination value strictly improved; every record pointing at an
    improved destination is marked, so a caller can take the next
    frontier from the records' destinations.  Only the touched
    destinations are snapshotted: O(k) for k records, never the whole
    array.
    """
    before = values[idx]
    np.minimum.at(values, idx, cand)
    return values[idx] < before
