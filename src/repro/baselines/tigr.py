"""Baseline-II: Tigr-style virtual-node splitting (Nodehi Sabet et al.).

Tigr transforms irregular graphs into *virtually regular* ones: every node
with out-degree above ``vmax`` is split into ``ceil(deg / vmax)`` virtual
nodes, each owning a consecutive slice of the adjacency list.  Two effects
follow, both captured by our cost model with no special-casing:

* **low divergence** — virtual degrees are bounded by ``vmax``, so warp
  lanes have near-uniform trip counts;
* **edge-array coalescing** — consecutive virtual nodes own consecutive
  edge ranges, so lanes read adjacent locations of the edges array.

Virtual nodes share their master's attribute, so value computation is
*exact* and identical to the master-space algorithms; only the cost
accounting runs over the virtual structure.  This is why the paper's
speedups of Graffix-over-Tigr (Tables 9–11) are smaller than over
Baseline-I: Tigr's exact baseline is already fast.

``run`` accepts a Graffix :class:`~repro.core.pipeline.ExecutionPlan` too
— the virtual split is then applied to the *transformed* slot graph,
reproducing the paper's "approximate Graffix running inside Tigr" rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..algorithms.bc import betweenness_centrality
from ..algorithms.common import AlgorithmResult, Runner, plan_for
from ..algorithms.pagerank import pagerank
from ..algorithms.sssp import sssp
from ..core.pipeline import ExecutionPlan
from ..errors import AlgorithmError, SimulationError
from ..graphs.csr import CSRGraph
from ..graphs.properties import ragged_arange
from ..gpusim.costmodel import charge_sweep
from ..gpusim.device import DeviceConfig, K40C
from ..gpusim.kernel import ExecutionContext

__all__ = ["VirtualSplit", "virtual_split", "run", "SUPPORTED", "TigrRunner"]

SUPPORTED = ("sssp", "pr", "bc")

#: Tigr's default virtual-degree bound
DEFAULT_VMAX = 4


@dataclass(frozen=True)
class VirtualSplit:
    """The virtual graph and its master mapping.

    ``graph`` has one node per virtual node; its edges array *is* the
    original edges array (the split only refines the offsets).
    ``master[v] -> master node id``; masters' virtual-id ranges are
    ``vstart[m] .. vstart[m+1]``.
    """

    graph: CSRGraph
    master: np.ndarray
    vstart: np.ndarray

    @property
    def num_virtual(self) -> int:
        return self.graph.num_nodes


def virtual_split(graph: CSRGraph, vmax: int = DEFAULT_VMAX) -> VirtualSplit:
    """Split every node into virtual nodes of out-degree <= ``vmax``.

    Zero-degree nodes keep a single empty virtual node, so every master is
    represented (an exactness requirement: virtual lanes must cover the
    same work as master lanes would).
    """
    if vmax < 1:
        raise SimulationError(f"vmax must be >= 1, got {vmax}")
    degs = graph.out_degrees().astype(np.int64)
    pieces = np.maximum(1, -(-degs // vmax))
    vstart = np.zeros(graph.num_nodes + 1, dtype=np.int64)
    np.cumsum(pieces, out=vstart[1:])
    num_virtual = int(vstart[-1])
    master = np.repeat(np.arange(graph.num_nodes, dtype=np.int64), pieces)

    # piece k of master m starts at offsets[m] + k*vmax; consecutive pieces
    # tile the adjacency exactly, so the starts alone form a valid CSR
    # offsets array (each piece's end is the next piece's start).
    piece_index = np.arange(num_virtual, dtype=np.int64) - vstart[master]
    starts = graph.offsets[master].astype(np.int64) + piece_index * vmax
    voffsets = np.concatenate([starts, [graph.num_edges]])
    # indices may exceed num_virtual - 1 as node ids; destinations in the
    # virtual graph are still *master* ids, which is what the attribute
    # gather touches — so keep them, but skip CSRGraph's range validation.
    vgraph = CSRGraph(voffsets, graph.indices, graph.weights, validate=False)
    return VirtualSplit(graph=vgraph, master=master, vstart=vstart)


class _TigrContext(ExecutionContext):
    """Prices master-space activity as sweeps over the virtual graph.

    Only :meth:`_price_sweep` is overridden: the full-sweep memo,
    charging, batch charging and the ledger are the base context's, so
    every Tigr sweep is priced the same way whichever path charges it,
    and each full sweep of the virtual graph is priced once per context.
    The memo is the context's own: the plan's memo prices the plan's
    graph, which this context re-maps onto the split.
    """

    def __init__(
        self,
        split: VirtualSplit,
        device: DeviceConfig,
        resident_mask: np.ndarray | None = None,
    ) -> None:
        super().__init__(split.graph, device)
        self._split = split
        # master ids map to threads through the virtual split, not in id
        # order, so a solver's master-space expansion never describes the
        # warp assignment: batches are priced sweep by sweep via price()
        self._identity_order = False
        # destination attributes are addressed by *master* id even in the
        # virtual graph, so the §3 residency mask stays in master space;
        # pad it to the virtual node count to satisfy the cost model's
        # length check (the padded tail is never indexed by a dst).
        if resident_mask is not None:
            padded = np.zeros(split.num_virtual, dtype=bool)
            padded[: resident_mask.size] = resident_mask
            self.resident_mask = padded

    def _virtualize(self, active: np.ndarray | None) -> np.ndarray | None:
        if active is None:
            return None
        active = np.asarray(active)
        if active.dtype == bool:
            ids = np.nonzero(active)[0].astype(np.int64)
        else:
            ids = active.astype(np.int64)
        vs = self._split.vstart
        counts = (vs[ids + 1] - vs[ids]).astype(np.int64)
        return np.repeat(vs[ids], counts) + ragged_arange(counts)

    def _price_sweep(self, active, all_shared, subgraph, expansion, partition):
        if subgraph is not None:
            # §3 cluster rounds and pull-schedule gathers stay in master
            # space: substituted structures are not virtual-split
            return charge_sweep(
                subgraph,
                self.device,
                active,
                all_shared=all_shared,
                expansion=expansion,
                partition=partition,
            )
        # a caller-provided expansion describes the master adjacency, not
        # the virtual split this context prices — never forward it
        return charge_sweep(
            self.graph,
            self.device,
            self._virtualize(active),
            resident_mask=None if all_shared else self.resident_mask,
            all_shared=all_shared,
            partition=partition,
        )


class TigrRunner(Runner):
    """A :class:`Runner` whose cost accounting uses the virtual split."""

    def __init__(
        self,
        plan: ExecutionPlan,
        device: DeviceConfig = K40C,
        vmax: int = DEFAULT_VMAX,
    ) -> None:
        super().__init__(plan, device)
        self.split = virtual_split(plan.graph, vmax)
        self.ctx = _TigrContext(self.split, device, plan.resident_mask)


def run(
    algorithm: str,
    graph_or_plan: CSRGraph | ExecutionPlan,
    *,
    source: int = 0,
    bc_sources: np.ndarray | None = None,
    num_bc_sources: int = 4,
    seed: int = 0,
    vmax: int = DEFAULT_VMAX,
    device: DeviceConfig = K40C,
) -> AlgorithmResult:
    """Execute one algorithm in Tigr (virtual-split) style."""
    plan = plan_for(graph_or_plan)

    def factory(p: ExecutionPlan, d: DeviceConfig) -> TigrRunner:
        return TigrRunner(p, d, vmax)

    if algorithm == "sssp":
        return sssp(plan, source, device=device, runner_factory=factory)
    if algorithm == "pr":
        return pagerank(plan, device=device, runner_factory=factory)
    if algorithm == "bc":
        return betweenness_centrality(
            plan,
            sources=bc_sources,
            num_sources=num_bc_sources,
            seed=seed,
            device=device,
            runner_factory=factory,
        )
    raise AlgorithmError(
        f"Tigr baseline does not implement {algorithm!r}; supported: {SUPPORTED}"
    )
