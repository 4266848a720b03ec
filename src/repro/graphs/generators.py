"""Synthetic graph suite standing in for the paper's Table 1 inputs.

The paper evaluates on five graphs: ``rmat26`` and ``random26`` (GTgraph,
2^26 nodes / ~10^9 edges each), ``LiveJournal`` and ``twitter`` (SNAP
social networks, power-law, small diameter) and ``USA-road`` (SNAP road
network, near-uniform low degree, large diameter).  We have neither the
SNAP downloads (offline) nor the memory for billion-edge graphs, so this
module generates scaled stand-ins that match each original on the two axes
the Graffix techniques are sensitive to:

* **degree-distribution shape** — power-law (rmat / livejournal / twitter)
  vs. binomial (random) vs. near-constant (road), and
* **diameter regime** — small-world vs. long-path.

All generators take an explicit seed and return weighted directed graphs
(weights uniform in ``[1, max_weight]``, as GTgraph does), so runs are
reproducible bit-for-bit.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from ..errors import GraphFormatError
from ..obs import trace as obs_trace
from .csr import CSRGraph

__all__ = [
    "rmat",
    "erdos_renyi",
    "road_network",
    "preferential_attachment",
    "heavy_tail_social",
    "paper_suite",
    "PAPER_GRAPH_NAMES",
    "SUITE_SIZES",
]


def _attach_weights(
    num_edges: int, rng: np.random.Generator, max_weight: int
) -> np.ndarray:
    """Integer-valued weights in [1, max_weight], stored as float64."""
    return rng.integers(1, max_weight + 1, size=num_edges).astype(np.float64)


def _finalize(
    num_nodes: int,
    src: np.ndarray,
    dst: np.ndarray,
    rng: np.random.Generator,
    weighted: bool,
    max_weight: int,
    shuffle: bool,
) -> CSRGraph:
    """Common tail of every generator: optional label shuffle + weights.

    ``shuffle`` applies a seeded random relabelling before freezing the
    CSR.  Real inputs (SNAP crawls, GTgraph output) carry no locality
    guarantee in their vertex ids; our synthetic constructions do
    (row-major grids, age-ordered preferential attachment), and leaving
    that in place would gift the *baseline* a near-optimal memory layout
    no real dataset has — hiding exactly the effect the paper's
    renumbering targets.  Tests exercise both settings.
    """
    if shuffle:
        perm = rng.permutation(num_nodes).astype(np.int64)
        src = perm[src]
        dst = perm[dst]
    weights = _attach_weights(src.size, rng, max_weight) if weighted else None
    return CSRGraph.from_edges(num_nodes, src, dst, weights, dedup=True)


def rmat(
    scale: int,
    edge_factor: int = 16,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
    weighted: bool = True,
    max_weight: int = 100,
    shuffle: bool = True,
) -> CSRGraph:
    """Recursive-MATrix (R-MAT) generator, the GTgraph/Graph500 kernel.

    Produces ``2**scale`` nodes and ``edge_factor * 2**scale`` directed
    edges with a power-law in/out-degree distribution.  The paper's
    ``rmat26`` is ``scale=26, edge_factor=16``; tests and benchmarks use
    much smaller scales.
    """
    if not 0 < a + b + c < 1:
        raise GraphFormatError("R-MAT probabilities must satisfy 0 < a+b+c < 1")
    rng = np.random.default_rng(seed)
    n = 1 << scale
    m = edge_factor * n
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    # Every recursion level picks one of the four quadrants for all edges at
    # once; this is the standard vectorized R-MAT with slight probability
    # noise per level (as GTgraph applies) to avoid degenerate staircases.
    for level in range(scale):
        bit = 1 << (scale - 1 - level)
        noise = rng.uniform(0.95, 1.05, size=4)
        pa, pb, pc = a * noise[0], b * noise[1], c * noise[2]
        pd = (1.0 - a - b - c) * noise[3]
        total = pa + pb + pc + pd
        r = rng.random(m) * total
        right = (r >= pa) & (r < pa + pb) | (r >= pa + pb + pc)
        down = r >= pa + pb
        src += np.where(down, bit, 0)
        dst += np.where(right, bit, 0)
    return _finalize(n, src, dst, rng, weighted, max_weight, shuffle)


def erdos_renyi(
    num_nodes: int,
    num_edges: int,
    *,
    seed: int = 0,
    weighted: bool = True,
    max_weight: int = 100,
    shuffle: bool = True,
) -> CSRGraph:
    """G(n, m) uniform random directed graph (GTgraph's ``random`` mode)."""
    if num_nodes <= 0:
        raise GraphFormatError("num_nodes must be positive")
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_nodes, size=num_edges)
    dst = rng.integers(0, num_nodes, size=num_edges)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    return _finalize(num_nodes, src, dst, rng, weighted, max_weight, shuffle)


def road_network(
    side: int,
    *,
    diagonal_prob: float = 0.05,
    removal_prob: float = 0.03,
    seed: int = 0,
    weighted: bool = True,
    max_weight: int = 100,
    shuffle: bool = True,
) -> CSRGraph:
    """USA-road stand-in: a ``side x side`` grid with perturbations.

    Grid graphs have near-constant degree (2–4) and diameter ``O(side)``,
    matching the two properties of road networks that matter for Graffix:
    uniform low degrees (so divergence is mild and the replication
    threshold wants to be low) and a large diameter (so propagation
    algorithms need many iterations).  A few diagonal shortcuts are added
    and a few grid edges removed so the graph is not perfectly regular.
    Edges are emitted in both directions.
    """
    if side < 2:
        raise GraphFormatError("side must be >= 2")
    rng = np.random.default_rng(seed)
    n = side * side
    ids = np.arange(n).reshape(side, side)
    horiz_u = ids[:, :-1].ravel()
    horiz_v = ids[:, 1:].ravel()
    vert_u = ids[:-1, :].ravel()
    vert_v = ids[1:, :].ravel()
    src = np.concatenate([horiz_u, vert_u])
    dst = np.concatenate([horiz_v, vert_v])
    keep = rng.random(src.size) >= removal_prob
    src, dst = src[keep], dst[keep]
    diag_u = ids[:-1, :-1].ravel()
    diag_v = ids[1:, 1:].ravel()
    keep_d = rng.random(diag_u.size) < diagonal_prob
    src = np.concatenate([src, diag_u[keep_d]])
    dst = np.concatenate([dst, diag_v[keep_d]])
    # symmetrize: road segments are traversable both ways
    all_src = np.concatenate([src, dst])
    all_dst = np.concatenate([dst, src])
    return _finalize(n, all_src, all_dst, rng, weighted, max_weight, shuffle)


def preferential_attachment(
    num_nodes: int,
    out_degree: int = 14,
    *,
    seed: int = 0,
    weighted: bool = True,
    max_weight: int = 100,
    shuffle: bool = True,
    reciprocity: float = 0.7,
) -> CSRGraph:
    """LiveJournal stand-in: Barabási–Albert-style social graph.

    Each arriving node links to ``out_degree`` targets sampled
    proportionally to current degree (plus one), giving a power-law
    in-degree tail and a small diameter, like the LiveJournal friendship
    network (mean degree ~14).  LiveJournal friendships are mostly mutual,
    so each link is emitted in both directions with probability
    ``reciprocity`` — without it, edges would all point from newer to
    older members and most of the graph would be unreachable from any
    single source.
    """
    if num_nodes <= out_degree:
        raise GraphFormatError("num_nodes must exceed out_degree")
    rng = np.random.default_rng(seed)
    # Vectorized preferential attachment via the repeated-endpoints trick:
    # maintain a pool where each node appears once per incident edge.
    core = out_degree + 1
    core_src = np.repeat(np.arange(core), core - 1)
    core_dst = np.concatenate(
        [np.delete(np.arange(core), i) for i in range(core)]
    )
    pool = [np.concatenate([core_src, core_dst])]
    src_chunks = [core_src]
    dst_chunks = [core_dst]
    pool_flat = pool[0]
    for v in range(core, num_nodes):
        targets = pool_flat[rng.integers(0, pool_flat.size, size=out_degree)]
        targets = np.unique(targets)
        s = np.full(targets.size, v, dtype=np.int64)
        src_chunks.append(s)
        dst_chunks.append(targets.astype(np.int64))
        pool.append(np.concatenate([s, targets]))
        # rebuild the flat pool lazily (amortized) to stay O(m) overall
        if len(pool) >= 64:
            pool = [np.concatenate(pool)]
        pool_flat = pool[0] if len(pool) == 1 else np.concatenate(pool)
    src = np.concatenate(src_chunks)
    dst = np.concatenate(dst_chunks)
    mutual = rng.random(src.size) < reciprocity
    src, dst = (
        np.concatenate([src, dst[mutual]]),
        np.concatenate([dst, src[mutual]]),
    )
    return _finalize(num_nodes, src, dst, rng, weighted, max_weight, shuffle)


def heavy_tail_social(
    num_nodes: int,
    mean_degree: int = 35,
    *,
    exponent: float = 1.8,
    seed: int = 0,
    weighted: bool = True,
    max_weight: int = 100,
    shuffle: bool = True,
    triangle_closure: float = 0.1,
) -> CSRGraph:
    """Twitter stand-in: configuration-model graph with a Zipf degree tail.

    The 2010 Twitter snapshot has mean degree ~35 with an extremely heavy
    in-degree tail (celebrity hubs).  We sample out-degrees from a
    truncated Zipf law and wire endpoints with preference toward low ids,
    mimicking hub formation.  A pure configuration model has vanishing
    clustering, which real Twitter does not (~0.1): ``triangle_closure``
    closes that fraction of sampled 2-paths so the §3 technique has the
    clusters the real graph offers.
    """
    if num_nodes <= 1:
        raise GraphFormatError("num_nodes must be > 1")
    rng = np.random.default_rng(seed)
    raw = rng.zipf(exponent, size=num_nodes).astype(np.float64)
    raw = np.minimum(raw, num_nodes // 2)
    degs = np.maximum(1, (raw * (mean_degree / raw.mean())).astype(np.int64))
    degs = np.minimum(degs, num_nodes - 1)
    src = np.repeat(np.arange(num_nodes, dtype=np.int64), degs)
    # hub-biased destinations: squaring a uniform sample skews toward 0,
    # and low ids get the large Zipf draws less often, so we route a
    # fraction of edges to the top-degree nodes explicitly.
    m = src.size
    u = rng.random(m)
    hub_order = np.argsort(-degs)
    to_hub = rng.random(m) < 0.3
    hub_pick = hub_order[(u * min(256, num_nodes)).astype(np.int64) % min(256, num_nodes)]
    uniform_pick = rng.integers(0, num_nodes, size=m)
    dst = np.where(to_hub, hub_pick, uniform_pick)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    if triangle_closure > 0 and src.size:
        # close sampled 2-paths u->v, u->w with an edge v->w (both ways)
        order = np.argsort(src, kind="stable")
        s_sorted, d_sorted = src[order], dst[order]
        degs = np.bincount(s_sorted, minlength=num_nodes)
        starts = np.zeros(num_nodes, dtype=np.int64)
        np.cumsum(degs[:-1], out=starts[1:])
        cand = np.nonzero(degs >= 2)[0]
        if cand.size:
            n_close = int(triangle_closure * src.size)
            pick = cand[rng.integers(0, cand.size, size=n_close)]
            i1 = rng.integers(0, degs[pick])
            i2 = rng.integers(0, degs[pick] - 1)
            i2 = np.where(i2 >= i1, i2 + 1, i2)
            v = d_sorted[starts[pick] + i1]
            w_ = d_sorted[starts[pick] + i2]
            ok = v != w_
            src = np.concatenate([src, v[ok], w_[ok]])
            dst = np.concatenate([dst, w_[ok], v[ok]])
    return _finalize(num_nodes, src, dst, rng, weighted, max_weight, shuffle)


PAPER_GRAPH_NAMES = ("rmat", "random", "livejournal", "usa-road", "twitter")

# the generator sizes behind each :func:`paper_suite` scale
SUITE_SIZES = {
    "tiny": dict(rmat_scale=8, er_n=256, er_m=2048, road_side=18, pa_n=300, tw_n=300),
    "small": dict(rmat_scale=11, er_n=2048, er_m=24576, road_side=48, pa_n=2000, tw_n=2000),
    "medium": dict(rmat_scale=13, er_n=8192, er_m=131072, road_side=96, pa_n=8000, tw_n=8000),
}


def paper_suite(
    scale: str = "small", *, seed: int = 7, weighted: bool = True
) -> dict[str, CSRGraph]:
    """The five-graph evaluation suite at a chosen size.

    ``scale`` is one of ``"tiny"`` (unit tests), ``"small"`` (default; the
    benchmark harness), or ``"medium"`` (slower, closer degree tails).
    Keys follow :data:`PAPER_GRAPH_NAMES`.
    """
    if scale not in SUITE_SIZES:
        raise GraphFormatError(
            f"unknown suite scale {scale!r}; pick from {sorted(SUITE_SIZES)}"
        )
    s = SUITE_SIZES[scale]
    builders: dict[str, Callable[[], CSRGraph]] = {
        "rmat": lambda: rmat(s["rmat_scale"], edge_factor=12, seed=seed, weighted=weighted),
        "random": lambda: erdos_renyi(s["er_n"], s["er_m"], seed=seed + 1, weighted=weighted),
        "livejournal": lambda: preferential_attachment(
            s["pa_n"], out_degree=12, seed=seed + 2, weighted=weighted
        ),
        "usa-road": lambda: road_network(s["road_side"], seed=seed + 3, weighted=weighted),
        "twitter": lambda: heavy_tail_social(s["tw_n"], seed=seed + 4, weighted=weighted),
    }
    suite: dict[str, CSRGraph] = {}
    with obs_trace.span("io.suite", scale=scale, seed=seed):
        for name in PAPER_GRAPH_NAMES:
            with obs_trace.span("io.generate", graph=name, scale=scale) as sp:
                suite[name] = builders[name]()
                if sp is not None:
                    sp.set(
                        nodes=suite[name].num_nodes,
                        edges=suite[name].num_edges,
                    )
    return suite
