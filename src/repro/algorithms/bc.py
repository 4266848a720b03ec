"""Betweenness centrality — parallel Brandes' algorithm (paper §2, Alg. 1).

Two-pass, level-synchronous, inner-parallel (one source at a time, each
pass parallel over the frontier — the strategy the paper states it uses):

* **forward** — BFS from the source builds the shortest-path DAG and the
  path counts ``sigma``; each BFS level is one charged sweep over the
  frontier;
* **backward** — dependencies ``delta`` accumulate level by level via
  Eq. (1); each level is one charged sweep.

Exact BC is ``O(nm)`` per run, which is why the paper calls it out as the
canonical approximation target; like all GPU evaluations we sample a fixed
set of sources (the harness uses the *same* sources for exact and
approximate runs so the inaccuracy metric is apples-to-apples).

On a transformed plan, replica values (``sigma``/``delta``) are merged by
confluence after every level, and resident clusters get the shared-memory
latency discount automatically through the cost model.  The §3 local
iteration rounds do not apply to level-synchronous passes and are skipped.
"""

from __future__ import annotations

import numpy as np

from ..core.pipeline import ExecutionPlan
from ..errors import AlgorithmError
from ..graphs.csr import CSRGraph
from ..gpusim.device import DeviceConfig, K40C
from ..graphs.properties import ragged_arange
from ..perf.batched import LaneLedger, charge_lane_level, expand_lanes
from ..perf.edgeshare import shared_pull_view
from ..perf.gather import LevelBuckets, SweepExpansion, expand_frontier
from ..perf.schedule import schedule_for
from .common import AlgorithmResult, Runner, plan_for

__all__ = ["betweenness_centrality", "pick_sources", "BC_ENGINES"]

#: host-side scan strategies (identical values and charges; see
#: ``docs/performance.md``): ``"gather"`` does O(frontier-edges) CSR
#: gathers + a per-source level-bucketed edge argsort, ``"batched"``
#: stacks all sampled sources into lane-tagged state and drives one
#: vectorized expansion per level (:mod:`repro.perf.batched` — per-lane
#: values and charges stay byte-identical to the looped gather run),
#: ``"reference"`` is the pre-engine full-edge-scan path kept for
#: equivalence tests and the ``python -m repro perf`` speedup baseline
BC_ENGINES = ("gather", "batched", "reference")


def pick_sources(num_nodes: int, num_sources: int, seed: int = 0) -> np.ndarray:
    """Deterministic source sample shared by exact and approximate runs."""
    if num_sources < 1:
        raise AlgorithmError("num_sources must be >= 1")
    rng = np.random.default_rng(seed)
    k = min(num_sources, num_nodes)
    return np.sort(rng.choice(num_nodes, size=k, replace=False)).astype(np.int64)


def betweenness_centrality(
    graph_or_plan: CSRGraph | ExecutionPlan,
    *,
    sources: np.ndarray | None = None,
    num_sources: int = 8,
    seed: int = 0,
    topology_driven: bool = False,
    strategy: str = "inner",
    engine: str = "gather",
    device: DeviceConfig = K40C,
    runner_factory=None,
    schedule=None,
) -> AlgorithmResult:
    """Approximate-by-sampling BC scores per original node.

    ``sources`` overrides the sample (original node ids).  Scores are the
    plain dependency sums over the sampled sources (unnormalized, as the
    paper's attribute comparison wants raw values).

    ``topology_driven=True`` charges a *full* node sweep per level instead
    of the frontier — the LonestarGPU/Baseline-I kernel style, where every
    thread re-checks its node each iteration (this is why Baseline-I BC is
    by far the slowest in the paper's Table 2).

    ``strategy`` selects the parallelization the paper discusses in §2:
    ``"inner"`` (the paper's choice) processes sources sequentially, each
    pass parallel over its frontier; ``"outer"`` batches the level-``d``
    frontiers of *all* sources into one charged sweep — fuller warps,
    fewer kernel launches, identical values.  Only the cost accounting
    differs.

    ``engine`` selects the host-side scan strategy (:data:`BC_ENGINES`);
    values, iterations, and charged metrics are identical — only host
    wall-clock differs.  ``"batched"`` additionally attributes each
    source's charges to its lane (``aux["per_source_metrics"]``), every
    lane bit-identical to the source's own looped run; it requires the
    ``inner`` strategy and a frontier-driven kernel, like schedules.

    ``schedule`` (a :class:`~repro.perf.schedule.Schedule` or spec
    string) picks per-level traversal direction/partition for both
    passes.  Pull levels gather over the shared reverse view and
    re-sort the surviving records by forward edge id, recovering the
    push path's exact scatter order — so ``sigma``/``delta`` (and with
    them the scores) stay byte-identical under any schedule.  Only the
    frontier-driven gather engine with the ``inner`` strategy is
    schedulable: the reference engine exists to pin the historical
    path, and outer/topology-driven charging deliberately models
    fixed-shape kernels.
    """
    if strategy not in ("inner", "outer"):
        raise AlgorithmError(f"unknown BC strategy {strategy!r}")
    if engine not in BC_ENGINES:
        raise AlgorithmError(
            f"unknown BC engine {engine!r}; choose from {BC_ENGINES}"
        )
    sched = schedule_for(schedule)
    if sched is not None and (
        topology_driven or strategy == "outer" or engine == "reference"
    ):
        raise AlgorithmError(
            "schedules require the gather engine with the inner strategy "
            "(frontier-driven)"
        )
    if engine == "batched" and (topology_driven or strategy == "outer"):
        raise AlgorithmError(
            "the batched engine is frontier-driven with the inner strategy; "
            "topology-driven and outer charging model fixed-shape kernels"
        )
    plan = plan_for(graph_or_plan)
    n_orig = plan.num_original
    if sources is None:
        sources = pick_sources(n_orig, num_sources, seed)
    else:
        sources = np.asarray(sources, dtype=np.int64)
        if sources.size == 0:
            raise AlgorithmError("sources must be non-empty")
        if sources.min() < 0 or sources.max() >= n_orig:
            raise AlgorithmError("BC source out of range")

    runner = (runner_factory or Runner)(plan, device)
    if engine == "batched":
        return _batched_bc(plan, runner, sched, sources)
    graph = plan.graph
    n = graph.num_nodes
    m = graph.num_edges
    src_arr = runner.edges.src
    dst_arr = runner.edges.dst
    pull_view = None
    rev_indices = None

    def _pull_arrays():
        nonlocal pull_view, rev_indices
        if pull_view is None:
            pull_view = shared_pull_view(graph)
            rev_indices = pull_view.rev.indices.astype(np.int64)
        return pull_view, rev_indices

    if plan.graffix is not None:
        primary = plan.graffix.primary_slot
        g_slots, g_gids, g_sizes = plan.graffix.replica_groups()
    else:
        primary = np.arange(n_orig, dtype=np.int64)
        g_slots = g_gids = g_sizes = np.empty(0, dtype=np.int64)
    num_groups = int(g_sizes.size)

    def sync_levels(level: np.ndarray) -> None:
        """Replica copies are one logical node: when any copy is reached,
        every copy is (a replica has no in-edges of its own, so without
        this its out-edges — moved off the original — would never fire)."""
        if num_groups == 0:
            return
        lv = level[g_slots].astype(np.float64)
        lv[lv < 0] = np.inf
        gmin = np.full(num_groups, np.inf)
        np.minimum.at(gmin, g_gids, lv)
        reached = np.isfinite(gmin)
        members = reached[g_gids] & (level[g_slots] < 0)
        level[g_slots[members]] = gmin[g_gids[members]].astype(np.int64)

    def merge_positive_mean(values: np.ndarray) -> None:
        """The paper's arithmetic-mean confluence, restricted to copies
        that hold a value (> 0) — averaging a reached hub with a copy
        that merely hasn't fired yet would halve real path counts."""
        if num_groups == 0:
            return
        vals = values[g_slots]
        pos = vals > 0
        if not pos.any():
            return
        sums = np.bincount(g_gids[pos], weights=vals[pos], minlength=num_groups)
        counts = np.bincount(g_gids[pos], minlength=num_groups)
        has = counts > 0
        means = np.where(has, sums / np.maximum(counts, 1), 0.0)
        apply = has[g_gids] & (level_ref[g_slots] >= 0)
        values[g_slots[apply]] = means[g_gids[apply]]

    bc = np.zeros(n)
    total_levels = 0
    level_ref = np.full(n, -1, dtype=np.int64)  # rebound per source below
    # outer strategy: frontiers across sources are batched per level and
    # charged after the value computation (same work items, fuller warps)
    outer_forward: dict[int, list[np.ndarray]] = {}
    outer_backward: dict[int, list[np.ndarray]] = {}

    for s in sources:
        s_slot = int(primary[s])
        level = np.full(n, -1, dtype=np.int64)
        level_ref = level  # seen by merge_positive_mean
        sigma = np.zeros(n)
        level[s_slot] = 0
        sigma[s_slot] = 1.0
        sync_levels(level)
        merge_positive_mean(sigma)
        frontier = np.nonzero(level == 0)[0].astype(np.int64)
        fronts = [frontier]  # per-level frontiers, reused by the backward pass
        pending: list[SweepExpansion] = []
        depth = 0
        prev = None  # schedule hysteresis, fresh per source
        unexplored = m - int(
            (graph.offsets[frontier + 1] - graph.offsets[frontier]).sum()
        )

        # ---- forward pass: BFS DAG + path counts -----------------------
        while frontier.size:
            decision = None
            if sched is not None:
                decision = sched.decide(
                    frontier_size=int(frontier.size),
                    frontier_edges=int(
                        (graph.offsets[frontier + 1] - graph.offsets[frontier]).sum()
                    ),
                    num_nodes=n,
                    num_edges=m,
                    unexplored_edges=unexplored,
                    prev=prev,
                )
                prev = decision
            if decision is not None and decision.direction == "pull":
                # bottom-up level: unvisited candidates gather over the
                # reverse view; surviving records (in-neighbor on the
                # current level) are re-sorted by forward edge id, so
                # the sigma scatter below runs in the push path's exact
                # global CSR edge order — bit-identical accumulation
                pv, rind = _pull_arrays()
                candidates = np.nonzero(level < 0)[0].astype(np.int64)
                rexp = expand_frontier(pv.rev.offsets, rind, candidates)
                runner.ctx.charge(
                    candidates,
                    subgraph=pv.rev,
                    expansion=rexp,
                    partition=decision.partition,
                )
                sel = level[rexp.e_dst] == depth
                order = np.argsort(pv.fwd_eid[rexp.epos[sel]])
                e_src = rexp.e_dst[sel][order]  # forward source @ depth
                e_dst = rexp.e_src[sel][order]  # the unvisited candidate
            else:
                if engine == "gather":
                    # O(frontier-edges): the frontier is sorted (nonzero
                    # order), so gathered edges fall in global CSR edge
                    # order and the scatter-adds below accumulate exactly
                    # as the reference full-edge scan would; the expansion
                    # doubles as the cost model's, sparing a re-expand
                    exp = expand_frontier(graph.offsets, dst_arr, frontier)
                    e_src, e_dst = exp.e_src, exp.e_dst
                else:
                    exp = None
                    mask = np.isin(src_arr, frontier)
                    e_src = src_arr[mask]
                    e_dst = dst_arr[mask]
                if strategy == "outer":
                    outer_forward.setdefault(depth, []).append(frontier)
                elif topology_driven:
                    runner.ctx.charge(None)
                elif decision is not None:
                    # scheduled sweeps charge eagerly: eager equals
                    # batched bit-for-bit, and edge-partitioned sweeps
                    # have no batched path anyway
                    runner.ctx.charge(
                        frontier, expansion=exp, partition=decision.partition
                    )
                elif exp is not None:
                    pending.append(exp)  # flushed in one batch after the pass
                else:
                    runner.ctx.charge(frontier)
            fresh = level[e_dst] < 0
            fresh_dst = e_dst[fresh]
            if fresh_dst.size:
                level[fresh_dst] = depth + 1
            onward = level[e_dst] == depth + 1
            if onward.any():
                np.add.at(sigma, e_dst[onward], sigma[e_src[onward]])
            sync_levels(level)
            merge_positive_mean(sigma)
            if engine == "gather" and num_groups == 0 and fresh_dst.size * 4 < n:
                # without replica sync the next frontier is exactly the
                # freshly levelled dsts — sorting those few beats the
                # O(V) scan of `level` (but not when the level touched
                # a node-count's worth of edges, hence the size gate)
                frontier = np.unique(fresh_dst)
            else:
                frontier = np.nonzero(level == depth + 1)[0].astype(np.int64)
            fronts.append(frontier)
            depth += 1
            unexplored -= int(
                (graph.offsets[frontier + 1] - graph.offsets[frontier]).sum()
            )
        total_levels += depth
        runner.ctx.charge_batch(pending)

        # ---- backward pass: dependency accumulation --------------------
        delta = np.zeros(n)
        lvl_src = level[src_arr]
        lvl_dst = level[dst_arr] if engine != "gather" else None
        # one stable argsort per source buys O(level-edges) lookups per
        # level below, replacing a full-edge mask per level
        buckets = LevelBuckets(lvl_src) if engine == "gather" else None

        def merge_delta() -> None:
            # arithmetic-mean confluence over visited copies of each group
            if num_groups == 0:
                return
            visited_m = level[g_slots] >= 0
            if not visited_m.any():
                return
            sums = np.bincount(
                g_gids[visited_m], weights=delta[g_slots[visited_m]],
                minlength=num_groups,
            )
            counts = np.bincount(g_gids[visited_m], minlength=num_groups)
            has = counts > 0
            means = np.where(has, sums / np.maximum(counts, 1), 0.0)
            apply = has[g_gids] & visited_m
            delta[g_slots[apply]] = means[g_gids[apply]]

        pending = []
        for d in range(depth - 1, -1, -1):
            # gather: the forward pass already recorded each level's
            # (sorted) members, so skip the O(V) scan of `level`
            members = fronts[d] if buckets is not None else np.nonzero(level == d)[0]
            if members.size == 0:
                continue
            decision = None
            if sched is not None:
                decision = sched.decide(
                    frontier_size=int(members.size),
                    frontier_edges=int(
                        (graph.offsets[members + 1] - graph.offsets[members]).sum()
                    ),
                    num_nodes=n,
                    num_edges=m,
                    prev=prev,
                )
                prev = decision
            if decision is not None and decision.direction == "pull":
                # pull this level from the next one: the level-(d+1)
                # frontier gathers its in-edges over the reverse view,
                # keeps those from level-d parents with counted paths,
                # and re-sorts by forward edge id — the exact kept set
                # and scatter order of the push path below
                nexts = fronts[d + 1]
                if nexts.size:
                    pv, rind = _pull_arrays()
                    rexp = expand_frontier(pv.rev.offsets, rind, nexts)
                    runner.ctx.charge(
                        nexts,
                        subgraph=pv.rev,
                        expansion=rexp,
                        partition=decision.partition,
                    )
                    keep = (level[rexp.e_dst] == d) & (sigma[rexp.e_src] > 0)
                    order = np.argsort(pv.fwd_eid[rexp.epos[keep]])
                    e_src = rexp.e_dst[keep][order]  # level-d parent
                    e_dst = rexp.e_src[keep][order]  # level-(d+1) child
                else:
                    e_src = e_dst = np.empty(0, dtype=np.int64)
                if e_src.size:
                    contrib = sigma[e_src] / sigma[e_dst] * (1.0 + delta[e_dst])
                    np.add.at(delta, e_src, contrib)
                merge_delta()
                continue
            if buckets is not None:
                # the level-d bucket is exactly members' CSR adjacency
                # in ascending edge order (every out-edge of a level-d
                # node has lvl_src == d), so it doubles as the cost
                # model's expansion of this sweep
                eids = buckets.at(d)
                dstb = dst_arr[eids]
                degs = (
                    graph.offsets[members + 1] - graph.offsets[members]
                ).astype(np.int64)
                exp = SweepExpansion(
                    members, degs, ragged_arange(degs), eids, None, dstb
                )
                keep = (level[dstb] == d + 1) & (sigma[dstb] > 0)
                e_src = src_arr[eids[keep]]
                e_dst = dstb[keep]
            else:
                exp = None
                mask = (
                    (lvl_src == d) & (lvl_dst == d + 1) & (sigma[dst_arr] > 0)
                )
                e_src = src_arr[mask]
                e_dst = dst_arr[mask]
            if strategy == "outer":
                outer_backward.setdefault(d, []).append(members)
            elif topology_driven:
                runner.ctx.charge(None)
            elif decision is not None:
                runner.ctx.charge(
                    members, expansion=exp, partition=decision.partition
                )
            elif exp is not None:
                pending.append(exp)
            else:
                runner.ctx.charge(members)
            if e_src.size:
                contrib = sigma[e_src] / sigma[e_dst] * (1.0 + delta[e_dst])
                np.add.at(delta, e_src, contrib)
            merge_delta()
        runner.ctx.charge_batch(pending)
        delta[s_slot] = 0.0
        visited = level >= 0
        bc[visited] += delta[visited]

    if strategy == "outer":
        # one sweep per level, all sources' work items batched; a node
        # active for several sources occupies one lane per (source, node)
        # work item, exactly as an outer-parallel kernel would launch it
        for batches in outer_forward.values():
            runner.ctx.charge(np.concatenate(batches))
        for batches in outer_backward.values():
            runner.ctx.charge(np.concatenate(batches))

    values = plan.lower(bc)
    return AlgorithmResult(
        values=values,
        metrics=runner.metrics,
        iterations=total_levels,
        aux={"sources": sources},
    )


def _batched_bc(plan, runner, sched, sources) -> AlgorithmResult:
    """All sampled sources in one stacked sweep (``engine="batched"``).

    State is lane-flat: ``level``/``sigma``/``delta`` are ``(S, n)``
    C-contiguous arrays whose flat view puts lane ``l``'s node ``v`` at
    ``l * n + v``.  Each forward level runs one concatenated expansion
    (:func:`~repro.perf.batched.expand_lanes`) and one flat scatter for
    every push-directed lane; pull-directed lanes replicate the looped
    pull branch on their row views (the re-sort by forward edge id is
    per-lane state anyway).  The backward pass walks one global
    descending level counter — a lane with depth ``k`` joins at
    ``d = k - 1``, so its per-level decision/charge sequence equals its
    looped run — and reads each level's edge list straight from the
    stacked expansion of the recorded frontier, which by construction is
    the level bucket the looped engine argsorts ``LevelBuckets`` for:
    every out-edge of a level-``d`` node is a level-``d`` edge, already
    in ascending edge order.  Dropping those S per-source O(E log E)
    argsorts (plus the per-source Python/numpy dispatch) is where the
    batched speedup comes from.

    Per-lane equivalence (values, iteration counts, and per-source
    charges byte-identical to the looped gather engine) is enforced by
    ``differential:batched`` and ``TestBatchedEquivalence``; totals are
    replayed into the runner's ledger source by source, so the summed
    metrics match a looped run bit for bit too.
    """
    from ..obs import metrics as obs_metrics
    from ..obs import trace as obs_trace

    graph = plan.graph
    n = graph.num_nodes
    m = graph.num_edges
    offsets = graph.offsets
    indices = graph.indices.astype(np.int64)
    ctx = runner.ctx
    num_lanes = int(sources.size)
    pull_view = None
    rev_indices = None

    def _pull_arrays():
        nonlocal pull_view, rev_indices
        if pull_view is None:
            pull_view = shared_pull_view(graph)
            rev_indices = pull_view.rev.indices.astype(np.int64)
        return pull_view, rev_indices

    if plan.graffix is not None:
        primary = plan.graffix.primary_slot
        g_slots, g_gids, g_sizes = plan.graffix.replica_groups()
    else:
        primary = np.arange(plan.num_original, dtype=np.int64)
        g_slots = g_gids = g_sizes = np.empty(0, dtype=np.int64)
    num_groups = int(g_sizes.size)

    def sync_levels(level: np.ndarray) -> None:
        if num_groups == 0:
            return
        lv = level[g_slots].astype(np.float64)
        lv[lv < 0] = np.inf
        gmin = np.full(num_groups, np.inf)
        np.minimum.at(gmin, g_gids, lv)
        reached = np.isfinite(gmin)
        members = reached[g_gids] & (level[g_slots] < 0)
        level[g_slots[members]] = gmin[g_gids[members]].astype(np.int64)

    def merge_positive_mean(values: np.ndarray, level: np.ndarray) -> None:
        if num_groups == 0:
            return
        vals = values[g_slots]
        pos = vals > 0
        if not pos.any():
            return
        sums = np.bincount(g_gids[pos], weights=vals[pos], minlength=num_groups)
        counts = np.bincount(g_gids[pos], minlength=num_groups)
        has = counts > 0
        means = np.where(has, sums / np.maximum(counts, 1), 0.0)
        apply = has[g_gids] & (level[g_slots] >= 0)
        values[g_slots[apply]] = means[g_gids[apply]]

    def merge_delta(delta: np.ndarray, level: np.ndarray) -> None:
        if num_groups == 0:
            return
        visited_m = level[g_slots] >= 0
        if not visited_m.any():
            return
        sums = np.bincount(
            g_gids[visited_m], weights=delta[g_slots[visited_m]],
            minlength=num_groups,
        )
        counts = np.bincount(g_gids[visited_m], minlength=num_groups)
        has = counts > 0
        means = np.where(has, sums / np.maximum(counts, 1), 0.0)
        apply = has[g_gids] & visited_m
        delta[g_slots[apply]] = means[g_gids[apply]]

    level2 = np.full((num_lanes, n), -1, dtype=np.int64)
    sigma2 = np.zeros((num_lanes, n))
    level_flat = level2.reshape(-1)
    sigma_flat = sigma2.reshape(-1)
    fronts: list[list[np.ndarray]] = [[] for _ in range(num_lanes)]
    frontiers: list[np.ndarray] = [None] * num_lanes
    prev = [None] * num_lanes
    unexplored = np.empty(num_lanes, dtype=np.int64)
    ledger = LaneLedger(num_lanes)
    for i, s in enumerate(sources):
        s_slot = int(primary[s])
        lv = level2[i]
        sg = sigma2[i]
        lv[s_slot] = 0
        sg[s_slot] = 1.0
        sync_levels(lv)
        merge_positive_mean(sg, lv)
        f = np.nonzero(lv == 0)[0].astype(np.int64)
        frontiers[i] = f
        fronts[i].append(f)
        if sched is not None:  # only decide() reads unexplored_edges
            unexplored[i] = m - int((offsets[f + 1] - offsets[f]).sum())
    lane_depth = np.zeros(num_lanes, dtype=np.int64)
    active = list(range(num_lanes))
    depth = 0
    # forward per-level expansions kept for backward reuse (sched=None)
    level_exps: dict[int, tuple] = {}
    obs_metrics.counter("perf.batched.runs").inc()
    obs_metrics.counter("perf.batched.lanes").inc(num_lanes)

    # ---- forward pass: all lanes' BFS DAGs + path counts ---------------
    with obs_trace.span(
        "perf.batched.bc", lanes=num_lanes, technique=plan.technique
    ):
        while active:
            decisions = {}
            for i in active:
                decision = None
                if sched is not None:
                    f = frontiers[i]
                    decision = sched.decide(
                        frontier_size=int(f.size),
                        frontier_edges=int((offsets[f + 1] - offsets[f]).sum()),
                        num_nodes=n,
                        num_edges=m,
                        unexplored_edges=int(unexplored[i]),
                        prev=prev[i],
                    )
                    prev[i] = decision
                decisions[i] = decision
            pull_lanes = [
                i
                for i in active
                if decisions[i] is not None and decisions[i].direction == "pull"
            ]
            push_lanes = [i for i in active if i not in pull_lanes]
            fresh_lane: dict[int, np.ndarray] = {}
            for i in pull_lanes:
                pv, rind = _pull_arrays()
                lv = level2[i]
                sg = sigma2[i]
                candidates = np.nonzero(lv < 0)[0].astype(np.int64)
                rexp = expand_frontier(pv.rev.offsets, rind, candidates)
                ledger.add(
                    i,
                    ctx.price(
                        candidates,
                        subgraph=pv.rev,
                        expansion=rexp,
                        partition=decisions[i].partition,
                    ),
                )
                sel = lv[rexp.e_dst] == depth
                order = np.argsort(pv.fwd_eid[rexp.epos[sel]])
                e_src = rexp.e_dst[sel][order]
                e_dst = rexp.e_src[sel][order]
                fresh = lv[e_dst] < 0
                fresh_dst = e_dst[fresh]
                if fresh_dst.size:
                    lv[fresh_dst] = depth + 1
                onward = lv[e_dst] == depth + 1
                if onward.any():
                    np.add.at(sg, e_dst[onward], sg[e_src[onward]])
                fresh_lane[i] = fresh_dst
            if push_lanes:
                lx = expand_lanes(
                    offsets, indices, [frontiers[i] for i in push_lanes]
                )
                row_off = np.repeat(
                    np.asarray(push_lanes, dtype=np.int64) * n,
                    np.diff(lx.rec_bounds),
                )
                flat_src = lx.e_src + row_off
                flat_dst = lx.e_dst + row_off
                if sched is None:
                    # the backward pass walks these exact frontiers with
                    # the same lane sets (no schedule: every lane pushes
                    # both ways), so the expansion and its flat indices
                    # are reusable verbatim — see the level_exps lookup
                    level_exps[depth] = (push_lanes, lx, flat_src, flat_dst)
                fresh = level_flat[flat_dst] < 0
                fdst = flat_dst[fresh]
                if fdst.size:
                    level_flat[fdst] = depth + 1
                onward = level_flat[flat_dst] == depth + 1
                if onward.any():
                    np.add.at(
                        sigma_flat, flat_dst[onward], sigma_flat[flat_src[onward]]
                    )
                charge_lane_level(
                    ctx,
                    ledger,
                    push_lanes,
                    lx.sweeps,
                    [decisions[i] for i in push_lanes],
                )
                # per-lane fresh record counts (gate input), and one flat
                # dedup shared by every gate-passing lane: fdst is
                # lane-tagged, so one sort covers what the looped engine
                # dedups once per source
                fc = np.concatenate(([0], np.cumsum(fresh, dtype=np.int64)))
                fresh_cnt = fc[lx.rec_bounds[1:]] - fc[lx.rec_bounds[:-1]]
                push_pos = {i: pos for pos, i in enumerate(push_lanes)}
                uf = uf_lo = uf_hi = None
                if num_groups == 0 and bool((fresh_cnt * 4 < n).any()):
                    uf = np.unique(fdst)
                    lanes_arr = np.asarray(push_lanes, dtype=np.int64)
                    uf_lo = np.searchsorted(uf, lanes_arr * n)
                    uf_hi = np.searchsorted(uf, (lanes_arr + 1) * n)
            still = []
            for i in active:
                lv = level2[i]
                sync_levels(lv)
                merge_positive_mean(sigma2[i], lv)
                if i in fresh_lane:  # pull lane: per-lane fresh dsts
                    fd = fresh_lane[i]
                    if num_groups == 0 and fd.size * 4 < n:
                        f = np.unique(fd)
                    else:
                        f = np.nonzero(lv == depth + 1)[0].astype(np.int64)
                else:
                    pos = push_pos[i]
                    if uf is not None and int(fresh_cnt[pos]) * 4 < n:
                        f = uf[uf_lo[pos] : uf_hi[pos]] - i * n
                    else:
                        f = np.nonzero(lv == depth + 1)[0].astype(np.int64)
                fronts[i].append(f)
                frontiers[i] = f
                if sched is not None:
                    unexplored[i] -= int((offsets[f + 1] - offsets[f]).sum())
                lane_depth[i] = depth + 1
                if f.size:
                    still.append(i)
            active = still
            depth += 1
        ledger.flush(ctx)

        # ---- backward pass: dependency accumulation --------------------
        # one global descending level counter; a lane of depth k joins at
        # d = k - 1, so its per-level decide/charge/scatter sequence is
        # exactly its looped run's
        delta2 = np.zeros((num_lanes, n))
        delta_flat = delta2.reshape(-1)
        max_depth = int(lane_depth.max()) if num_lanes else 0
        for d in range(max_depth - 1, -1, -1):
            lanes_here = [
                i
                for i in range(num_lanes)
                if d < lane_depth[i] and fronts[i][d].size
            ]
            decisions = {}
            for i in lanes_here:
                decision = None
                if sched is not None:
                    members = fronts[i][d]
                    decision = sched.decide(
                        frontier_size=int(members.size),
                        frontier_edges=int(
                            (offsets[members + 1] - offsets[members]).sum()
                        ),
                        num_nodes=n,
                        num_edges=m,
                        prev=prev[i],
                    )
                    prev[i] = decision
                decisions[i] = decision
            pull_lanes = [
                i
                for i in lanes_here
                if decisions[i] is not None and decisions[i].direction == "pull"
            ]
            push_lanes = [i for i in lanes_here if i not in pull_lanes]
            for i in pull_lanes:
                lv = level2[i]
                sg = sigma2[i]
                dl = delta2[i]
                nexts = fronts[i][d + 1]
                if nexts.size:
                    pv, rind = _pull_arrays()
                    rexp = expand_frontier(pv.rev.offsets, rind, nexts)
                    ledger.add(
                        i,
                        ctx.price(
                            nexts,
                            subgraph=pv.rev,
                            expansion=rexp,
                            partition=decisions[i].partition,
                        ),
                    )
                    keep = (lv[rexp.e_dst] == d) & (sg[rexp.e_src] > 0)
                    order = np.argsort(pv.fwd_eid[rexp.epos[keep]])
                    e_src = rexp.e_dst[keep][order]
                    e_dst = rexp.e_src[keep][order]
                else:
                    e_src = e_dst = np.empty(0, dtype=np.int64)
                if e_src.size:
                    contrib = sg[e_src] / sg[e_dst] * (1.0 + dl[e_dst])
                    np.add.at(dl, e_src, contrib)
                merge_delta(dl, lv)
            if push_lanes:
                # the stacked expansion of each lane's recorded level-d
                # frontier *is* its LevelBuckets bucket: every out-edge of
                # a level-d node is a level-d edge, in ascending edge order
                cached = level_exps.pop(d, None)
                if cached is not None and cached[0] == push_lanes:
                    _, bx, flat_src, flat_dst = cached
                else:
                    bx = expand_lanes(
                        offsets, indices, [fronts[i][d] for i in push_lanes]
                    )
                    row_off = np.repeat(
                        np.asarray(push_lanes, dtype=np.int64) * n,
                        np.diff(bx.rec_bounds),
                    )
                    flat_src = bx.e_src + row_off
                    flat_dst = bx.e_dst + row_off
                charge_lane_level(
                    ctx,
                    ledger,
                    push_lanes,
                    bx.sweeps,
                    [decisions[i] for i in push_lanes],
                )
                keep = (level_flat[flat_dst] == d + 1) & (
                    sigma_flat[flat_dst] > 0
                )
                ks = flat_src[keep]
                kd = flat_dst[keep]
                if ks.size:
                    contrib = (
                        sigma_flat[ks] / sigma_flat[kd]
                        * (1.0 + delta_flat[kd])
                    )
                    np.add.at(delta_flat, ks, contrib)
                for i in push_lanes:
                    merge_delta(delta2[i], level2[i])

    # per-lane charge attribution, then the total ledger replayed source
    # by source — accumulated metrics and solve.* counters match the
    # looped engine bit for bit
    ledger.flush(ctx)
    lane_metrics = ledger.lane_metrics(runner.device)
    bc = np.zeros(n)
    for i, s in enumerate(sources):
        delta2[i][int(primary[s])] = 0.0
        visited = level2[i] >= 0
        bc[visited] += delta2[i][visited]
    ledger.replay(ctx)
    values = plan.lower(bc)
    return AlgorithmResult(
        values=values,
        metrics=runner.metrics,
        iterations=int(lane_depth.sum()),
        aux={
            "sources": sources,
            "engine": "batched",
            "per_source_metrics": lane_metrics,
            "per_source_iterations": [int(k) for k in lane_depth],
            "per_source_sweeps": [len(c) for c in ledger.costs],
        },
    )
