"""Betweenness centrality — parallel Brandes' algorithm (paper §2, Alg. 1).

Two-pass, level-synchronous, inner-parallel (each source's passes are
parallel over its frontier — the strategy the paper states it uses):

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

Host-side, all sampled sources run as *lanes* of one stacked sweep
(:mod:`repro.perf.batched`): one CSR gather and one flat scatter per
level for every lane.  The simulated kernel is still one source at a
time — each lane logs its own sweeps, and the logs are charged lane by
lane in source order, so values, level counts and the ``SimMetrics``
ledger are exactly those of running the sources one after another.
"""

from __future__ import annotations

import numpy as np

from ..core.pipeline import ExecutionPlan
from ..errors import AlgorithmError
from ..graphs.csr import CSRGraph
from ..gpusim.device import DeviceConfig, K40C
from ..obs import trace as obs_trace
from ..perf.batched import (
    LaneExpansion,
    _replica_info,
    _sync_groups,
    count_run,
    expand_lanes,
)
from ..perf.gather import SweepExpansion
from ..perf.schedule import schedule_for
from .common import AlgorithmResult, Runner, check_source, plan_for

__all__ = ["betweenness_centrality", "pick_sources"]

#: a lane-log entry for one Baseline-I full sweep (``ctx.charge`` kwargs)
_FULL_SWEEP = {"active": None}


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
    device: DeviceConfig = K40C,
    runner_factory=None,
    schedule=None,
) -> AlgorithmResult:
    """Approximate-by-sampling BC scores per original node.

    ``sources`` overrides the sample (original node ids; duplicates
    allowed).  Scores are the plain dependency sums over the sampled
    sources (unnormalized, as the paper's attribute comparison wants raw
    values).

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

    ``schedule`` (a :class:`~repro.perf.schedule.Schedule` or spec
    string) picks per-level traversal direction/partition for both
    passes of every source.  Pull levels gather over the shared reverse
    view and re-sort the surviving records by forward edge id,
    recovering the push path's exact scatter order — so ``sigma``/
    ``delta`` (and with them the scores) stay byte-identical under any
    schedule.  Only inner, frontier-driven charging is schedulable:
    outer and topology-driven charging model fixed-shape kernels.

    The run checks ``runner.check_level()`` once per level of either
    pass, so a :class:`~repro.serve.deadline.DeadlineRunner` abandons
    an expired request mid-solve.
    """
    if strategy not in ("inner", "outer"):
        raise AlgorithmError(f"unknown BC strategy {strategy!r}")
    sched = schedule_for(schedule)
    if sched is not None and (topology_driven or strategy == "outer"):
        raise AlgorithmError(
            "schedules require the inner strategy with frontier-driven charging"
        )
    plan = plan_for(graph_or_plan)
    n_orig = plan.num_original
    if sources is None:
        sources = pick_sources(n_orig, num_sources, seed)
    else:
        # an object array keeps each element's own type for check_source:
        # an int64 cast would turn True into 1 and 1.5 into 1
        if not isinstance(sources, np.ndarray):
            sources = np.asarray(sources, dtype=object)
        sources = np.asarray(
            [check_source(s, n_orig) for s in sources.reshape(-1)],
            dtype=np.int64,
        )
        if sources.size == 0:
            raise AlgorithmError("sources must be non-empty")
    runner = (runner_factory or Runner)(plan, device)
    if strategy == "outer":
        charging = "outer"
    else:
        charging = "full" if topology_driven else "frontier"
    return _stacked_bc(plan, runner, sched, sources, charging)


def _stacked_bc(plan, runner, sched, sources, charging) -> AlgorithmResult:
    """All sources as lanes of one stacked sweep.

    State is lane-flat: ``level``/``sigma``/``delta`` are ``(S, n)``
    C-contiguous arrays whose flat view puts lane ``l``'s node ``v`` at
    ``l * n + v``.  Each forward level runs one concatenated expansion
    (:func:`~repro.perf.batched.expand_lanes`) and one flat scatter for
    every push-directed lane; pull-directed lanes gather on their own
    row views (the re-sort by forward edge id is per-lane state anyway).
    Lane rows are disjoint and each lane's records keep global CSR edge
    order, so every float accumulates in its single-source bit pattern.

    The backward pass walks one global descending level counter — a
    lane of depth ``k`` joins at ``d = k - 1``, so its per-level
    decision/charge sequence equals its single-source run's — and reads
    each level's edge list straight from the stacked expansion of the
    recorded frontier: every out-edge of a level-``d`` node is a
    level-``d`` edge, already in ascending edge order.

    Charging (``charging``): ``"frontier"`` logs each lane-level's
    sweep, ``"full"`` logs one Baseline-I full sweep instead, and both
    logs are charged by :func:`_charge_lanes` after the passes;
    ``"outer"`` charges every source's level-``d`` work items as one
    sweep (:func:`_charge_outer`).
    """
    graph = plan.graph
    n = graph.num_nodes
    m = graph.num_edges
    offsets = graph.offsets
    indices = graph.indices.astype(np.int64)
    num_lanes = int(sources.size)
    primary, g_slots, g_gids, num_groups = _replica_info(plan)

    def merge_mean(values: np.ndarray, level: np.ndarray, take: np.ndarray) -> None:
        """Arithmetic-mean confluence over the replica copies ``take``
        selects, written back to every reached copy of each group."""
        if not take.any():
            return
        sums = np.bincount(
            g_gids[take], weights=values[g_slots[take]], minlength=num_groups
        )
        counts = np.bincount(g_gids[take], minlength=num_groups)
        has = counts > 0
        means = np.where(has, sums / np.maximum(counts, 1), 0.0)
        apply = has[g_gids] & (level[g_slots] >= 0)
        values[g_slots[apply]] = means[g_gids[apply]]

    def sync(level: np.ndarray, sigma: np.ndarray) -> None:
        """Replica copies are one logical node: reaching any copy reaches
        every copy (a replica has no in-edges of its own), and path
        counts average over the copies that hold one (> 0) — averaging a
        reached hub with a copy that has not fired yet would halve real
        path counts."""
        if num_groups:
            _sync_groups(level, g_slots, g_gids, num_groups)
            merge_mean(sigma, level, sigma[g_slots] > 0)

    def merge_delta(delta: np.ndarray, level: np.ndarray) -> None:
        # arithmetic-mean confluence over the visited copies of each group
        if num_groups:
            merge_mean(delta, level, level[g_slots] >= 0)

    def decide(i: int, frontier: np.ndarray, unexplored_edges=None):
        prev[i] = sched.step(
            graph, frontier, unexplored_edges=unexplored_edges, prev=prev[i]
        )
        return prev[i]

    # per-lane sweep logs, each in its single-source sweep order
    logs: list[list] = [[] for _ in range(num_lanes)]

    def log_level(lanes, sweeps, decisions) -> None:
        if charging == "outer":
            return  # charged per depth after the passes
        for i, exp in zip(lanes, sweeps):
            if charging == "full":
                logs[i].append(_FULL_SWEEP)
                continue
            part = "vertex" if decisions[i] is None else decisions[i].partition
            if part == "vertex":
                logs[i].append(exp)
            else:
                logs[i].append(
                    {"active": exp.frontier, "expansion": exp, "partition": part}
                )

    level2 = np.full((num_lanes, n), -1, dtype=np.int64)
    sigma2 = np.zeros((num_lanes, n))
    level_flat = level2.reshape(-1)
    sigma_flat = sigma2.reshape(-1)
    # per-lane frontier of every forward level, the last one current
    fronts: list[list[np.ndarray]] = [[] for _ in range(num_lanes)]
    prev = [None] * num_lanes  # schedule hysteresis, per lane
    unexplored = [0] * num_lanes
    for i, s in enumerate(sources):
        lv = level2[i]
        lv[int(primary[s])] = 0
        sigma2[i][int(primary[s])] = 1.0
        sync(lv, sigma2[i])
        f = np.nonzero(lv == 0)[0].astype(np.int64)
        fronts[i].append(f)
        if sched is not None:  # only decide() reads unexplored_edges
            unexplored[i] = m - int((offsets[f + 1] - offsets[f]).sum())
    lane_depth = [0] * num_lanes
    active = list(range(num_lanes))
    depth = 0
    # forward per-level expansions kept for backward reuse (sched=None)
    level_exps: dict[int, tuple[list[int], LaneExpansion]] = {}
    levels = lane_sweeps = expansions = expansion_edges = 0

    with obs_trace.span(
        "perf.batched.bc", lanes=num_lanes, technique=plan.technique
    ):
        # ---- forward pass: all lanes' BFS DAGs + path counts ----------
        while active:
            runner.check_level()
            if sched is None:
                decisions = dict.fromkeys(active)
            else:
                decisions = {
                    i: decide(i, fronts[i][-1], unexplored_edges=unexplored[i])
                    for i in active
                }
            pull_lanes = [
                i
                for i in active
                if decisions[i] is not None and decisions[i].direction == "pull"
            ]
            push_lanes = [i for i in active if i not in pull_lanes]
            # without replica sync a lane's next frontier is exactly its
            # freshly levelled dsts — sorting those few beats the O(V)
            # scan of `level`, but not when the level touched a
            # node-count's worth of edges, hence the size gates
            fresh_fronts: dict[int, np.ndarray] = {}
            for i in pull_lanes:
                # bottom-up level: unvisited candidates gather over the
                # reverse view; surviving records (in-neighbour on the
                # current level) are re-sorted by forward edge id, so the
                # sigma scatter runs in the push path's global CSR order
                lv = level2[i]
                sg = sigma2[i]
                step, charge = runner.pull_gather(lv < 0, decisions[i])
                logs[i].append(charge)
                sel = lv[step.src] == depth
                order = np.argsort(step.eid[sel])
                e_src = step.src[sel][order]  # forward source @ depth
                e_dst = step.dst[sel][order]  # the unvisited candidate
                fresh = lv[e_dst] < 0
                fresh_dst = e_dst[fresh]
                if fresh_dst.size:
                    lv[fresh_dst] = depth + 1
                onward = lv[e_dst] == depth + 1
                if onward.any():
                    np.add.at(sg, e_dst[onward], sg[e_src[onward]])
                if num_groups == 0 and fresh_dst.size * 4 < n:
                    fresh_fronts[i] = np.unique(fresh_dst)
            if push_lanes:
                lx = expand_lanes(
                    offsets, indices, [fronts[i][-1] for i in push_lanes]
                )
                row_off = lx.row_offsets(push_lanes, n)
                flat_src = lx.e_src + row_off
                flat_dst = lx.e_dst + row_off
                expansions += 1
                expansion_edges += int(lx.rec_bounds[-1])
                if sched is None:
                    # the backward pass walks these exact frontiers with
                    # the same lane sets (no schedule: every lane pushes
                    # both ways), so the expansion is reusable verbatim —
                    # see the level_exps lookup
                    level_exps[depth] = (push_lanes, lx)
                fresh = level_flat[flat_dst] < 0
                fdst = flat_dst[fresh]
                if fdst.size:
                    level_flat[fdst] = depth + 1
                onward = level_flat[flat_dst] == depth + 1
                if onward.any():
                    np.add.at(
                        sigma_flat, flat_dst[onward], sigma_flat[flat_src[onward]]
                    )
                log_level(push_lanes, lx.sweeps, decisions)
                if num_groups == 0 and fdst.size * 4 < n:
                    # fdst is lane-tagged, so one sort dedups every lane
                    uf = np.unique(fdst)
                    starts = np.asarray(push_lanes, dtype=np.int64) * n
                    lo = np.searchsorted(uf, starts).tolist()
                    hi = np.searchsorted(uf, starts + n).tolist()
                    for i, a, b in zip(push_lanes, lo, hi):
                        fresh_fronts[i] = uf[a:b] - i * n
            levels += 1
            lane_sweeps += len(active)
            still = []
            for i in active:
                lv = level2[i]
                sync(lv, sigma2[i])
                f = fresh_fronts.get(i)
                if f is None:
                    f = np.nonzero(lv == depth + 1)[0].astype(np.int64)
                fronts[i].append(f)
                if sched is not None:
                    unexplored[i] -= int((offsets[f + 1] - offsets[f]).sum())
                lane_depth[i] = depth + 1
                if f.size:
                    still.append(i)
            active = still
            depth += 1

        # ---- backward pass: dependency accumulation -------------------
        delta2 = np.zeros((num_lanes, n))
        delta_flat = delta2.reshape(-1)
        for d in range(max(lane_depth) - 1, -1, -1):
            runner.check_level()
            lanes_here = [i for i in range(num_lanes) if d < lane_depth[i]]
            if sched is None:
                decisions = dict.fromkeys(lanes_here)
            else:
                decisions = {i: decide(i, fronts[i][d]) for i in lanes_here}
            pull_lanes = [
                i
                for i in lanes_here
                if decisions[i] is not None and decisions[i].direction == "pull"
            ]
            push_lanes = [i for i in lanes_here if i not in pull_lanes]
            for i in pull_lanes:
                # pull this level from the next one: the level-(d+1)
                # frontier gathers its in-edges over the reverse view,
                # keeps those from level-d parents with counted paths,
                # and re-sorts by forward edge id — the exact kept set
                # and scatter order of the push path
                lv = level2[i]
                sg = sigma2[i]
                dl = delta2[i]
                nexts = fronts[i][d + 1]
                if nexts.size:
                    step, charge = runner.pull_gather(nexts, decisions[i])
                    logs[i].append(charge)
                    keep = (lv[step.src] == d) & (sg[step.dst] > 0)
                    order = np.argsort(step.eid[keep])
                    e_src = step.src[keep][order]  # level-d parent
                    e_dst = step.dst[keep][order]  # level-(d+1) child
                    if e_src.size:
                        contrib = sg[e_src] / sg[e_dst] * (1.0 + dl[e_dst])
                        np.add.at(dl, e_src, contrib)
                merge_delta(dl, lv)
            if push_lanes:
                # the stacked expansion of each lane's recorded level-d
                # frontier is exactly its level-d edge bucket
                cached = level_exps.pop(d, None)
                if cached is not None and cached[0] == push_lanes:
                    bx = cached[1]
                else:
                    bx = expand_lanes(
                        offsets, indices, [fronts[i][d] for i in push_lanes]
                    )
                    expansions += 1
                    expansion_edges += int(bx.rec_bounds[-1])
                row_off = bx.row_offsets(push_lanes, n)
                flat_src = bx.e_src + row_off
                flat_dst = bx.e_dst + row_off
                log_level(push_lanes, bx.sweeps, decisions)
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
            levels += 1
            lane_sweeps += len(lanes_here)

    count_run(
        runs=1,
        lanes=num_lanes,
        levels=levels,
        lane_sweeps=lane_sweeps,
        expansions=expansions,
        expansion_edges=expansion_edges,
    )
    if charging == "outer":
        _charge_outer(runner.ctx, fronts, lane_depth)
    else:
        _charge_lanes(runner.ctx, logs)
    bc = np.zeros(n)
    for i, s in enumerate(sources):
        delta2[i][int(primary[s])] = 0.0
        visited = level2[i] >= 0
        bc[visited] += delta2[i][visited]
    return AlgorithmResult(
        values=plan.lower(bc),
        metrics=runner.metrics,
        iterations=sum(lane_depth),
        aux={"sources": sources},
    )


def _charge_lanes(ctx, logs) -> None:
    """Charge every lane's logged sweeps, lane by lane in source order.

    The ledger (and the ``solve.*`` counters) fold exactly as if the
    sources had run one after another.  Each lane's runs of
    vertex-partitioned frontier sweeps are priced in one
    :meth:`charge_batch` (a batch per lane keeps the pricer's scratch
    at one source's size); pull gathers, edge-balanced sweeps and
    Baseline-I full sweeps (logged as :meth:`charge` keyword arguments)
    are charged one at a time.
    """
    for log in logs:
        run: list[SweepExpansion] = []
        for sweep in log:
            if isinstance(sweep, SweepExpansion):
                run.append(sweep)
                continue
            if run:
                ctx.charge_batch(run)
                run = []
            ctx.charge(**sweep)
        if run:
            ctx.charge_batch(run)


def _charge_outer(ctx, fronts, lane_depth) -> None:
    """Outer-parallel charging: one sweep per level, all sources batched.

    A node active for several sources occupies one lane per (source,
    node) work item, exactly as an outer-parallel kernel would launch
    it.  Forward levels go in ascending depth.  Backward levels go in
    the order a source-by-source walk first reaches them: each source
    descends from its own depth, so a deeper later source adds its
    extra levels after the shallower sources' — that order fixes the
    ledger's float summation order.
    """
    def work_items(d: int) -> np.ndarray:
        return np.concatenate(
            [f[d] for f, k in zip(fronts, lane_depth) if d < k]
        )

    for d in range(max(lane_depth)):
        ctx.charge(work_items(d))
    reached = 0
    for k in lane_depth:
        for d in range(k - 1, reached - 1, -1):
            ctx.charge(work_items(d))
        reached = max(reached, k)
