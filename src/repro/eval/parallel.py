"""Fault-tolerant process-parallel table generation.

Each table cell (graph x algorithm x technique x baseline) is
independent once the transformed plan exists, so the sweep
embarrassingly parallelizes across processes.  Work is sharded by
*graph* (each worker builds its graph and plans locally — graphs are
regenerated from seeds rather than pickled, keeping task payloads tiny),
following the scientific-Python guidance to parallelize at the coarsest
grain that balances load.

Unlike a bare ``ProcessPoolExecutor``, this scheduler survives partial
failure:

* every worker runs in its own process with an optional **deadline**
  (``worker_timeout``); a worker that stalls is terminated rather than
  sinking the pool;
* a worker that times out or raises is **retried** up to ``max_retries``
  times with exponential backoff;
* a task that exhausts its retries has its cells **marked failed** (rows
  carry ``failed=True`` and the error) while every other task completes;
* with a :class:`~repro.resilience.journal.RunJournal`, each completed
  cell is checkpointed the moment its worker reports it, so a killed
  sweep resumes from the journal instead of starting over.

This is the scale-out path for ``REPRO_BENCH_SCALE=medium`` and beyond;
the sequential :class:`~repro.eval.tables.TableRunner` remains the simple
default.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time

from ..cache import memo
from ..errors import ReproError, WorkerTimeout
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..obs.log import get_logger
from ..resilience.faults import fault_point
from ..resilience.journal import RunJournal, cell_key
from ..resilience.retry import RetryPolicy
from .tables import ALL_ALGOS, TableRunner

__all__ = ["parallel_technique_rows", "worker_rows"]

_POLL_SECONDS = 0.02

logger = get_logger("eval.parallel")


def worker_rows(
    graph_name: str,
    technique: str,
    baseline: str,
    algorithms: tuple[str, ...],
    scale: str,
    seed: int,
    num_bc_sources: int,
    attempt: int = 0,
    degrade: bool = True,
    cache_dir: str | None = None,
) -> list[dict]:
    """One worker's share: every requested algorithm for one suite graph.

    Module-level (picklable) so worker processes can ship it; the worker
    rebuilds its graph from the generator seed, transforms it once, and
    runs all algorithms against it.  ``attempt`` is embedded in the fault
    key so injection rules can target "first attempt only" deterministically
    across process boundaries.  With ``cache_dir``, every worker attaches
    to the same on-disk artifact store (writes are atomic, so concurrent
    workers can share it) and skips transforms other workers already paid
    for.
    """
    fault_point("worker", f"{graph_name}:attempt{attempt}")
    runner = TableRunner(
        scale=scale,
        seed=seed,
        num_bc_sources=num_bc_sources,
        degrade=degrade,
        cache_dir=cache_dir,
    )
    return [
        runner.cell_row(graph_name, algo, technique, baseline)
        for algo in algorithms
    ]


def _worker_entry(conn, kwargs: dict) -> None:
    """Child-process entry: run the share, report ("ok"|"error", payload, metrics).

    The third element is the worker's :func:`repro.obs.metrics.snapshot`
    — its private counter registry (exact-cache hits, sweeps, degrades)
    shipped back through the pipe so the parent can aggregate one
    cross-worker view.
    """
    obs_metrics.reset()  # count only this task, not inherited parent state
    try:
        rows = worker_rows(**kwargs)
        message = ("ok", rows, obs_metrics.snapshot())
    except BaseException as exc:  # must not die silently — report and exit
        message = ("error", f"{type(exc).__name__}: {exc}", obs_metrics.snapshot())
    try:
        conn.send(message)
    except (BrokenPipeError, OSError):
        pass  # parent already gave up on us (timeout); nothing to tell
    finally:
        conn.close()


class _Task:
    """One unit of schedulable work: a graph's remaining algorithms."""

    __slots__ = ("graph", "algorithms", "attempt", "not_before", "last_error")

    def __init__(self, graph: str, algorithms: tuple[str, ...]):
        self.graph = graph
        self.algorithms = algorithms
        self.attempt = 0
        self.not_before = 0.0
        self.last_error = ""


def _cache_provenance(worker_metrics: dict | None, configured: bool) -> dict | None:
    """The ``cache.*`` counter slice of a worker's metrics snapshot.

    Journaled per cell (kind ``"cache"``) so a resumed run can tell which
    cells were served from the artifact cache versus computed fresh.
    Returns ``None`` when the worker ran without any cache activity, or
    without a ``configured`` cache: the always-on analytics memo counts
    too, but it is not an artifact cache a resumed run could reuse.
    """
    if not worker_metrics or not configured:
        return None
    counters = worker_metrics.get("counters") or {}
    prov = {n: v for n, v in counters.items() if n.startswith("cache.")}
    return prov or None


def _failed_row(algo: str, graph: str, error: str) -> dict:
    return {
        "algorithm": algo,
        "graph": graph,
        "speedup": 0.0,
        "inaccuracy_percent": 0.0,
        "exact_cycles": 0.0,
        "approx_cycles": 0.0,
        "failed": True,
        "error": error,
    }


def parallel_technique_rows(
    technique: str,
    *,
    baseline: str = "baseline1",
    algorithms: tuple[str, ...] = ALL_ALGOS,
    scale: str = "small",
    seed: int = 7,
    num_bc_sources: int = 3,
    max_workers: int | None = None,
    max_retries: int = 2,
    worker_timeout: float | None = None,
    backoff_base: float = 0.25,
    journal: RunJournal | None = None,
    failures: list[dict] | None = None,
    degrade: bool = True,
    cache_dir: str | None = None,
) -> list[dict]:
    """The fault-tolerant parallel equivalent of ``TableRunner._technique_rows``.

    Returns the same row dicts (sorted by algorithm then graph for
    deterministic output regardless of completion order).  Cells already
    present in ``journal`` are replayed without re-running; cells whose
    task exhausts its retries come back with ``failed=True`` and are
    appended to ``failures`` (as are degraded cells).
    """
    if technique not in ("coalescing", "shmem", "divergence", "combined"):
        raise ReproError(f"unknown technique {technique!r}")
    policy = RetryPolicy(max_retries=max_retries, backoff_base=backoff_base)
    probe = TableRunner(scale=scale, seed=seed)
    graph_names = list(probe.suite)
    if failures is None:
        failures = []

    def key_of(algo: str, graph: str) -> dict:
        return cell_key(
            technique, baseline, algo, graph, scale, seed, num_bc_sources
        )

    rows: list[dict] = []
    pending: list[_Task] = []
    for name in graph_names:
        remaining = []
        for algo in algorithms:
            cached = journal.get("cell", key_of(algo, name)) if journal else None
            if cached is not None:
                rows.append(cached)
            else:
                remaining.append(algo)
        if remaining:
            pending.append(_Task(name, tuple(remaining)))

    def note_failure(kind: str, row: dict) -> None:
        failures.append(
            {
                "kind": kind,
                "technique": technique,
                "baseline": baseline,
                "algorithm": row["algorithm"],
                "graph": row["graph"],
                "reason": row.get("degraded_reason") or row.get("error", ""),
            }
        )

    # worker snapshots are collected here and merged *after* the pool
    # drains, in sorted key order with the commutative gauge policy —
    # so the aggregated registry is identical however the completion
    # order raced (see obs.metrics.merge_snapshot's gauge_merge doc)
    worker_snapshots: dict[tuple[str, int], dict] = {}
    cache_configured = cache_dir is not None or memo.active() is not None

    def finish_ok(task: _Task, payload: list[dict], worker_metrics: dict | None) -> None:
        if worker_metrics:
            worker_snapshots[(task.graph, task.attempt)] = worker_metrics
        cache_prov = _cache_provenance(worker_metrics, cache_configured)
        for row in payload:
            if journal is not None:
                key = key_of(row["algorithm"], row["graph"])
                journal.record("cell", key, row)
                if worker_metrics:
                    journal.record("metrics", key, worker_metrics)
                if cache_prov is not None:
                    journal.record("cache", key, cache_prov)
            if row.get("degraded"):
                note_failure("degraded", row)
            obs_metrics.counter("parallel.cells_completed").inc()
            rows.append(row)

    def finish_failed(task: _Task, error: str) -> None:
        # deliberately NOT journaled: a resumed run should retry these
        logger.error(
            "task %s gave up after %d attempts: %s",
            task.graph, task.attempt + 1, error,
        )
        for algo in task.algorithms:
            row = _failed_row(algo, task.graph, error)
            note_failure("failed", row)
            obs_metrics.counter("parallel.cells_failed").inc()
            rows.append(row)

    ctx = mp.get_context()
    max_workers = max_workers or os.cpu_count() or 1
    running: list[list] = []  # [process, parent_conn, task, deadline, started]
    try:
        while pending or running:
            now = time.monotonic()
            while pending and len(running) < max_workers:
                task = next((t for t in pending if t.not_before <= now), None)
                if task is None:
                    break
                pending.remove(task)
                parent_conn, child_conn = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_worker_entry,
                    args=(
                        child_conn,
                        dict(
                            graph_name=task.graph,
                            technique=technique,
                            baseline=baseline,
                            algorithms=task.algorithms,
                            scale=scale,
                            seed=seed,
                            num_bc_sources=num_bc_sources,
                            attempt=task.attempt,
                            degrade=degrade,
                            cache_dir=cache_dir,
                        ),
                    ),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                logger.debug(
                    "spawned worker for graph %s attempt %d (pid %s)",
                    task.graph, task.attempt, proc.pid,
                )
                deadline = (
                    now + worker_timeout if worker_timeout is not None else None
                )
                running.append(
                    [proc, parent_conn, task, deadline, time.perf_counter()]
                )

            progressed = False
            for entry in list(running):
                proc, conn, task, deadline, started = entry
                outcome = None
                if conn.poll(0):
                    try:
                        outcome = conn.recv()
                    except (EOFError, OSError):
                        outcome = ("error", "worker died without reporting", None)
                elif not proc.is_alive():
                    outcome = (
                        "error",
                        f"worker exited with code {proc.exitcode} "
                        "without reporting",
                        None,
                    )
                elif deadline is not None and time.monotonic() > deadline:
                    proc.terminate()
                    obs_metrics.counter("parallel.timeouts").inc()
                    outcome = (
                        "error",
                        str(
                            WorkerTimeout(
                                f"graph {task.graph!r} attempt {task.attempt} "
                                f"exceeded {worker_timeout:g}s deadline"
                            )
                        ),
                        None,
                    )
                if outcome is None:
                    continue
                progressed = True
                running.remove(entry)
                conn.close()
                proc.join(timeout=5)
                if proc.is_alive():  # terminate() raced with real work
                    proc.kill()
                    proc.join(timeout=5)
                status, payload, worker_metrics = outcome
                obs_trace.record_span(
                    "parallel.task",
                    started,
                    graph=task.graph,
                    technique=technique,
                    attempt=task.attempt,
                    status=status,
                    algorithms=",".join(task.algorithms),
                )
                if status == "ok":
                    finish_ok(task, payload, worker_metrics)
                elif task.attempt < policy.max_retries:
                    logger.warning(
                        "retrying graph %s (attempt %d failed: %s)",
                        task.graph, task.attempt, payload,
                    )
                    obs_metrics.counter("parallel.retries").inc()
                    task.last_error = payload
                    task.not_before = time.monotonic() + policy.delay(task.attempt)
                    task.attempt += 1
                    pending.append(task)
                else:
                    finish_failed(task, payload)
            if not progressed:
                time.sleep(_POLL_SECONDS)
    finally:
        for proc, conn, _task, _deadline, _started in running:
            proc.terminate()
            conn.close()
            proc.join(timeout=5)

    for key in sorted(worker_snapshots):
        obs_metrics.merge_snapshot(worker_snapshots[key], gauge_merge="max")

    algo_rank = {a: i for i, a in enumerate(algorithms)}
    graph_rank = {g: i for i, g in enumerate(graph_names)}
    rows.sort(key=lambda r: (algo_rank[r["algorithm"]], graph_rank[r["graph"]]))
    return rows
