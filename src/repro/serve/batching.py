"""The serve-side batching window: identical queries share one solve.

:class:`BatchWindow` is the admission-side collector behind
``ServeConfig.batch_window_ms``: the first request for a *batch key*
(same graph, technique, algorithm and every value-determining parameter
— the whole query up to the node it projects) becomes the group's
**leader** and holds the window open; requests with the same key
arriving within the window become **followers**.  When the window closes
— the configured wait elapses, the group fills ``batch_max_lanes``, or
holding it longer would endanger the tightest member deadline — the
leader runs the query's solve once and every member reads its own
answer (an SSSP ``target``, a BC ``node``) off the shared value, so a
burst of S identical queries pays one solve instead of S.  Responses
answered from a shared solve are footnoted ``batched: true`` with the
group's ``batch_lanes``.

Deadline semantics: the shared solve runs under the group's
**earliest-deadline member** (the one with the least remaining budget),
so batching never spends budget a member doesn't have; the leader also
never waits longer than half the tightest member's remaining budget.
If the shared solve still exceeds that earliest deadline — or fails for
any other reason — the group *falls back*: every member re-runs solo
under its own deadline, so one tight-budget member cannot time out the
whole group.  A single-member window just runs the solo path directly.

The degrade ladder composes upstream: technique substitution happens
before the batch key is formed, and the key includes the technique — a
degraded request therefore lands in a different group than an exact one
and answers of mixed fidelity never share a solve.

Observability: ``serve.batch.groups`` / ``serve.batch.requests`` /
``serve.batch.solo`` / ``serve.batch.fallback`` counters plus the
``serve.batch.window`` (leader wait, seconds) and ``serve.batch.lanes``
(members per shared solve) histograms, all surfaced by
``python -m repro stats``.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Hashable

from ..errors import DeadlineExceeded
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from .deadline import Deadline

__all__ = ["BatchWindow"]

WINDOW_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1)
LANE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)


class _Group:
    __slots__ = (
        "key",
        "deadlines",
        "solve",
        "sealed",
        "full",
        "done",
        "value",
        "error",
    )

    def __init__(self, key: Hashable, solve) -> None:
        self.key = key
        self.deadlines: list[Deadline] = []
        self.solve = solve  # the leader's; identical per key
        self.sealed = False
        self.full = threading.Event()  # set when the group hits max lanes
        self.done = threading.Event()  # set when the value (or error) lands
        self.value: Any = None
        self.error: BaseException | None = None

    def earliest(self) -> Deadline:
        """The member deadline with the least remaining budget."""
        return min(self.deadlines, key=lambda d: d.start + d.budget)


class BatchWindow:
    """Groups same-key requests arriving within a window into one solve.

    ``run`` is the only entry point; it is safe to call from any number
    of threads.  ``solve(deadline)`` computes the value every member of
    a key's group shares; the leader's runs once per group, and each
    member's own runs for a single-member window or a fallback.
    """

    def __init__(self, window_seconds: float, max_lanes: int) -> None:
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if max_lanes < 1:
            raise ValueError("max_lanes must be >= 1")
        self.window_seconds = float(window_seconds)
        self.max_lanes = int(max_lanes)
        self._lock = threading.Lock()
        self._open: dict[Hashable, _Group] = {}

    # ------------------------------------------------------------------
    def run(
        self,
        key: Hashable,
        deadline: Deadline,
        solve: Callable[[Deadline], Any],
    ) -> tuple[Any, int]:
        """Join the window for ``key``; returns ``(value, lanes)``.

        ``lanes`` is the number of members the answering solve covered —
        ``1`` means the request was answered solo (empty window, or the
        group fell back).
        """
        with self._lock:
            group = self._open.get(key)
            if group is None or group.sealed or len(group.deadlines) >= self.max_lanes:
                group = _Group(key, solve)
                self._open[key] = group
                leader = True
            else:
                leader = False
            group.deadlines.append(deadline)
            if len(group.deadlines) >= self.max_lanes:
                group.full.set()

        if leader:
            self._lead(group)
        else:
            self._follow(group, deadline)

        if group.error is not None:
            # shared solve failed (typically the earliest-deadline member
            # expired mid-solve): answer solo under *this* member's own
            # budget instead of failing the whole group
            obs_metrics.counter("serve.batch.fallback").inc()
            return solve(deadline), 1

        lanes = len(group.deadlines)
        if lanes == 1:  # single-member window: no shared solve
            obs_metrics.counter("serve.batch.solo").inc()
            return solve(deadline), 1

        return group.value, lanes

    # ------------------------------------------------------------------
    def _lead(self, group: _Group) -> None:
        # hold the window open, but never past half the tightest member
        # budget — the earliest-deadline member still has to run the solve
        wait = min(
            self.window_seconds, 0.5 * max(group.earliest().remaining(), 0.0)
        )
        t0 = time.perf_counter()
        if wait > 0:
            group.full.wait(wait)
        obs_metrics.histogram("serve.batch.window", WINDOW_BUCKETS).observe(
            time.perf_counter() - t0
        )
        with self._lock:
            group.sealed = True
            if self._open.get(group.key) is group:
                del self._open[group.key]
        lanes = len(group.deadlines)
        try:
            if lanes > 1:
                with obs_trace.span("serve.batch.sweep", lanes=lanes):
                    group.value = group.solve(group.earliest())
                obs_metrics.counter("serve.batch.groups").inc()
                obs_metrics.counter("serve.batch.requests").inc(lanes)
                obs_metrics.histogram(
                    "serve.batch.lanes", LANE_BUCKETS
                ).observe(float(lanes))
        except BaseException as exc:  # noqa: BLE001 - fanned out per member
            group.error = exc
        finally:
            group.done.set()

    def _follow(self, group: _Group, deadline: Deadline) -> None:
        # the leader seals and answers within its own bounded wait; the
        # margin covers the solve itself, capped by this member's budget
        timeout = deadline.remaining()
        if timeout <= 0 or not group.done.wait(timeout + 0.05):
            raise DeadlineExceeded(
                "deadline exceeded at batch: shared solve did not finish "
                "within this request's budget"
            )
