"""Per-request latency budgets, checked everywhere work happens.

Every request admitted to the server carries a :class:`Deadline` — a
monotonic-clock budget fixed at arrival.  The budget is consulted at
three depths, so a request that can no longer make it is cancelled for
the price of a clock read instead of burning a worker to completion:

* **admission** — a request whose budget is already spent (or that
  exhausted it waiting in the queue) is rejected before any plan or
  sweep work;
* **stage boundaries** — the service checks between pipeline stages
  (plan fetch, solve, serialize) via :meth:`Deadline.check`;
* **sweep loops** — :class:`DeadlineRunner` wraps the algorithm
  :class:`~repro.algorithms.common.Runner` so every frontier step
  (each global sweep, BFS level and PageRank iteration), block of
  cluster rounds and BC level re-checks; a fixed-point loop over a
  large plan notices expiry within one sweep rather than at convergence.

Expiry raises :class:`~repro.errors.DeadlineExceeded`, which the server
maps to a ``status="timeout"`` response.  ``serve.deadline.expired``
counts them per stage via the counter suffix.
"""

from __future__ import annotations

import math
import time

from ..algorithms.common import Runner
from ..errors import DeadlineExceeded
from ..obs import metrics as obs_metrics

__all__ = ["Deadline", "DeadlineRunner", "deadline_runner_factory"]


class Deadline:
    """A wall-clock budget anchored at construction time.

    ``budget`` is in seconds; ``None`` / ``inf`` means unbounded (health
    probes, offline tools).  Instances are immutable after construction
    and safe to share across the stages of one request (they are only
    read).
    """

    __slots__ = ("budget", "start")

    def __init__(self, budget: float | None, *, start: float | None = None) -> None:
        self.budget = math.inf if budget is None else float(budget)
        self.start = time.monotonic() if start is None else start

    @classmethod
    def from_ms(cls, budget_ms: float | None) -> "Deadline":
        """The wire-protocol constructor (requests carry milliseconds)."""
        return cls(None if budget_ms is None else float(budget_ms) / 1000.0)

    @classmethod
    def none(cls) -> "Deadline":
        """An unbounded deadline (never expires)."""
        return cls(None)

    # ------------------------------------------------------------------
    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def remaining(self) -> float:
        """Seconds of budget left (negative once expired, inf if unbounded)."""
        return self.budget - self.elapsed()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def check(self, stage: str) -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent.

        ``stage`` names where the request died (``admission``,
        ``sweep``, …) for the error message and the per-stage counter.
        """
        rem = self.remaining()
        if rem <= 0.0:
            obs_metrics.counter(f"serve.deadline.expired.{stage}").inc()
            raise DeadlineExceeded(
                f"deadline exceeded at {stage}: budget {self.budget * 1000.0:.0f}ms,"
                f" over by {-rem * 1000.0:.1f}ms"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if math.isinf(self.budget):
            return "Deadline(unbounded)"
        return f"Deadline({self.budget * 1000.0:.0f}ms, remaining={self.remaining() * 1000.0:.1f}ms)"


class DeadlineRunner(Runner):
    """A :class:`Runner` whose sweeps re-check the request deadline.

    Algorithms accept a ``runner_factory``, so deadline propagation
    reaches inside SSSP/PR/BFS/BC loops without the algorithms knowing
    about serving: each :meth:`~Runner.advance` (so each global sweep,
    BFS level and PageRank iteration), each block of cluster rounds and
    each BC level costs one monotonic clock read.
    """

    def __init__(self, plan, device, *, deadline: Deadline) -> None:
        super().__init__(plan, device)
        self.deadline = deadline

    def cluster_rounds(self, values, relax):
        self.deadline.check("cluster_rounds")
        return super().cluster_rounds(values, relax)

    def check_level(self) -> None:
        self.deadline.check("sweep")


def deadline_runner_factory(deadline: Deadline):
    """A ``runner_factory`` binding ``deadline`` into every runner built."""

    def factory(plan, device) -> DeadlineRunner:
        return DeadlineRunner(plan, device, deadline=deadline)

    return factory
