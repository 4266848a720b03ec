"""Percentile rule and failure ledger shared by the workloads and their self-tests.

Kept free of numpy and of any ``repro`` import so run.py can
aggregate results before (or without) importing the program.
"""

from __future__ import annotations

import math

#: candidate tail percentiles, highest first
TAIL_CANDIDATES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)

#: a percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10


def samples_beyond(n: int, pct: float) -> float:
    """Expected number of the ``n`` samples that lie above percentile ``pct``."""
    return n * (100.0 - pct) / 100.0


def tail_percentile(n: int) -> float:
    """The highest candidate percentile with >= ``MIN_BEYOND`` samples beyond it.

    Raises ``ValueError`` when even the median lacks that support, so a
    run too short to characterise its tail fails loudly instead of
    reporting a percentile that rests on one or two samples.
    """
    for pct in TAIL_CANDIDATES:
        # round away float noise: 1000 samples put exactly 10 beyond p99
        if round(samples_beyond(n, pct), 9) >= MIN_BEYOND:
            return pct
    raise ValueError(
        f"{n} samples cannot support any percentile with {MIN_BEYOND} beyond it"
    )


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class FailureLedger:
    """Attempted/failed operation counts with a reason per failure.

    ``fail_fraction`` is ``failed / attempted``; a run is correct only
    when nothing failed.  Reasons are kept (bounded) so a failing run
    says what broke.
    """

    MAX_REASONS = 20

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < self.MAX_REASONS:
                self.reasons.append(what)
        return ok

    def absorb(self, attempted: int, failed: int, reasons: list[str]) -> None:
        """Fold in counts gathered elsewhere (e.g. by a worker process)."""
        if failed > attempted:
            raise ValueError(f"failed {failed} exceeds attempted {attempted}")
        self.attempted += attempted
        self.failed += failed
        room = self.MAX_REASONS - len(self.reasons)
        self.reasons.extend(reasons[: max(room, 0)])

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "reasons": list(self.reasons),
        }

    @property
    def fail_fraction(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0
