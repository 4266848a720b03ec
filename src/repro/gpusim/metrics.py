"""Accumulating execution metrics across kernel sweeps.

An algorithm run is a sequence of sweeps (fixed-point iterations, BFS
levels, Borůvka rounds …); :class:`SimMetrics` sums their
:class:`~repro.gpusim.costmodel.SweepCost` breakdowns and converts the
total to the "sim seconds" reported in the Table 2–4 reproductions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .costmodel import SweepCost
from .device import DeviceConfig

__all__ = ["SimMetrics"]


@dataclass
class SimMetrics:
    """Mutable ledger of one simulated algorithm execution."""

    device: DeviceConfig
    total: SweepCost = field(default_factory=SweepCost)
    num_sweeps: int = 0

    def add(self, cost: SweepCost) -> None:
        """Record one sweep's cost."""
        self.total = self.total + cost
        self.num_sweeps += 1

    def add_all(self, costs) -> None:
        """Record a sequence of sweeps, bit-identical to :meth:`add` each.

        One pass with local accumulators instead of a
        ``SweepCost.__add__`` chain: the int fields are exact either way,
        and cycles add in the same left-to-right order, just without the
        per-cost object churn.
        """
        t = self.total
        ss, bl, il = t.serial_steps, t.busy_lane_steps, t.idle_lane_steps
        et, ag = t.edge_transactions, t.attr_global_transactions
        ash, st, ao = t.attr_shared_transactions, t.src_transactions, t.atomic_ops
        cy = t.cycles
        for c in costs:
            ss += c.serial_steps
            bl += c.busy_lane_steps
            il += c.idle_lane_steps
            et += c.edge_transactions
            ag += c.attr_global_transactions
            ash += c.attr_shared_transactions
            st += c.src_transactions
            ao += c.atomic_ops
            cy += c.cycles
        self.total = SweepCost(ss, bl, il, et, ag, ash, st, ao, cy)
        self.num_sweeps += len(costs)

    def merge(self, other: "SimMetrics") -> None:
        """Fold another ledger (e.g. a sub-phase) into this one."""
        self.total = self.total + other.total
        self.num_sweeps += other.num_sweeps

    @property
    def cycles(self) -> float:
        return self.total.cycles

    @property
    def seconds(self) -> float:
        """Simulated wall-clock of the kernel portion of the run."""
        return self.device.cycles_to_seconds(self.total.cycles)

    @property
    def divergence_ratio(self) -> float:
        return self.total.divergence_ratio

    @property
    def shared_fraction(self) -> float:
        """Fraction of attribute transactions served from shared memory."""
        attr = self.total.attr_global_transactions + self.total.attr_shared_transactions
        if attr == 0:
            return 0.0
        return self.total.attr_shared_transactions / attr

    def summary(self) -> dict[str, float]:
        """Flat dict for reporting/benchmark output."""
        return {
            "cycles": self.total.cycles,
            "seconds": self.seconds,
            "sweeps": float(self.num_sweeps),
            "serial_steps": float(self.total.serial_steps),
            "idle_lane_steps": float(self.total.idle_lane_steps),
            "edge_transactions": float(self.total.edge_transactions),
            "attr_global_transactions": float(self.total.attr_global_transactions),
            "attr_shared_transactions": float(self.total.attr_shared_transactions),
            "src_transactions": float(self.total.src_transactions),
            "atomic_ops": float(self.total.atomic_ops),
            "divergence_ratio": self.divergence_ratio,
            "shared_fraction": self.shared_fraction,
        }
