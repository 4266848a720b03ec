"""Differential & metamorphic verification oracles for the Graffix pipeline.

Graffix's value proposition is *bounded* inaccuracy: the transforms may
perturb solver outputs, but only inside the envelopes the paper reports.
This package is the standing oracle layer that states, for an arbitrary
graph, whether a transformed plan still satisfies the paper's structural
contracts and whether independent execution paths still agree:

* :mod:`repro.verify.invariants` — composable structural oracles per
  pipeline stage (CSR, renumber, replicate, shmem, divergence, plan);
* :mod:`repro.verify.metamorphic` — relation checks through the full
  harness (relabel invariance, weight-scaling equivariance, monotone
  knobs, exact ≡ identity);
* :mod:`repro.verify.differential` — byte-equality between independent
  implementations (BC engines, cached vs uncached, serial vs parallel);
* :mod:`repro.verify.golden` — paper-claims tolerance bands with
  machine-readable per-cell verdicts;
* :mod:`repro.verify.corpus` — the deterministic adversarial graph
  corpus (multigraphs, self loops, disconnected pieces, …);
* :mod:`repro.verify.cli` — ``python -m repro verify --quick/--deep``.

See ``docs/verification.md`` for the oracle catalogue and how to add an
invariant.
"""

from __future__ import annotations

# ``cli`` is not imported here: it pulls in repro.tune, and
# ``repro.serve`` needs only the invariants.  ``from repro.verify import
# cli`` still imports it.
from . import corpus, differential, golden, invariants, metamorphic
from .corpus import adversarial_corpus, default_corpus, generated_corpus
from .invariants import (
    Violation,
    check_coalescing,
    check_csr,
    check_divergence,
    check_plan,
    check_renumbering,
    check_shmem,
    verify_plan,
)

__all__ = [
    "cli",
    "corpus",
    "differential",
    "golden",
    "invariants",
    "metamorphic",
    "Violation",
    "adversarial_corpus",
    "default_corpus",
    "generated_corpus",
    "check_csr",
    "check_renumbering",
    "check_coalescing",
    "check_shmem",
    "check_divergence",
    "check_plan",
    "verify_plan",
]
