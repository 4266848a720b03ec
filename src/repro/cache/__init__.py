"""Content-addressed caching of transform and analytics artifacts.

The paper's evaluation protocol amortizes preprocessing across runs;
this package makes that real for the reproduction's sweeps: transformed
execution plans and structural analytics (clustering coefficients, BFS
forests, diameter estimates) are memoized on
``(graph.fingerprint(), stage, params fingerprint)`` in two tiers —

* :mod:`repro.cache.lru` — the bounded in-process LRU (also reused by
  the evaluation harness for exact baseline runs);
* :mod:`repro.cache.store` — an optional shared on-disk store
  (``--cache-dir`` / ``REPRO_CACHE_DIR``; npz payloads + JSON metadata,
  atomic writes, checksum-verified reads).

Caching is opt-in (off by default), except that the ``analytics.*``
stages always memoize in memory and return read-only arrays; see
:mod:`repro.cache.memo` for the enablement model and ``docs/caching.md``
for the full story.  The CLI surface is ``python -m repro cache
{stats,ls,clear}``.
"""

from .keys import artifact_key, canonical_params, params_fingerprint
from .lru import LRUCache
from .memo import (
    ENV_VAR,
    CacheConfig,
    active,
    configure,
    disable,
    enabled,
    memoize,
    memoize_arrays,
    memoize_json,
)
from .store import MISS, DiskStore

__all__ = [
    "ENV_VAR",
    "MISS",
    "CacheConfig",
    "DiskStore",
    "LRUCache",
    "active",
    "artifact_key",
    "canonical_params",
    "configure",
    "disable",
    "enabled",
    "memoize",
    "memoize_arrays",
    "memoize_json",
    "params_fingerprint",
]
