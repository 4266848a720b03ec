"""Process-wide memoization of transform and analytics artifacts.

The paper's measurement protocol amortizes the one-time graph transform
and reports kernel time only; this module operationalizes that across a
whole sweep: expensive pure functions of ``(graph, stage, params)`` —
``build_plan``, clustering coefficients, BFS forest levels, diameter
estimates — consult a two-tier cache before recomputing.

* **Memory tier** — a bounded :class:`~repro.cache.lru.LRUCache`, always
  part of an enabled cache; hits are free of any I/O.
* **Disk tier** — an optional :class:`~repro.cache.store.DiskStore`
  (``--cache-dir`` / ``REPRO_CACHE_DIR``) shared by every process that
  points at the same directory, so parallel sweep workers and repeated
  or resumed runs skip transforms entirely.

Caching is **off by default** (``active()`` is ``None``) so unit tests
and fault-injection runs see every transform; a sweep opts in via
:func:`configure`, the CLI flag, or the environment variable.  The one
exception is the ``analytics.*`` stages: pure functions of an immutable
graph, computed by several transforms and guidelines for the same
input, they always memoize — with no cache configured, in a memory-only
:class:`CacheConfig` of :data:`RESIDENT_ENTRIES` entries that nothing
else uses.  Memoized arrays are returned read-only, so no caller can
corrupt an entry every later caller shares.  Keys are content addresses
(:mod:`repro.cache.keys`), so there is no invalidation protocol: a
changed graph, knob, device, or seed simply misses.

Every lookup runs under a ``cache.lookup`` span (attributes: stage and
outcome) and maintains counters ``cache.<stage>.{hit,miss,store}``
alongside the tier-level ``cache.mem.{hit,miss,evict}`` and
``cache.disk.{store,corrupt}``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from .keys import artifact_key, canonical_params
from .lru import LRUCache
from .store import MISS, DiskStore

__all__ = [
    "CacheConfig",
    "active",
    "configure",
    "disable",
    "enabled",
    "memoize",
    "memoize_arrays",
    "memoize_json",
]

ENV_VAR = "REPRO_CACHE_DIR"

_SENTINEL = object()


class CacheConfig:
    """One enabled cache: a memory tier plus an optional disk tier."""

    def __init__(
        self, cache_dir: str | Path | None = None, memory_entries: int = 256
    ) -> None:
        self.memory = LRUCache(memory_entries, metric_prefix="cache.mem")
        self.disk = DiskStore(cache_dir) if cache_dir is not None else None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        where = self.disk.root if self.disk is not None else "memory-only"
        return f"CacheConfig({where}, mem={len(self.memory)})"


_active: CacheConfig | None = None
_env_checked = False

#: stages memoized even with no cache configured
ALWAYS_ON_PREFIX = "analytics."

#: memory-tier bound for the always-on stages: a handful of entries per
#: graph (coefficients, triangle counts, BFS forest, diameter, stats)
#: over the few dozen graphs one command builds
RESIDENT_ENTRIES = 64

_resident = CacheConfig(memory_entries=RESIDENT_ENTRIES)


def active() -> CacheConfig | None:
    """The enabled cache, if any.

    On first call, ``REPRO_CACHE_DIR`` in the environment auto-enables a
    disk-backed cache — this is how spawned worker processes and bare
    library users pick the cache up without plumbing a flag through.
    """
    global _active, _env_checked
    if _active is None and not _env_checked:
        _env_checked = True
        env_dir = os.environ.get(ENV_VAR)
        if env_dir:
            _active = CacheConfig(cache_dir=env_dir)
    return _active


def configure(
    cache_dir: str | Path | None = None, memory_entries: int = 256
) -> CacheConfig:
    """Enable (or reconfigure) the process cache; returns the config.

    Reconfiguring with the same directory keeps the existing config (and
    its warm memory tier) rather than discarding it.
    """
    global _active, _env_checked
    _env_checked = True
    if (
        _active is not None
        and cache_dir is not None
        and _active.disk is not None
        and _active.disk.root == Path(cache_dir)
    ):
        return _active
    _active = CacheConfig(cache_dir=cache_dir, memory_entries=memory_entries)
    return _active


def disable() -> None:
    """Turn caching off for this process (the default state)."""
    global _active, _env_checked
    _active = None
    _env_checked = True


@contextmanager
def enabled(
    cache_dir: str | Path | None = None, memory_entries: int = 256
) -> Iterator[CacheConfig]:
    """Scoped enablement — restores the previous config on exit."""
    global _active, _env_checked
    prev, prev_checked = _active, _env_checked
    try:
        _active = CacheConfig(cache_dir=cache_dir, memory_entries=memory_entries)
        _env_checked = True
        yield _active
    finally:
        _active, _env_checked = prev, prev_checked


# ---------------------------------------------------------------------------
# the memoization entry points
# ---------------------------------------------------------------------------
def memoize(
    stage: str,
    graph: Any,
    params: Any,
    compute: Callable[[], Any],
    *,
    save: Callable[[Any, Path], None] | None = None,
    load: Callable[[Path, dict], Any] | None = None,
    extra_meta: Callable[[Any], dict] | None = None,
) -> Any:
    """Return the cached artifact for ``(graph, stage, params)`` or compute it.

    ``graph`` is anything with a ``fingerprint()`` method (a
    :class:`~repro.graphs.csr.CSRGraph`) or a pre-computed fingerprint
    string.  ``save(value, path)`` / ``load(path, meta)`` give the disk
    tier its codec; omit them for memory-tier-only artifacts.
    ``extra_meta(value)`` contributes additional sidecar metadata fields
    (:func:`memoize_json` rides the value itself through this).

    With no cache configured only ``analytics.*`` stages memoize, in the
    resident memory tier; every other stage just computes.
    """
    cfg = active()
    if cfg is None:
        if not stage.startswith(ALWAYS_ON_PREFIX):
            return compute()
        cfg = _resident
    fp = graph.fingerprint() if hasattr(graph, "fingerprint") else str(graph)
    key = artifact_key(fp, stage, params)
    with obs_trace.span("cache.lookup", stage=stage) as sp:
        value = cfg.memory.get(key, _SENTINEL)
        if value is not _SENTINEL:
            obs_metrics.counter(f"cache.{stage}.hit").inc()
            if sp is not None:
                sp.set(outcome="memory")
            return value
        if cfg.disk is not None and load is not None:
            got = cfg.disk.get(stage, key, load)
            if got is not MISS:
                obs_metrics.counter(f"cache.{stage}.hit").inc()
                cfg.memory.put(key, got)
                if sp is not None:
                    sp.set(outcome="disk")
                return got
        obs_metrics.counter(f"cache.{stage}.miss").inc()
        if sp is not None:
            sp.set(outcome="miss")
    value = compute()
    cfg.memory.put(key, value)
    if cfg.disk is not None and save is not None:
        meta = {"graph_fingerprint": fp, "params": canonical_params(params)}
        if extra_meta is not None:
            meta.update(extra_meta(value))
        cfg.disk.put(stage, key, meta, lambda path: save(value, path))
        obs_metrics.counter(f"cache.{stage}.store").inc()
    return value


def memoize_arrays(
    stage: str,
    graph: Any,
    params: Any,
    compute: Callable[[], Any],
    *,
    pack: Callable[[Any], dict],
    unpack: Callable[[dict], Any],
) -> Any:
    """:func:`memoize` with a numpy-archive disk codec.

    ``pack(value)`` names the arrays to persist; ``unpack(mapping)``
    rebuilds the value from the loaded archive.  The value (an array or
    a tuple of arrays) is returned read-only, computed or loaded: every
    later lookup shares it.
    """

    def _save(value: Any, path: Path) -> None:
        with path.open("wb") as fh:
            np.savez_compressed(fh, **pack(value))

    def _load(path: Path, _meta: dict) -> Any:
        with np.load(path) as data:
            return unpack({name: data[name] for name in data.files})

    return memoize(
        stage,
        graph,
        params,
        lambda: _read_only(compute()),
        save=_save,
        load=lambda path, meta: _read_only(_load(path, meta)),
    )


def _read_only(value: Any) -> Any:
    for arr in value if isinstance(value, tuple) else (value,):
        arr.setflags(write=False)
    return value


def memoize_json(
    stage: str,
    graph: Any,
    params: Any,
    compute: Callable[[], Any],
    *,
    to_jsonable: Callable[[Any], Any],
    from_jsonable: Callable[[Any], Any],
) -> Any:
    """:func:`memoize` for small scalar/record artifacts.

    The value rides in the metadata sidecar (``meta["value"]``); the npz
    payload is an empty placeholder kept for the uniform checksum story.
    """

    def _save(value: Any, path: Path) -> None:
        with path.open("wb") as fh:
            np.savez_compressed(fh, __empty__=np.empty(0))

    def _load(_path: Path, meta: dict) -> Any:
        return from_jsonable(meta["value"])

    return memoize(
        stage,
        graph,
        params,
        compute,
        save=_save,
        load=_load,
        extra_meta=lambda value: {"value": to_jsonable(value)},
    )
