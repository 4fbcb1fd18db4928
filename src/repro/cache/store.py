"""The content-addressed, sharded on-disk solution store.

Layout (modelled on write-ahead / sharded-key stores)::

    <root>/
      <2-hex-shard>/          # first two hex chars of the entry key
        <key>.json            # one schema-versioned entry per key

* **Keys** are the run ledger's reproducibility tuple hashed by
  :func:`repro.obs.ledger.run_key`: netlist hash x canonical config
  fingerprint x seed.  Anything that changes solver output changes the
  key, so invalidation is automatic (see ``docs/CACHING.md``).
* **Writes** are atomic: the entry is serialized in one ``json.dumps``
  call to a per-writer (pid x thread) ``.tmp`` sibling and
  ``os.replace``d into place, so concurrent writers (e.g. two batch pool
  workers solving the same key) race benignly -- last complete write
  wins, readers never observe a torn file.
* **Reads** are defensive: unparseable / schema-mismatched / truncated
  entries are treated as misses and deleted, never raised.
* **Size cap**: the store is LRU-bounded by file mtime.  Hits bump the
  entry's mtime (:meth:`SolutionCache.touch`); :meth:`SolutionCache.evict`
  is an explicit pass deleting oldest entries until the store fits
  ``max_bytes`` (``put`` runs it automatically after every insert).

Enablement mirrors :mod:`repro.obs.ledger`: an explicit store can be
installed process-wide (:func:`set_cache` / :func:`use_cache`), the
``REPRO_CACHE`` environment variable supplies a default path, and
:func:`resolve_cache` falls back to ``results/cache``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs.ledger import (
    _jsonable,
    config_fingerprint,
    netlist_fingerprint,
    run_key,
)
from repro.obs.metrics import get_registry
from repro.request import REQUEST_VERBS
from repro.robust.faults import maybe_fire

#: Version stamped into every cache entry as ``v``.
CACHE_SCHEMA_VERSION = 1

#: Store identifier written in every entry's ``schema`` field.
CACHE_SCHEMA_NAME = "repro-solution-cache/1"

#: Default cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = os.path.join("results", "cache")

#: Environment variable supplying a process-wide default cache path.
CACHE_ENV_VAR = "REPRO_CACHE"

#: Default LRU size cap (bytes) -- generous for JSON solutions.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

def cache_key(netlist_hash: str, config: Dict[str, Any], seed: int) -> str:
    """The entry key for a (netlist hash, config, seed) request.

    ``netlist_hash`` is :func:`~repro.obs.ledger.netlist_fingerprint` of
    the solved netlist, computed once by the caller.  Exactly the
    ledger's ``run_key`` over the same canonicalized inputs, so a cache
    entry and its ledger record share identity.
    """
    if not isinstance(netlist_hash, str):
        raise TypeError(
            f"cache_key takes the netlist hash, got {type(netlist_hash).__name__}"
        )
    return run_key(netlist_hash, config_fingerprint(_jsonable(config)), seed)


def build_entry(
    kind: str,
    key: str,
    circuit: str,
    netlist_hash: str,
    config: Dict[str, Any],
    seed: int,
    solution: Dict[str, Any],
    elapsed_seconds: float,
) -> Dict[str, Any]:
    """Assemble one schema-conforming cache entry.

    ``solution`` is the already-encoded payload from
    :mod:`repro.cache.codec`; ``elapsed_seconds`` records the original
    solve wall-clock, which hits report back as the time *saved* and
    which keeps cached experiment tables (CPU-seconds columns included)
    bit-identical across re-runs.  The entry is strict JSON as built, so
    :meth:`SolutionCache.put` serializes it without another copy.
    """
    if kind not in REQUEST_VERBS:
        raise ValueError(
            f"unknown cache entry kind {kind!r}; expected {REQUEST_VERBS}"
        )
    config = _jsonable(config)
    return {
        "v": CACHE_SCHEMA_VERSION,
        "schema": CACHE_SCHEMA_NAME,
        "key": key,
        "kind": kind,
        "circuit": circuit,
        "netlist_hash": netlist_hash,
        "config": config,
        "config_fingerprint": config_fingerprint(config),
        "seed": seed,
        "created_ts": time.time(),
        "elapsed_seconds": elapsed_seconds,
        "solution": solution,
    }


def validate_entry(entry: Any) -> List[str]:
    """Schema-check one cache entry; returns problems (empty = ok)."""
    problems: List[str] = []
    if not isinstance(entry, dict):
        return [f"entry is {type(entry).__name__}, expected object"]

    def check(cond: bool, message: str) -> None:
        if not cond:
            problems.append(message)

    check(entry.get("v") == CACHE_SCHEMA_VERSION,
          f"v={entry.get('v')!r}, expected {CACHE_SCHEMA_VERSION}")
    check(entry.get("schema") == CACHE_SCHEMA_NAME,
          f"schema={entry.get('schema')!r}, expected {CACHE_SCHEMA_NAME}")
    check(entry.get("kind") in REQUEST_VERBS, f"unknown kind {entry.get('kind')!r}")
    for field in ("key", "circuit", "netlist_hash", "config_fingerprint"):
        check(isinstance(entry.get(field), str) and bool(entry.get(field)),
              f"{field} must be a non-empty string")
    check(isinstance(entry.get("seed"), int), "seed must be an int")
    check(isinstance(entry.get("config"), dict), "config must be an object")
    check(isinstance(entry.get("solution"), dict), "solution must be an object")
    check(isinstance(entry.get("elapsed_seconds"), (int, float)),
          "elapsed_seconds must be a number")
    return problems


class SolutionCache:
    """Sharded, LRU-capped, content-addressed entry store."""

    def __init__(
        self,
        root: str = DEFAULT_CACHE_DIR,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ) -> None:
        self.root = root
        self.max_bytes = max_bytes

    # -- paths ----------------------------------------------------------
    def path_for(self, key: str) -> str:
        """``<root>/<2-hex-shard>/<key>.json`` for an entry key."""
        if len(key) < 3:
            raise ValueError(f"cache key {key!r} too short to shard")
        return os.path.join(self.root, key[:2], f"{key}.json")

    # -- reads ----------------------------------------------------------
    def _self_heal(self, key: str, reason: str) -> None:
        """Discard a corrupt entry, announcing it to observability.

        The ``cache.corrupt`` counter/event is what fault drills assert
        on -- a silently healed torn write would otherwise be
        indistinguishable from a plain miss.
        """
        self.delete(key)
        reg = get_registry()
        reg.counter("cache.corrupt").inc()
        reg.emit_event("cache.corrupt", key=key, reason=reason)

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The entry for ``key``, or ``None`` on miss.

        Corruption (unparseable JSON, schema mismatch, key mismatch) is
        a miss: the bad file is deleted so the slot heals on the next
        store, and a ``cache.corrupt`` event/counter records the repair.
        """
        path = self.path_for(key)
        try:
            with open(path, encoding="utf-8") as fh:
                entry = json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError, ValueError) as exc:
            self._self_heal(key, f"unreadable: {type(exc).__name__}")
            return None
        if validate_entry(entry) or entry.get("key") != key:
            self._self_heal(key, "schema mismatch")
            return None
        return entry

    def touch(self, key: str) -> None:
        """Bump an entry's recency (mtime) after a hit."""
        try:
            os.utime(self.path_for(key), None)
        except OSError:
            pass

    # -- writes ---------------------------------------------------------
    def put(self, entry: Dict[str, Any]) -> str:
        """Validate and store one entry atomically; returns its path.

        The entry is written to a per-writer (pid x thread) ``.tmp``
        sibling and renamed into place (``os.replace``), so a concurrent
        writer of the same key cannot produce a torn file -- whichever
        rename lands last wins, and both writers stored equivalent
        content (the solvers are deterministic per key).  The LRU
        eviction pass runs after the insert.

        The entry must already be strict JSON, as :func:`build_entry`
        and :mod:`repro.cache.codec` produce it: it is encoded in one
        ``json.dumps`` call with ``allow_nan=False``, so an ``inf`` or
        ``nan`` raises ``ValueError`` and a set or other non-JSON value
        ``TypeError`` instead of being written as different bytes.
        """
        problems = validate_entry(entry)
        if problems:
            raise ValueError(f"refusing to store malformed cache entry: {problems}")
        text = json.dumps(
            entry, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
        path = self.path_for(entry["key"])
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        # Fault site: an injected error here models a writer dying between
        # the tmp write and the atomic rename -- the stray .tmp stays, the
        # entry never becomes visible.
        maybe_fire("store.partial_write", key=entry["key"])
        os.replace(tmp, path)
        self.evict()
        return path

    def delete(self, key: str) -> bool:
        """Remove an entry; True when a file was actually deleted."""
        try:
            os.remove(self.path_for(key))
            return True
        except OSError:
            return False

    # -- maintenance ----------------------------------------------------
    def entries(self) -> List[Tuple[str, str, int, float]]:
        """Every stored entry as ``(key, path, size_bytes, mtime)``."""
        out: List[Tuple[str, str, int, float]] = []
        if not os.path.isdir(self.root):
            return out
        for shard in sorted(os.listdir(self.root)):
            shard_dir = os.path.join(self.root, shard)
            if len(shard) != 2 or not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if not name.endswith(".json"):
                    continue  # skip tmp files and strays
                path = os.path.join(shard_dir, name)
                try:
                    st = os.stat(path)
                except OSError:
                    continue  # raced with a delete
                out.append((name[:-len(".json")], path, st.st_size, st.st_mtime))
        return out

    def stats(self) -> Dict[str, Any]:
        """Occupancy summary: entry count, bytes, shard count, cap."""
        rows = self.entries()
        return {
            "root": self.root,
            "entries": len(rows),
            "bytes": sum(size for _, _, size, _ in rows),
            "shards": len({key[:2] for key, _, _, _ in rows}),
            "max_bytes": self.max_bytes,
        }

    def evict(self, max_bytes: Optional[int] = None) -> List[str]:
        """Delete least-recently-used entries until the store fits.

        Returns the evicted keys (oldest first).  ``max_bytes=None``
        uses the store's configured cap; pass ``0`` to empty the store.
        """
        cap = self.max_bytes if max_bytes is None else max_bytes
        rows = self.entries()
        total = sum(size for _, _, size, _ in rows)
        if total <= cap:
            return []
        evicted: List[str] = []
        for key, path, size, _ in sorted(rows, key=lambda r: (r[3], r[0])):
            if total <= cap:
                break
            try:
                os.remove(path)
            except OSError:
                continue  # concurrent eviction; treat as already gone
            total -= size
            evicted.append(key)
        return evicted


def nearest_ancestor(
    store: "SolutionCache",
    netlist_hash: str,
    config_fp: Optional[str] = None,
    seed: Optional[int] = None,
    kind: str = "partition",
) -> Optional[Dict[str, Any]]:
    """Best prior entry to warm-start from for a netlist with this hash.

    Exact-key lookup answers "have I solved *this* request"; this
    answers "have I solved this *netlist* before, under any config" --
    what the incremental solver consults to find the pre-ECO solution
    when the caller did not pass an explicit warm-start key.

    Candidates are ranked by how closely their identity matches:
    same (hash, config fingerprint, seed) beats same (hash, config
    fingerprint) beats same hash alone; ties break on recency (mtime).
    The top tier has at most one entry, the one stored under
    ``run_key(netlist_hash, config_fp, seed)``, so that key is read
    first through :meth:`SolutionCache.get` (which deletes a corrupt
    entry there, like any lookup) and the scan of the whole store runs
    only when it holds no such entry.  Returns the winning entry
    document, or ``None`` when no entry of ``kind`` with that netlist
    hash exists.  The scan's reads are as defensive as
    :meth:`SolutionCache.get` -- unreadable entries are skipped, never
    raised (but also not deleted: a scan is not a lookup).
    """
    if config_fp is not None and seed is not None:
        exact = store.get(run_key(netlist_hash, config_fp, seed))
        if exact is not None and (
            exact["kind"], exact["netlist_hash"],
            exact["config_fingerprint"], exact["seed"],
        ) == (kind, netlist_hash, config_fp, seed):
            return exact
    best: Optional[Tuple[Tuple[int, float], Dict[str, Any]]] = None
    for _, path, _, mtime in store.entries():
        try:
            with open(path, encoding="utf-8") as fh:
                entry = json.load(fh)
        except (OSError, json.JSONDecodeError, ValueError):
            continue
        if validate_entry(entry):
            continue
        if entry.get("kind") != kind or entry.get("netlist_hash") != netlist_hash:
            continue
        tier = 0
        if config_fp is not None and entry.get("config_fingerprint") == config_fp:
            tier += 2
            if seed is not None and entry.get("seed") == seed:
                tier += 1
        rank = (tier, mtime)
        if best is None or rank > best[0]:
            best = (rank, entry)
    return best[1] if best is not None else None


# ---------------------------------------------------------------------------
# Process-local enablement (mirrors repro.obs.ledger)
# ---------------------------------------------------------------------------

_ACTIVE: Optional[SolutionCache] = None


def get_cache() -> Optional[SolutionCache]:
    """The explicitly installed process-local store, or ``None``."""
    return _ACTIVE


def set_cache(cache: Optional[SolutionCache]) -> Optional[SolutionCache]:
    """Install ``cache`` process-wide (``None`` removes it again)."""
    global _ACTIVE
    _ACTIVE = cache
    return _ACTIVE


@contextmanager
def use_cache(cache: SolutionCache) -> Iterator[SolutionCache]:
    """Scoped :func:`set_cache`: restores the previous store on exit."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = cache
    try:
        yield cache
    finally:
        _ACTIVE = previous


def resolve_cache(explicit: Optional[str] = None) -> SolutionCache:
    """The store in effect: ``explicit`` path > installed > environment
    > the default ``results/cache`` directory.

    Unlike the ledger (whose absence disables logging), a resolved store
    always exists -- whether it is *consulted* is the ``cache=`` policy
    of the calling verb.
    """
    if explicit:
        return SolutionCache(explicit)
    if _ACTIVE is not None:
        return _ACTIVE
    env = os.environ.get(CACHE_ENV_VAR)
    if env and env.lower() not in ("1", "true"):
        return SolutionCache(env)
    return SolutionCache(DEFAULT_CACHE_DIR)


__all__ = [
    "CACHE_ENV_VAR",
    "CACHE_SCHEMA_NAME",
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_MAX_BYTES",
    "SolutionCache",
    "build_entry",
    "cache_key",
    "get_cache",
    "nearest_ancestor",
    "netlist_fingerprint",  # the hash every cache key is derived from
    "resolve_cache",
    "set_cache",
    "use_cache",
    "validate_entry",
]
