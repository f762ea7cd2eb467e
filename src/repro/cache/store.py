"""Cache stores: an in-memory LRU, an on-disk layer, and their facade.

The workloads the paper's experiments generate — NCP sweeps over a
(seed x alpha x eps) grid, interactive exploration re-querying the same
neighbourhoods — repeat (graph, method, params, seeds) combinations
heavily.  :class:`ResultCache` memoises the engine's
:class:`~repro.engine.executor.JobOutcome`s for them:

* :class:`LRUStore` — the hot layer.  An ordered dict keyed by
  :class:`~repro.cache.keys.CacheKey`, bounded by entry count *and* an
  approximate byte budget; least-recently-used entries are evicted first.
  A per-fingerprint index lets version migration visit only the entries
  of one graph.
* :class:`DiskStore` — the optional persistent layer.  One compressed
  ``.npz`` payload per entry under a cache directory (filename = the
  key's digest), so entries survive the process and are shared between
  CLI invocations.  Bounded the same two ways; eviction removes the
  oldest files.  Corrupt or truncated payloads read as misses.
* :class:`ResultCache` — composes the two (memory in front, disk behind,
  hits promoted forward) and owns the :class:`CacheStats` counters.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Union

from .keys import CacheKey
from .serialize import load_outcome, outcome_nbytes, save_outcome

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.executor import JobOutcome

__all__ = ["CacheStats", "LRUStore", "DiskStore", "ResultCache", "resolve_cache"]


@dataclass
class CacheStats:
    """Counters of one cache's lifetime (a snapshot; see ``ResultCache.stats``).

    ``coalesced`` counts jobs served by merging with an identical job
    earlier in the *same* batch — no cache entry existed at lookup time,
    but no second diffusion ran either.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    coalesced: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def describe(self) -> str:
        return (
            f"{self.hits} hits / {self.misses} misses ({self.hit_rate:.0%}), "
            f"{self.coalesced} coalesced, {self.stores} stores, "
            f"{self.evictions} evictions"
        )


class LRUStore:
    """Bounded in-memory store with least-recently-used eviction.

    ``max_bytes`` budgets the *approximate* footprint of the stored
    outcomes (their arrays plus a fixed per-entry overhead).  The most
    recent entry is always retained, even when it alone exceeds the byte
    budget — a cache that cannot hold the query it just answered would
    never hit.
    """

    def __init__(self, max_entries: int = 4096, max_bytes: int = 256 * 1024 * 1024) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.evictions = 0
        self._entries: "OrderedDict[CacheKey, tuple[JobOutcome, int]]" = OrderedDict()
        # fingerprint -> that graph's keys, in the same LRU order
        self._by_graph: "dict[str, OrderedDict[CacheKey, None]]" = {}
        self._nbytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Approximate bytes currently held."""
        return self._nbytes

    def get(self, key: CacheKey) -> "JobOutcome | None":
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        self._by_graph[key.graph].move_to_end(key)
        return entry[0]

    def put(self, key: CacheKey, outcome: "JobOutcome") -> None:
        size = outcome_nbytes(outcome)
        old = self._entries.pop(key, None)
        if old is not None:
            self._nbytes -= old[1]
        self._entries[key] = (outcome, size)
        keys = self._by_graph.setdefault(key.graph, OrderedDict())
        keys[key] = None
        keys.move_to_end(key)
        self._nbytes += size
        while len(self._entries) > self.max_entries or (
            self._nbytes > self.max_bytes and len(self._entries) > 1
        ):
            evicted, (_, evicted_size) = self._entries.popitem(last=False)
            keys = self._by_graph[evicted.graph]
            del keys[evicted]
            if not keys:
                del self._by_graph[evicted.graph]
            self._nbytes -= evicted_size
            self.evictions += 1

    def items(self, graph: str) -> "list[tuple[CacheKey, JobOutcome]]":
        """Snapshot of the entries computed on the graph with fingerprint
        ``graph``, least recently used first (no LRU touch).

        The cross-version migration pass (:func:`repro.cache.evolving.
        advance_version`) re-keys survivors from this; a list copy keeps
        it safe against ``put`` calls re-ordering the store meanwhile.
        """
        keys = self._by_graph.get(graph, ())
        return [(key, self._entries[key][0]) for key in keys]

    def clear(self) -> int:
        removed = len(self._entries)
        self._entries.clear()
        self._by_graph.clear()
        self._nbytes = 0
        return removed


class DiskStore:
    """Persistent store: one ``.npz`` payload per entry under a directory."""

    SUFFIX = ".npz"

    def __init__(
        self,
        directory: str | Path,
        max_entries: int | None = None,
        max_bytes: int | None = None,
        create: bool = True,
    ) -> None:
        self.directory = Path(directory)
        if create:
            self.directory.mkdir(parents=True, exist_ok=True)
        elif not self.directory.is_dir():
            # Inspection paths (``cache stats``/``clear``) must not invent
            # a directory and mask a mistyped --cache-dir.
            raise FileNotFoundError(f"cache directory {self.directory} does not exist")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.evictions = 0

    def _path(self, key: CacheKey) -> Path:
        return self.directory / f"{key.digest()}{self.SUFFIX}"

    def _entry_paths(self) -> list[Path]:
        return sorted(self.directory.glob(f"*{self.SUFFIX}"))

    def __len__(self) -> int:
        return len(self._entry_paths())

    @property
    def nbytes(self) -> int:
        """Total bytes of payload files currently on disk."""
        return sum(path.stat().st_size for path in self._entry_paths())

    def get(self, key: CacheKey) -> "JobOutcome | None":
        path = self._path(key)
        if not path.exists():
            return None
        try:
            return load_outcome(path)
        except Exception:
            # A corrupt payload must read as a miss, never poison a run;
            # drop it so the slot is rewritten with a fresh outcome.
            path.unlink(missing_ok=True)
            return None

    def put(self, key: CacheKey, outcome: "JobOutcome") -> None:
        path = self._path(key)
        temp = path.with_suffix(".tmp")  # atomic publish: write, then rename
        save_outcome(temp, outcome)
        temp.replace(path)
        self._evict(keep=path)

    def _evict(self, keep: Path) -> None:
        if self.max_entries is None and self.max_bytes is None:
            return
        paths = self._entry_paths()
        by_age = sorted(paths, key=lambda p: (p.stat().st_mtime, p.name))
        total = sum(p.stat().st_size for p in by_age)
        count = len(by_age)
        for path in by_age:
            over_entries = self.max_entries is not None and count > self.max_entries
            over_bytes = self.max_bytes is not None and total > self.max_bytes
            if not (over_entries or over_bytes):
                break
            if path == keep:  # never evict the entry just written
                continue
            total -= path.stat().st_size
            count -= 1
            path.unlink(missing_ok=True)
            self.evictions += 1

    def clear(self) -> int:
        removed = 0
        for path in self._entry_paths():
            path.unlink(missing_ok=True)
            removed += 1
        return removed


class ResultCache:
    """Two-layer result cache: in-memory LRU in front, optional disk behind.

    ``get`` consults memory first, then disk; a disk hit is promoted into
    memory so repeated interactive queries pay the deserialisation once.
    ``put`` writes through to both layers.  All hit/miss accounting lives
    here (the layers only count their own evictions); ``stats`` returns a
    consistent snapshot.
    """

    def __init__(
        self,
        memory: LRUStore | None = None,
        disk: DiskStore | None = None,
    ) -> None:
        self.memory = memory if memory is not None else LRUStore()
        self.disk = disk
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._coalesced = 0

    @classmethod
    def with_dir(cls, directory: str | Path, **disk_options: int) -> "ResultCache":
        """A cache persisted under ``directory`` (plus the in-memory layer)."""
        return cls(disk=DiskStore(directory, **disk_options))

    @property
    def stats(self) -> CacheStats:
        evictions = self.memory.evictions + (self.disk.evictions if self.disk else 0)
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            stores=self._stores,
            evictions=evictions,
            coalesced=self._coalesced,
        )

    def __len__(self) -> int:
        return max(len(self.memory), len(self.disk) if self.disk else 0)

    def get(self, key: CacheKey) -> "JobOutcome | None":
        outcome = self.peek(key)
        if outcome is None:
            self._misses += 1
        else:
            self._hits += 1
        return outcome

    def peek(self, key: CacheKey) -> "JobOutcome | None":
        """Lookup without touching the hit/miss counters."""
        outcome = self.memory.get(key)
        if outcome is not None:
            return outcome
        if self.disk is not None:
            outcome = self.disk.get(key)
            if outcome is not None:
                self.memory.put(key, outcome)
                return outcome
        return None

    def put(self, key: CacheKey, outcome: "JobOutcome") -> None:
        self.memory.put(key, outcome)
        if self.disk is not None:
            self.disk.put(key, outcome)
        self._stores += 1

    def count_coalesced(self) -> None:
        """Record one job served by an identical in-flight job (same batch)."""
        self._coalesced += 1

    def memory_items(self, graph: str) -> "list[tuple[CacheKey, JobOutcome]]":
        """The in-memory layer's entries for fingerprint ``graph`` (for
        version migration; see :meth:`LRUStore.items`).

        Disk entries are keyed by one-way digests, so they cannot be
        enumerated back into :class:`~repro.cache.keys.CacheKey`\\ s; the
        migration pass therefore re-keys only the hot layer.  Disk entries
        stay correct regardless — their keys embed the fingerprint of the
        version they were computed on, so they can never serve a different
        version's query — they just aren't carried forward.
        """
        return self.memory.items(graph)

    def clear(self) -> int:
        removed = self.memory.clear()
        if self.disk is not None:
            removed = max(removed, self.disk.clear())
        return removed


CacheSpec = Union["ResultCache", bool, str, Path, None]


def resolve_cache(cache: CacheSpec) -> "ResultCache | None":
    """Normalise the ``cache=`` argument accepted by the high-level APIs.

    ``None``/``False`` — no caching.  ``True`` — a fresh in-memory
    :class:`ResultCache`.  A path — a disk-backed cache under that
    directory.  A ready :class:`ResultCache` is returned as-is.
    """
    if cache is None or cache is False:
        return None
    if cache is True:
        return ResultCache()
    if isinstance(cache, (str, Path)):
        return ResultCache.with_dir(cache)
    if isinstance(cache, ResultCache):
        return cache
    raise ValueError(
        f"unknown cache spec {cache!r}; expected None, True, a directory "
        "path, or a ResultCache"
    )
