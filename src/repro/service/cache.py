"""Query-result LRU cache with per-epoch invalidation.

Distance queries on social-network-shaped graphs are heavily skewed, so a
small LRU in front of the labelling absorbs a large fraction of traffic.
The interesting part is invalidation when an epoch flips, and the rule is
exact: any epoch that applied at least one update clears the cache, so
every hit is provably an answer the current snapshot would give.  Evicting
only the entries that touch the batch's affected vertices would not be: a
batch can change ``d(s, t)`` without touching ``s`` or ``t``.

A clear is O(1): it bumps a *generation* that every entry is tagged
with, and ``get`` misses on older entries without touching them.  Every
current entry was put or touched after the bump, so LRU eviction reaches
old entries first, and hits and misses are exactly those of a clear.

Keys are canonicalised ``(min(s,t), max(s,t))`` pairs when the fronted
oracle's distances are symmetric (the undirected default).  A directed
writer constructs the cache with ``symmetric=False`` and keys stay ordered
``(s, t)`` — canonicalising there would alias ``d(s, t)`` with ``d(t, s)``
and serve wrong answers.

Writes are *epoch-tagged* to close a writer/reader race: a reader that
computed its answer against epoch N might otherwise install it just after
the writer published epoch N+1 and invalidated, resurrecting a stale
value.  ``put`` therefore carries the epoch the answer was computed under
and is dropped (under the cache lock, where it serialises with
``on_epoch``) unless that epoch is still current.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Iterable

from repro.errors import WorkloadError
from repro.obs.log import get_logger

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry

_log = get_logger("repro.service.cache")


class QueryCache:
    """Thread-safe LRU of (s, t) -> distance with epoch invalidation."""

    def __init__(self, capacity: int = 4096, symmetric: bool = True) -> None:
        if capacity < 0:
            raise WorkloadError("cache capacity must be >= 0")
        self.capacity = capacity
        self.symmetric = symmetric
        # key -> (distance, generation); _live counts current entries.
        self._entries: OrderedDict[tuple[int, int], tuple[float, int]] = OrderedDict()  # guarded-by: _lock
        self._lock = threading.Lock()
        self._epoch = 0  # guarded-by: _lock
        self._generation = 0  # guarded-by: _lock
        self._live = 0  # guarded-by: _lock
        self.hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock
        self.invalidated = 0  # guarded-by: _lock
        self.clears = 0  # guarded-by: _lock
        self.stale_puts_dropped = 0  # guarded-by: _lock

    def counts(self) -> dict[str, int]:
        """Locked snapshot of the tally counters.

        Metrics callbacks, ``hit_rate``, ``__repr__`` and tests read
        through this so every counter access happens under ``_lock``;
        get/put keep their plain-int bookkeeping on the hot path.
        """
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "invalidated": self.invalidated,
                "clears": self.clears,
                "stale_puts_dropped": self.stale_puts_dropped,
            }

    def bind_metrics(self, registry: "MetricsRegistry") -> None:
        """Export this cache's tallies through a metrics registry.

        Callback-backed families (:meth:`~repro.obs.metrics.Counter.
        set_function`): the get/put hot path keeps its plain-int
        bookkeeping and pays nothing; the registry reads the ints only
        when snapshotted or scraped.
        """
        registry.counter(
            "repro_cache_hits_total", "query cache hits"
        ).set_function(lambda: self.counts()["hits"])
        registry.counter(
            "repro_cache_misses_total", "query cache misses"
        ).set_function(lambda: self.counts()["misses"])
        registry.counter(
            "repro_cache_invalidated_total",
            "entries evicted by epoch invalidation",
        ).set_function(lambda: self.counts()["invalidated"])
        registry.counter(
            "repro_cache_clears_total", "full cache clears"
        ).set_function(lambda: self.counts()["clears"])
        registry.counter(
            "repro_cache_stale_puts_total",
            "puts dropped because their epoch was superseded",
        ).set_function(lambda: self.counts()["stale_puts_dropped"])
        registry.gauge(
            "repro_cache_size", "entries currently cached"
        ).set_function(lambda: len(self))
        registry.gauge(
            "repro_cache_capacity", "configured cache capacity"
        ).set_function(lambda: self.capacity)

    def _key(self, s: int, t: int) -> tuple[int, int]:
        if self.symmetric:
            return (s, t) if s <= t else (t, s)
        return (s, t)

    # -- read/write -----------------------------------------------------

    def get(self, s: int, t: int) -> float | None:
        if self.capacity == 0:
            # Still under the lock: two threads missing concurrently on a
            # disabled cache otherwise lose increments to the data race.
            with self._lock:
                self.misses += 1
            return None
        key = self._key(s, t)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry[1] != self._generation:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[0]

    def put(self, s: int, t: int, distance: float, epoch: int = 0) -> None:
        """Install an answer computed under ``epoch`` (dropped if stale)."""
        if self.capacity == 0:
            return
        key = self._key(s, t)
        with self._lock:
            if epoch != self._epoch:
                self.stale_puts_dropped += 1
                return
            entries, generation = self._entries, self._generation
            old = entries.get(key)
            if old is None or old[1] != generation:
                self._live += 1
            entries[key] = (distance, generation)
            entries.move_to_end(key)
            if len(entries) > self.capacity:
                _, (_, evicted) = entries.popitem(last=False)
                if evicted == generation:
                    self._live -= 1

    # -- invalidation ---------------------------------------------------

    def on_epoch(
        self, affected_vertices: Iterable[int] | None, epoch: int
    ) -> int:
        """Invalidate after publishing ``epoch``; returns entries dropped.

        ``affected_vertices`` is ``UpdateStats.affected_vertices`` of the
        flushed batch: any non-empty set, or None, clears the cache; an
        empty set means the epoch changed nothing, so entries survive but
        in-flight puts from older epochs are still fenced off.
        """
        with self._lock:
            self._epoch = epoch
            if not self._live or (
                affected_vertices is not None and not affected_vertices
            ):
                return 0
            dropped = self._live
            self._generation += 1
            self._live = 0
            self.invalidated += dropped
            self.clears += 1
        _log.debug(
            "cache invalidated", extra={"epoch": epoch, "dropped": dropped}
        )
        return dropped

    # -- introspection --------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return self._live

    @property
    def hit_rate(self) -> float:
        counts = self.counts()
        total = counts["hits"] + counts["misses"]
        return counts["hits"] / total if total else 0.0

    def __repr__(self) -> str:
        counts = self.counts()
        return (
            f"QueryCache(size={len(self)}/"
            f"{self.capacity}, hits={counts['hits']},"
            f" misses={counts['misses']})"
        )
