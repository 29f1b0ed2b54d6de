"""Query cache: LRU behaviour, epoch fencing, exact invalidation."""

import random
from collections import OrderedDict

import pytest

from repro.errors import WorkloadError
from repro.graph.dynamic_graph import DynamicGraph
from repro.service import DistanceService
from repro.service.cache import QueryCache


def test_construction_validation():
    with pytest.raises(WorkloadError):
        QueryCache(capacity=-1)


def test_service_rejects_the_approximate_cache_mode():
    graph = DynamicGraph.from_edges([(0, 1), (1, 2)])
    with pytest.raises(WorkloadError):
        DistanceService(graph, num_landmarks=1, cache_mode="affected")


def test_basic_hit_miss_and_symmetry():
    cache = QueryCache(capacity=8)
    assert cache.get(1, 2) is None
    cache.put(1, 2, 3.0)
    assert cache.get(1, 2) == 3.0
    assert cache.get(2, 1) == 3.0  # undirected: canonical key
    assert cache.hits == 2
    assert cache.misses == 1
    assert cache.hit_rate == pytest.approx(2 / 3)


def test_lru_eviction_order():
    cache = QueryCache(capacity=2)
    cache.put(0, 1, 1.0)
    cache.put(0, 2, 2.0)
    assert cache.get(0, 1) == 1.0  # touch (0,1): (0,2) becomes LRU
    cache.put(0, 3, 3.0)
    assert cache.get(0, 2) is None
    assert cache.get(0, 1) == 1.0
    assert cache.get(0, 3) == 3.0


def test_zero_capacity_disables_caching():
    cache = QueryCache(capacity=0)
    cache.put(1, 2, 3.0)
    assert cache.get(1, 2) is None
    assert len(cache) == 0


def test_epoch_mode_clears_on_any_change():
    cache = QueryCache(capacity=8)
    cache.put(1, 2, 3.0)
    cache.put(3, 4, 1.0)
    dropped = cache.on_epoch({9}, epoch=1)
    assert dropped == 2
    assert len(cache) == 0
    assert cache.clears == 1


def test_epoch_mode_keeps_entries_when_nothing_changed():
    cache = QueryCache(capacity=8)
    cache.put(1, 2, 3.0)
    assert cache.on_epoch(set(), epoch=1) == 0
    # Entries survive, but the epoch still advanced: stale in-flight puts
    # computed under epoch 0 are fenced off.
    assert cache.get(1, 2) == 3.0
    cache.put(5, 6, 2.0, epoch=0)
    assert cache.get(5, 6) is None
    assert cache.stale_puts_dropped == 1


def test_none_affected_forces_clear_in_any_mode():
    cache = QueryCache(capacity=8)
    cache.put(1, 2, 3.0)
    assert cache.on_epoch(None, epoch=1) == 1
    assert len(cache) == 0


def test_stale_put_is_dropped_after_epoch_bump():
    cache = QueryCache(capacity=8)
    cache.on_epoch({1}, epoch=3)
    cache.put(1, 2, 3.0, epoch=2)  # computed under an older snapshot
    assert cache.get(1, 2) is None
    cache.put(1, 2, 4.0, epoch=3)
    assert cache.get(1, 2) == 4.0


def test_zero_capacity_still_tallies_misses():
    """Regression: the capacity==0 fast path used to bump ``misses``
    outside ``_lock`` — the one unlocked counter write in the class."""
    cache = QueryCache(capacity=0)
    assert cache.get(1, 2) is None
    assert cache.get(3, 4) is None
    counts = cache.counts()
    assert counts["misses"] == 2
    assert counts["hits"] == 0
    assert cache.hit_rate == 0.0


def test_counts_snapshot_matches_counter_attributes():
    cache = QueryCache(capacity=4)
    cache.put(0, 1, 1.0)
    cache.get(0, 1)
    cache.get(5, 6)
    assert cache.counts() == {
        "hits": cache.hits,
        "misses": cache.misses,
        "invalidated": cache.invalidated,
        "clears": cache.clears,
        "stale_puts_dropped": cache.stale_puts_dropped,
    }


class _ClearingCache:
    """Reference: the LRU that empties its dict on every invalidation."""

    def __init__(self, capacity, symmetric):
        self.capacity, self.symmetric = capacity, symmetric
        self.entries = OrderedDict()
        self.epoch = 0
        self.tallies = dict.fromkeys(
            ("hits", "misses", "invalidated", "clears", "stale_puts_dropped"),
            0,
        )

    def _key(self, s, t):
        return (min(s, t), max(s, t)) if self.symmetric else (s, t)

    def get(self, s, t):
        value = self.entries.get(self._key(s, t))
        if value is None:
            self.tallies["misses"] += 1
            return None
        self.entries.move_to_end(self._key(s, t))
        self.tallies["hits"] += 1
        return value

    def put(self, s, t, distance, epoch):
        if self.capacity == 0:
            return
        if epoch != self.epoch:
            self.tallies["stale_puts_dropped"] += 1
            return
        self.entries[self._key(s, t)] = distance
        self.entries.move_to_end(self._key(s, t))
        while len(self.entries) > self.capacity:
            self.entries.popitem(last=False)

    def on_epoch(self, affected, epoch):
        self.epoch = epoch
        if not self.entries or (affected is not None and not affected):
            return 0
        dropped = len(self.entries)
        self.entries.clear()
        self.tallies["invalidated"] += dropped
        self.tallies["clears"] += 1
        return dropped


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("capacity", [0, 1, 2, 8])
def test_generation_invalidation_matches_a_clearing_cache(capacity, symmetric):
    """A random get/put/on_epoch stream answers, counts and sizes exactly
    as a cache that empties itself: old-generation entries are misses
    and are evicted before any current one."""
    rng = random.Random(capacity * 2 + symmetric)
    cache = QueryCache(capacity=capacity, symmetric=symmetric)
    ref = _ClearingCache(capacity, symmetric)
    epoch = 0
    for step in range(4000):
        s, t = rng.randrange(6), rng.randrange(6)
        roll = rng.random()
        if roll < 0.45:
            assert cache.get(s, t) == ref.get(s, t), step
        elif roll < 0.85:
            # Mostly current-epoch puts; some computed under an old epoch.
            put_epoch = epoch if rng.random() < 0.9 else max(0, epoch - 1)
            value = float(rng.randrange(10))
            cache.put(s, t, value, put_epoch)
            ref.put(s, t, value, put_epoch)
        else:
            epoch += 1
            affected = rng.choice([None, set(), {rng.randrange(6)}])
            assert cache.on_epoch(affected, epoch) == ref.on_epoch(
                affected, epoch
            ), step
        assert cache.counts() == ref.tallies, step
        assert len(cache) == len(ref.entries), step
