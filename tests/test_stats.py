"""UpdateStats accumulation semantics (used by every bench metric)."""

from repro.core.stats import ShardTiming, UpdateStats


def make(affected, search=0.1, repair=0.2, makespan=None):
    stats = UpdateStats(variant="x")
    stats.n_requested = 5
    stats.n_applied = 4
    stats.n_insertions = 3
    stats.n_deletions = 1
    stats.affected_per_landmark = affected
    stats.search_seconds = search
    stats.repair_seconds = repair
    stats.total_seconds = search + repair
    stats.makespan_seconds = makespan
    stats.labels_changed = 7
    return stats


def test_total_affected_sums_landmarks():
    assert make([3, 4, 5]).total_affected == 12
    assert UpdateStats(variant="x").total_affected == 0


def test_merge_accumulates_everything():
    a = make([1, 2, 3])
    b = make([10, 20, 30], search=0.5, repair=0.25, makespan=0.4)
    a.merge(b)
    assert a.affected_per_landmark == [11, 22, 33]
    assert a.n_requested == 10
    assert a.n_applied == 8
    assert a.n_insertions == 6
    assert a.n_deletions == 2
    assert a.search_seconds == 0.6
    assert a.repair_seconds == 0.45
    assert a.labels_changed == 14
    assert a.makespan_seconds == 0.4  # None + value = value


def test_merge_into_empty_adopts_landmark_count():
    empty = UpdateStats(variant="x")
    empty.merge(make([5, 6]))
    assert empty.affected_per_landmark == [5, 6]


def test_makespans_add_across_subbatches():
    a = make([1], makespan=0.3)
    a.merge(make([2], makespan=0.2))
    assert abs(a.makespan_seconds - 0.5) < 1e-12


def test_merge_unions_affected_vertices():
    a = make([1])
    a.affected_vertices = {1, 2}
    b = make([2])
    b.affected_vertices = {2, 9}
    a.merge(b)
    assert a.affected_vertices == {1, 2, 9}


def timing(shard, search=0.1, repair=0.2, wall=0.35, landmarks=2):
    return ShardTiming(
        shard=shard,
        num_landmarks=landmarks,
        search_seconds=search,
        repair_seconds=repair,
        wall_seconds=wall,
    )


def test_merge_concatenates_shard_timings_and_merge_time():
    """Sub-batches keep their per-shard breakdown and sum merge overhead —
    the regression guard for comparing sequential vs. real process runs."""
    a = make([1])
    a.shard_timings = [timing(0), timing(1)]
    a.merge_seconds = 0.01
    b = make([2])
    b.shard_timings = [timing(0, search=0.4, wall=0.9)]
    b.merge_seconds = 0.02
    a.merge(b)
    assert [t.shard for t in a.shard_timings] == [0, 1, 0]
    assert a.shard_timings[2].search_seconds == 0.4
    assert abs(a.merge_seconds - 0.03) < 1e-12
    # The per-shard breakdown remains self-consistent after merging.
    assert max(t.wall_seconds for t in a.shard_timings) == 0.9


def test_shard_timing_is_immutable_record():
    entry = timing(0)
    try:
        entry.search_seconds = 1.0
    except AttributeError:
        pass
    else:  # pragma: no cover - regression trip-wire
        raise AssertionError("ShardTiming must stay frozen")


def test_batch_update_reports_affected_vertices():
    """The index-level stats expose which vertices a batch touched:
    at least the update endpoints, plus every search-affected vertex."""
    from repro import DynamicGraph, EdgeUpdate, HighwayCoverIndex
    from repro.core.batch_search import affected_by_definition

    graph = DynamicGraph.from_edges(
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]
    )
    index = HighwayCoverIndex(graph, landmarks=(0,))
    before = graph.copy()
    stats = index.batch_update([EdgeUpdate.insert(0, 6)])
    assert {0, 6} <= stats.affected_vertices
    truly = affected_by_definition(
        before, graph, 0, index.labelling.is_landmark.tolist()
    )
    assert truly <= stats.affected_vertices


def test_no_op_batch_has_empty_affected_vertices():
    from repro import DynamicGraph, EdgeUpdate, HighwayCoverIndex

    graph = DynamicGraph.from_edges([(0, 1), (1, 2)])
    index = HighwayCoverIndex(graph, landmarks=(0,))
    stats = index.batch_update([EdgeUpdate.insert(0, 1)])  # already present
    assert stats.n_applied == 0
    assert stats.affected_vertices == set()
