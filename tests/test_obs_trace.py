"""Span tracing: nesting, JSONL schema, ring bound, phase and shard
synthesis."""

import json
import time

import pytest

from repro import (
    DistanceService,
    DynamicGraph,
    EdgeUpdate,
    FlushPolicy,
    HighwayCoverIndex,
)
from repro.core.labelling import HighwayCoverLabelling
from repro.graph import generators
from repro.obs.trace import NOOP_SPAN, Tracer, get_tracer, span


@pytest.fixture
def tracer():
    t = Tracer(capacity=256)
    t.enable()
    return t


def _by_id(events):
    return {e["args"]["span_id"]: e for e in events}


def test_disabled_tracer_is_zero_overhead_noop():
    t = Tracer()
    assert not t.enabled
    # The disabled path returns one shared singleton: no allocation, no
    # events, and entering yields None so callers can't record into it.
    s1 = t.span("a", k=1)
    s2 = t.span("b")
    assert s1 is NOOP_SPAN and s2 is NOOP_SPAN
    with s1 as inner:
        assert inner is None
    assert t.events() == []
    assert t.record_complete("x", 0, 10) is None


def test_module_level_span_uses_default_tracer():
    default = get_tracer()
    assert not default.enabled
    assert span("anything") is NOOP_SPAN


def test_nested_spans_carry_parent_ids(tracer):
    with tracer.span("outer", batch=3) as outer:
        with tracer.span("inner") as inner:
            assert inner.parent_id == outer.span_id
        with tracer.span("inner2"):
            pass
    events = tracer.events()
    assert [e["name"] for e in events] == ["inner", "inner2", "outer"]
    by_name = {e["name"]: e for e in events}
    outer_id = by_name["outer"]["args"]["span_id"]
    assert by_name["outer"]["args"]["parent_id"] is None
    assert by_name["inner"]["args"]["parent_id"] == outer_id
    assert by_name["inner2"]["args"]["parent_id"] == outer_id
    assert by_name["outer"]["args"]["batch"] == 3


def test_event_schema_is_chrome_complete_events(tracer):
    with tracer.span("phase", shards=2):
        pass
    (event,) = tracer.events()
    assert event["ph"] == "X"
    assert event["cat"] == "repro"
    assert isinstance(event["ts"], int) and isinstance(event["dur"], int)
    assert event["dur"] >= 0
    assert isinstance(event["pid"], int)
    assert isinstance(event["tid"], str)
    assert event["args"]["shards"] == 2


def test_span_error_annotation_and_stack_unwind(tracer):
    with pytest.raises(RuntimeError):
        with tracer.span("outer"):
            with tracer.span("boom"):
                raise RuntimeError("nope")
    events = {e["name"]: e for e in tracer.events()}
    assert events["boom"]["args"]["error"] == "RuntimeError"
    assert events["outer"]["args"]["error"] == "RuntimeError"
    assert tracer.current_span_id() is None  # stack fully unwound


def test_span_set_attaches_fields(tracer):
    with tracer.span("flush") as s:
        s.set(applied=9)
    (event,) = tracer.events()
    assert event["args"]["applied"] == 9


def test_spans_count_their_own_bookkeeping(tracer, monkeypatch):
    """On an injected clock that advances only inside the tracer's
    bookkeeping (1 us per span-stack read, 10 us per id), an empty span
    lasts its own bookkeeping, and a parent's self time is only its own:
    none of its child's bookkeeping lands in it."""
    clock = [0]
    stack, next_id = tracer._stack, tracer._next_id

    def costly(step, call):
        def wrapped():
            clock[0] += step
            return call()

        return wrapped

    monkeypatch.setattr(tracer, "_now_us", lambda: clock[0])
    monkeypatch.setattr(tracer, "_stack", costly(1, stack))
    monkeypatch.setattr(tracer, "_next_id", costly(10, next_id))
    with tracer.span("empty"):
        pass
    with tracer.span("parent"):
        with tracer.span("child"):
            clock[0] += 100
    events = {e["name"]: e for e in tracer.events()}
    own = 1 + 10 + 1  # stack and id on entry, stack on exit
    assert events["empty"]["dur"] == own
    assert events["child"]["dur"] == 100 + own
    assert events["parent"]["dur"] - events["child"]["dur"] == own
    assert events["child"]["ts"] == events["parent"]["ts"] + 1 + 10


def test_record_complete_synthesizes_on_named_track(tracer):
    parent = tracer.record_complete("shard", 100, 50, tid="shard-3")
    child = tracer.record_complete(
        "search", 100, 20, parent_id=parent, tid="shard-3"
    )
    assert isinstance(parent, int) and child != parent
    events = _by_id(tracer.events())
    assert events[child]["args"]["parent_id"] == parent
    assert events[child]["tid"] == "shard-3"
    assert events[parent]["ts"] == 100 and events[parent]["dur"] == 50


def test_ring_is_bounded_and_counts_drops():
    t = Tracer(capacity=4).enable()
    for i in range(10):
        with t.span(f"s{i}"):
            pass
    events = t.events()
    assert len(events) == 4
    assert [e["name"] for e in events] == ["s6", "s7", "s8", "s9"]
    assert t.dropped == 6
    t.clear()
    assert t.events() == [] and t.dropped == 0


def test_export_jsonl_one_object_per_line(tracer, tmp_path):
    with tracer.span("a"):
        with tracer.span("b"):
            pass
    path = tmp_path / "trace.jsonl"
    assert tracer.export_jsonl(path) == 2
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    events = [json.loads(line) for line in lines]
    assert {e["name"] for e in events} == {"a", "b"}


def test_processes_flush_nests_per_shard_spans(tmp_path):
    """A processes-backend flush must produce the acceptance-criteria
    shape: flush -> ... -> pool_update with per-shard tracks whose shard
    spans nest search/repair children (synthesized from ShardTiming)."""
    tracer = get_tracer()
    tracer.enable()
    tracer.clear()
    try:
        graph = DynamicGraph.from_edges([(i, i + 1) for i in range(30)])
        service = DistanceService(
            graph,
            num_landmarks=4,
            policy=FlushPolicy(max_batch=100, max_delay=None),
            oracle="hcl-sharded",
            oracle_config={"num_shards": 2},
        )
        with service:
            service.insert_edge(0, 29)
            service.insert_edge(5, 25)
            service.flush()
        events = tracer.events()
    finally:
        tracer.disable()
        tracer.clear()

    by_id = _by_id(events)

    def parent_name(event):
        pid = event["args"]["parent_id"]
        return by_id[pid]["name"] if pid in by_id else None

    names = [e["name"] for e in events]
    for expected in ("flush", "batch_update", "pool_update", "shard"):
        assert expected in names, f"missing span {expected!r} in {names}"

    shards = [e for e in events if e["name"] == "shard"]
    assert len(shards) == 2
    for shard in shards:
        assert shard["tid"].startswith("shard-")
        assert parent_name(shard) == "pool_update"
        children = [
            e
            for e in events
            if e["args"]["parent_id"] == shard["args"]["span_id"]
        ]
        assert {c["name"] for c in children} == {"search", "repair"}
        for child in children:
            assert child["tid"] == shard["tid"]
    pool = next(e for e in events if e["name"] == "pool_update")
    assert parent_name(pool) == "process_landmarks"
    flush = next(e for e in events if e["name"] == "flush")
    assert flush["args"]["parent_id"] is None


@pytest.mark.parametrize(
    "directed", [False, True], ids=["undirected", "directed"]
)
def test_in_process_phase_span_children_cover_its_wall(monkeypatch, directed):
    """A sequential multi-update batch freezes G' once and gives each pass
    (one undirected, forward then backward directed) a process_landmarks
    span whose outside_kernels, search and repair children, in that
    order, account for its wall; a slow read of the old landmark lengths
    lands in outside_kernels; the sub-batch is counted once."""
    from repro.core.directed import DirectedHighwayCoverIndex
    from repro.obs.metrics import get_registry

    read = HighwayCoverLabelling.landmark_lengths

    def slow_read(self, landmark_idx):
        time.sleep(0.02)
        return read(self, landmark_idx)

    monkeypatch.setattr(HighwayCoverLabelling, "landmark_lengths", slow_read)
    grid = generators.grid(6, 6)
    if directed:
        index = DirectedHighwayCoverIndex(
            generators.to_directed(grid, reciprocal_p=1.0), num_landmarks=4
        )
    else:
        index = HighwayCoverIndex(grid, num_landmarks=4)
    applied = 'repro_batches_applied_total{backend="sequential"}'
    applied_before = get_registry().snapshot().get(applied, 0.0)
    tracer = get_tracer()
    tracer.enable()
    tracer.clear()
    try:
        index.batch_update(
            [EdgeUpdate.insert(0, 35), EdgeUpdate.delete(0, 1)]
        )
        events = tracer.events()
    finally:
        tracer.disable()
        tracer.clear()

    assert get_registry().snapshot()[applied] == applied_before + 1
    assert [e["name"] for e in events].count("freeze_csr") == 1
    phases = [e for e in events if e["name"] == "process_landmarks"]
    assert len(phases) == (2 if directed else 1)
    for phase in phases:
        children = sorted(
            (
                e
                for e in events
                if e["args"]["parent_id"] == phase["args"]["span_id"]
            ),
            key=lambda e: e["ts"],
        )
        assert [c["name"] for c in children] == [
            "outside_kernels",
            "search",
            "repair",
        ]
        assert children[0]["dur"] >= 4 * 20_000
        assert children[1]["dur"] < 20_000  # the slow read is not search
        assert sum(c["dur"] for c in children) >= 0.95 * phase["dur"]


def test_weighted_batch_emits_one_phase_span_and_the_batch_counters():
    """A weighted batch is traced and counted like an unweighted one: one
    process_landmarks span with outside_kernels, search and repair
    children, and one more sequential applied batch."""
    from repro.core.weighted import WeightedHighwayCoverIndex
    from repro.graph.weighted_graph import WeightUpdate
    from repro.obs.metrics import get_registry

    index = WeightedHighwayCoverIndex(
        generators.with_random_weights(generators.grid(6, 6), seed=3),
        num_landmarks=4,
    )
    registry = get_registry()
    applied = 'repro_batches_applied_total{backend="sequential"}'
    affected = 'repro_batch_affected_total{backend="sequential"}'
    before = registry.snapshot()
    tracer = get_tracer()
    tracer.enable()
    tracer.clear()
    try:
        stats = index.batch_update(
            [WeightUpdate(0, 35, 2), WeightUpdate(0, 1, 9)]
        )
        events = tracer.events()
    finally:
        tracer.disable()
        tracer.clear()

    after = registry.snapshot()
    assert after[applied] == before.get(applied, 0.0) + 1
    assert after[affected] == before.get(affected, 0.0) + stats.total_affected
    phases = [e for e in events if e["name"] == "process_landmarks"]
    assert len(phases) == 1
    (phase,) = phases
    assert phase["args"]["backend"] == "sequential"
    assert phase["args"]["landmarks"] == 4
    children = sorted(
        (
            e
            for e in events
            if e["args"]["parent_id"] == phase["args"]["span_id"]
        ),
        key=lambda e: e["ts"],
    )
    assert [c["name"] for c in children] == [
        "outside_kernels",
        "search",
        "repair",
    ]
    assert index.check_minimality() == []


@pytest.mark.parametrize(
    "directed", [False, True], ids=["undirected", "directed"]
)
def test_flush_reencodes_only_the_rows_its_batch_wrote(directed):
    """One traced multi-update flush through the serving engine freezes
    exactly once: a single freeze_csr span under the batch update, whose
    row count is the batch's distinct endpoints (on a digraph, one out-row
    per tail plus one in-row per head), and publishing the epoch reuses
    that view instead of freezing again."""
    from repro.core.directed import DirectedHighwayCoverIndex

    grid = generators.grid(6, 6)
    if directed:
        writer = DirectedHighwayCoverIndex(
            generators.to_directed(grid, reciprocal_p=1.0), num_landmarks=4
        )
    else:
        writer = HighwayCoverIndex(grid, num_landmarks=4)
    updates = [
        EdgeUpdate.delete(0, 1),
        EdgeUpdate.insert(0, 35),
        EdgeUpdate.insert(14, 35),
    ]
    if directed:  # one out-row per distinct tail, one in-row per head
        expected_rows = len({u.u for u in updates}) + len(
            {u.v for u in updates}
        )
    else:
        expected_rows = len({w for u in updates for w in (u.u, u.v)})
    service = DistanceService(
        writer, policy=FlushPolicy(max_batch=100, max_delay=None)
    )
    tracer = get_tracer()
    with service:
        service.submit_many(updates)
        tracer.enable()
        tracer.clear()
        try:
            service.flush()
            events = tracer.events()
        finally:
            tracer.disable()
            tracer.clear()
        assert service.distance(0, 35) == 1

    freezes = [e for e in events if e["name"] == "freeze_csr"]
    assert len(freezes) == 1, [e["name"] for e in events]
    assert freezes[0]["args"]["rows"] == expected_rows
    by_id = _by_id(events)
    assert by_id[freezes[0]["args"]["parent_id"]]["name"] == "batch_update"


@pytest.mark.parametrize("name", ["hcl", "hcl-directed", "hcl-weighted"])
def test_labelling_buffer_span_per_pass_shows_the_recycled_path(name):
    """Each labelling pass makes its repair target inside one
    labelling_buffers span, before its process_landmarks span: the first
    flush after construction copies (recycled=False, no cells), the
    second recycles the labelling before last and counts the cells it
    copied over.  The directed index has two passes, so two spans."""
    from repro.api import open_oracle
    from repro.graph.weighted_graph import WeightUpdate
    from repro.obs.metrics import get_registry

    grid = generators.grid(6, 6)
    if name == "hcl-directed":
        graph = generators.to_directed(grid, reciprocal_p=1.0)
    elif name == "hcl-weighted":
        graph = generators.with_random_weights(grid, seed=3)
    else:
        graph = grid
    oracle = open_oracle(name, graph, num_landmarks=4)
    if name == "hcl-weighted":
        batches = [
            [WeightUpdate(0, 35, 2), WeightUpdate(0, 1, 9)],
            [WeightUpdate(14, 35, 1), WeightUpdate(0, 1, 1)],
        ]
    else:
        batches = [
            [EdgeUpdate.insert(0, 35), EdgeUpdate.delete(0, 1)],
            [EdgeUpdate.insert(14, 35), EdgeUpdate.insert(0, 1)],
        ]
    passes = 2 if name == "hcl-directed" else 1
    counter = "repro_labelling_buffers_total"
    tracer = get_tracer()
    for flush_no, updates in enumerate(batches):
        before = get_registry().snapshot()
        tracer.enable()
        tracer.clear()
        try:
            oracle.batch_update(updates)
            events = tracer.events()
        finally:
            tracer.disable()
            tracer.clear()
        after = get_registry().snapshot()
        recycled = flush_no > 0
        path = "recycled" if recycled else "copied"
        key = f'{counter}{{path="{path}"}}'
        assert after[key] == before.get(key, 0.0) + passes, (name, flush_no)
        spans = [e for e in events if e["name"] == "labelling_buffers"]
        phases = [e for e in events if e["name"] == "process_landmarks"]
        assert len(spans) == len(phases) == passes, [e["name"] for e in events]
        for span_event, phase in zip(spans, phases):
            assert span_event["args"]["recycled"] is recycled
            cells = span_event["args"]["cells"]
            assert cells > 0 if recycled else cells == 0
            assert span_event["ts"] + span_event["dur"] <= phase["ts"]
    assert oracle.check_minimality() == []


def _traced_flushes(name: str, flushes: int):
    """Run ``flushes`` mixed 3+3 flushes through a service on ``name``
    (the previous epoch is released at each publish), tracing each one;
    returns one event list per flush."""
    import random

    from tests.conftest import random_mixed_updates

    graph = generators.barabasi_albert(300, 3, seed=9)
    if name == "hcl-directed":
        graph = generators.to_directed(graph, reciprocal_p=0.5, seed=9)
    service = DistanceService(
        graph,
        oracle=name,
        num_landmarks=6,
        policy=FlushPolicy(max_batch=1000, max_delay=None),
    )
    rng = random.Random(17)
    tracer = get_tracer()
    per_flush = []
    with service:
        for _ in range(flushes):
            current = service.current_snapshot().index.graph
            service.submit_many(random_mixed_updates(current, rng, 3, 3))
            del current
            tracer.enable()
            tracer.clear()
            try:
                service.flush()
                per_flush.append(tracer.events())
            finally:
                tracer.disable()
                tracer.clear()
    return per_flush


@pytest.mark.parametrize("name", ["hcl", "hcl-directed"])
def test_flushes_after_the_second_freeze_into_recycled_row_buffers(name):
    """Each flush freezes the graph once, in a freeze_csr span that says
    how its row buffers were made: the first flush after construction
    relays out (no back pair yet), and every flush after the second
    writes into the row buffers of the view before last, which the
    released epoch no longer pins."""
    from tests.conftest import csr_paths

    directions = 2 if name == "hcl-directed" else 1
    before = csr_paths()
    per_flush = _traced_flushes(name, 6)
    for flush_no, events in enumerate(per_flush):
        (freeze,) = [e for e in events if e["name"] == "freeze_csr"]
        if flush_no == 0:
            assert freeze["args"]["recycled"] is False
            assert freeze["args"]["replayed"] == 0
        elif flush_no >= 2:
            assert freeze["args"]["recycled"] is True, flush_no
            assert freeze["args"]["replayed"] >= freeze["args"]["rows"] > 0
    recycled = csr_paths()["recycled"] - before["recycled"]
    assert recycled >= directions * (len(per_flush) - 2)


@pytest.mark.parametrize("name", ["hcl", "hcl-directed"])
def test_publish_epoch_spans_the_snapshot_and_the_release(name):
    """publish_epoch has two children, the snapshot the writer builds and
    the release of the previous epoch after the pointer flip, and the
    flush's children cover at least 95% of its wall, over a dozen
    flushes.  (publish_epoch itself now takes tens of microseconds, of
    which the flip and the tracer's own bookkeeping for the two child
    spans, which no span records, take about a third.)"""
    per_flush = _traced_flushes(name, 12)
    flush_walls = flush_children = 0
    for events in per_flush:
        by_parent: dict = {}
        for event in events:
            by_parent.setdefault(event["args"]["parent_id"], []).append(event)
        (flush,) = [e for e in events if e["name"] == "flush"]
        (publish,) = [e for e in events if e["name"] == "publish_epoch"]
        flush_walls += flush["dur"]
        flush_children += sum(
            e["dur"] for e in by_parent[flush["args"]["span_id"]]
        )
        children = sorted(
            by_parent[publish["args"]["span_id"]], key=lambda e: e["ts"]
        )
        assert [c["name"] for c in children] == ["snapshot", "release_epoch"]
    assert flush_children >= 0.95 * flush_walls
