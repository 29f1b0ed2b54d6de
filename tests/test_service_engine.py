"""DistanceService + EpochStore: visibility, epochs, flush semantics."""

import multiprocessing
import time

import pytest

from repro import (
    DistanceService,
    DynamicGraph,
    EdgeUpdate,
    FlushPolicy,
    HighwayCoverIndex,
    IndexStateError,
    OracleConfigError,
)
from repro.service.engine import EpochStore


def path_graph(n: int) -> DynamicGraph:
    return DynamicGraph.from_edges([(i, i + 1) for i in range(n - 1)])


def make_service(graph=None, **kwargs) -> DistanceService:
    source = graph or path_graph(6)
    if isinstance(source, DynamicGraph):  # a prebuilt oracle takes none
        kwargs.setdefault("num_landmarks", 2)
    kwargs.setdefault("policy", FlushPolicy(max_batch=100, max_delay=None))
    return DistanceService(source, **kwargs)


def test_answers_match_index_before_any_update():
    service = make_service()
    assert service.distance(0, 5) == 5
    assert service.distance(2, 4) == 2
    assert service.epoch == 0


def test_update_invisible_until_flush_then_visible():
    service = make_service()
    service.insert_edge(0, 5)
    assert service.pending_updates == 1
    assert service.distance(0, 5) == 5  # epoch 0 still serving
    stats = service.flush()
    assert stats.n_applied == 1
    assert service.epoch == 1
    assert service.distance(0, 5) == 1
    assert service.pending_updates == 0


def test_snapshot_is_immune_to_later_flushes():
    service = make_service()
    old = service.current_snapshot()
    service.insert_edge(0, 5)
    service.flush()
    assert service.distance(0, 5) == 1
    assert old.distance(0, 5) == 5  # the old epoch's answer, forever
    assert old.epoch == 0


def test_foreground_size_trigger_autoflushes():
    service = make_service(policy=FlushPolicy(max_batch=2, max_delay=None))
    service.insert_edge(0, 2)
    assert service.epoch == 0
    service.insert_edge(0, 4)
    assert service.epoch == 1  # second submit tripped the SIZE trigger
    assert service.distance(0, 4) == 1


def test_flush_on_empty_buffer_returns_none():
    service = make_service()
    assert service.flush() is None
    assert service.epoch == 0


def test_fully_invalid_batch_publishes_no_epoch():
    service = make_service()
    service.submit(EdgeUpdate.insert(0, 1))  # edge already exists
    stats = service.flush()
    assert stats.n_applied == 0
    assert service.epoch == 0
    assert service.metrics.batches_flushed == 1
    assert service.metrics.epochs_published == 0


def test_flush_stats_expose_affected_vertices():
    service = make_service()
    service.insert_edge(0, 5)
    stats = service.flush()
    assert {0, 5} <= stats.affected_vertices


def test_cache_hits_and_epoch_invalidation():
    service = make_service(cache_capacity=16)
    assert service.distance(1, 4) == 3
    assert service.distance(1, 4) == 3
    assert service.metrics.cache_hits == 1
    service.insert_edge(1, 4)
    service.flush()
    assert service.distance(1, 4) == 1  # a stale hit would return 3
    assert service.metrics.cache_misses >= 2


def test_close_drains_pending_updates():
    service = make_service()
    service.insert_edge(0, 5)
    service.close()
    assert service.epoch == 1
    assert service.distance(0, 5) == 1
    assert service.metrics.flush_triggers.get("close") == 1


def test_submit_after_close_raises():
    service = make_service()
    service.close()
    with pytest.raises(IndexStateError):
        service.insert_edge(0, 3)


def test_close_is_idempotent_and_context_manager_closes():
    with make_service() as service:
        service.insert_edge(0, 5)
    assert service.epoch == 1
    service.close()  # second close is a no-op


def test_service_over_prebuilt_index():
    graph = path_graph(5)
    index = HighwayCoverIndex(graph, num_landmarks=2)
    service = make_service(index)
    assert service.distance(0, 4) == 4


def test_close_shuts_down_a_sharded_writer_it_built():
    """The service closes the writer it built from a graph, so an
    hcl-sharded writer's worker processes do not outlive close()."""
    before = set(multiprocessing.active_children())
    service = make_service(
        oracle="hcl-sharded", oracle_config={"num_shards": 2}
    )
    pool = service._writer.pool
    service.insert_edge(0, 5)
    service.close()
    assert pool.batches_run == 1  # the closing flush ran on the workers
    assert service.distance(0, 5) == 1
    assert set(multiprocessing.active_children()) <= before


@pytest.mark.parametrize(
    "rejected",
    [
        {"variant": "bhl-typo"},
        {"max_vertex_growth": -1},
        {"cache_capacity": -1},
    ],
    ids=["variant", "max_vertex_growth", "cache_capacity"],
)
def test_rejected_argument_leaves_no_sharded_writer_running(rejected):
    from repro import ReproError

    before = set(multiprocessing.active_children())
    with pytest.raises(ReproError):
        make_service(
            oracle="hcl-sharded", oracle_config={"num_shards": 2}, **rejected
        )
    assert set(multiprocessing.active_children()) <= before


def test_prebuilt_writer_stays_open_after_close():
    index = HighwayCoverIndex(path_graph(5), num_landmarks=2)
    make_service(index).close()
    index.batch_update([EdgeUpdate.insert(0, 4)])  # still the caller's
    assert index.distance(0, 4) == 1


def test_service_rejects_other_sources():
    with pytest.raises(IndexStateError):
        DistanceService([(0, 1)])


@pytest.mark.parametrize(
    "option",
    [
        {"oracle": "hcl"},
        {"oracle": "hcl-sharded"},
        {"oracle_config": {"num_shards": 2}},
        {"oracle_config": {}},
        {"num_landmarks": 20},
        {"landmarks": (1, 2, 3)},
    ],
)
def test_prebuilt_writer_rejects_oracle_options(option):
    """A prebuilt oracle is configured already: an oracle option passed
    with it would be ignored, so it raises, even when it names the
    default a graph source gets."""
    index = HighwayCoverIndex(path_graph(10), num_landmarks=2)
    with pytest.raises(OracleConfigError, match=next(iter(option))):
        DistanceService(index, **option)
    with DistanceService(index) as service:  # no option: served as built
        assert service.current_snapshot().index.landmarks == index.landmarks
        assert service.distance(0, 9) == 9


def test_background_writer_flushes_on_age_trigger():
    service = make_service(
        policy=FlushPolicy(max_batch=1000, max_delay=0.02),
        background=True,
    )
    try:
        service.insert_edge(0, 5)
        deadline = time.monotonic() + 5.0
        while service.epoch == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert service.epoch == 1
        assert service.distance(0, 5) == 1
        assert service.metrics.flush_triggers.get("age") == 1
    finally:
        service.close()


def test_background_writer_flushes_on_size_trigger():
    service = make_service(
        policy=FlushPolicy(max_batch=2, max_delay=None),
        background=True,
    )
    try:
        service.insert_edge(0, 3)
        service.insert_edge(2, 5)
        deadline = time.monotonic() + 5.0
        while service.epoch == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert service.epoch == 1
        assert service.distance(0, 3) == 1
    finally:
        service.close()


def test_coalesced_flap_applies_nothing():
    service = make_service()
    service.insert_edge(0, 5)
    service.delete_edge(0, 5)  # coalesces to a delete of an absent edge
    stats = service.flush()
    assert stats is not None
    assert stats.n_applied == 0
    assert service.distance(0, 5) == 5
    assert service.metrics.updates_coalesced == 1


def test_epoch_store_publish_is_monotonic():
    index = HighwayCoverIndex(path_graph(4), num_landmarks=1)
    store = EpochStore(index.snapshot())
    assert store.epoch == 0
    first = store.publish(index.snapshot())
    second = store.publish(index.snapshot())
    assert (first.epoch, second.epoch) == (1, 2)
    assert store.current() is second
    assert second.published_at >= first.published_at


def test_index_snapshot_shares_no_mutable_state():
    graph = path_graph(5)
    index = HighwayCoverIndex(graph, num_landmarks=2)
    frozen = index.snapshot()
    index.batch_update([EdgeUpdate.insert(0, 4)])
    assert index.distance(0, 4) == 1
    assert frozen.distance(0, 4) == 4
    assert frozen.graph.num_edges == 4
    assert frozen.check_minimality() == []


@pytest.mark.parametrize("oracle", ["hcl", "hcl-directed"])
def test_published_epoch_answers_without_a_csr_freeze(oracle, monkeypatch):
    """The writer's ``snapshot()`` ships its CSR read views prebuilt, so
    readers of a freshly published epoch never freeze the graph."""
    from repro import DynamicDiGraph
    from repro.graph.csr import CSRGraph

    edges = [(i, i + 1) for i in range(9)]
    graph_cls = DynamicDiGraph if oracle == "hcl-directed" else DynamicGraph
    service = make_service(graph_cls.from_edges(edges), oracle=oracle)
    service.insert_edge(0, 9)
    service.flush()
    assert service.epoch == 1

    freezes = []

    def counting(name):
        original = getattr(CSRGraph, name)

        def freeze(cls, graph):
            freezes.append(name)
            return original(graph)

        return classmethod(freeze)

    for name in ("from_graph", "from_digraph"):
        monkeypatch.setattr(CSRGraph, name, counting(name))
    for s in range(10):
        for t in range(10):
            service.distance(s, t)
    assert service.distance(0, 9) == 1
    assert freezes == []


def test_cache_invalidates_before_epoch_publish(monkeypatch):
    """A reader holding the freshly published snapshot must never get a
    hit cached under the previous epoch: invalidation happens before the
    pointer flip, and old-epoch puts are fenced by the epoch tag."""
    service = make_service(cache_capacity=16)
    service.distance(1, 4)  # cached under epoch 0

    observed = []
    original_publish = service._epochs.publish

    def spying_publish(index):
        # At the moment of the flip the cache must already be empty.
        observed.append(len(service.cache))
        return original_publish(index)

    monkeypatch.setattr(service._epochs, "publish", spying_publish)
    service.insert_edge(1, 4)
    service.flush()
    assert observed == [0]
    assert service.distance(1, 4) == 1


def test_submit_rejects_negative_endpoints_at_the_boundary():
    from repro import BatchError

    service = make_service()
    with pytest.raises(BatchError):
        service.insert_edge(-1, 3)
    # The rejection protects the batch: later valid traffic still works.
    service.insert_edge(0, 5)
    service.flush()
    assert service.distance(0, 5) == 1


def test_typoed_variant_fails_at_construction():
    from repro import BatchError

    with pytest.raises(BatchError):
        make_service(variant="bhl-typo")


def test_background_flush_failure_surfaces_on_submit_and_close():
    """If a background flush ever fails, the service must turn loud:
    later submits and close() raise instead of buffering forever."""
    service = make_service(
        policy=FlushPolicy(max_batch=1, max_delay=None), background=True
    )
    boom = RuntimeError("forced repair failure")

    def failing_update(*args, **kwargs):
        raise boom

    service._writer.batch_update = failing_update
    service.submit(EdgeUpdate.insert(0, 5))
    deadline = time.monotonic() + 5.0
    while service._writer_error is None and time.monotonic() < deadline:
        time.sleep(0.005)
    assert service._writer_error is boom
    with pytest.raises(IndexStateError):
        service.submit(EdgeUpdate.insert(0, 4))
    with pytest.raises(IndexStateError):
        service.close()
    # Reads keep serving the last published epoch.
    assert service.distance(0, 5) == 5


def test_serve_session_survives_malformed_update(capsys, monkeypatch):
    """Through the CLI: a negative endpoint is refused per-command and the
    session (including the shutdown flush) stays healthy."""
    import io

    from repro.cli import main

    script = "+ -1 5\nq 0 1\nquit\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(script))
    assert main(["serve", "--random", "20", "0.2", "--landmarks", "3"]) == 0
    out = capsys.readouterr().out
    assert "error: EdgeUpdate endpoint u=-1 is negative" in out
    assert "d(0, 1) =" in out


def test_submit_bounds_vertex_growth():
    """A dynamic writer accepts in-bound growth; a stray huge id (beyond
    max_vertex_growth) is still rejected at the accept boundary."""
    from repro import BatchError

    service = make_service()  # 6 vertices, hcl writer (dynamic)
    service.insert_edge(0, 6)  # growth: accepted
    with pytest.raises(BatchError):
        service.insert_edge(0, 200_000)  # beyond the default bound
    assert service.pending_updates == 1
    service.flush()
    assert service.distance(0, 6) == 1
    assert service.current_snapshot().index.graph.num_vertices == 7


def test_submit_growth_bound_is_configurable():
    from repro import BatchError

    service = make_service(max_vertex_growth=2)
    service.insert_edge(0, 7)  # 6 + 2 - 1: the last admissible id
    with pytest.raises(BatchError):
        service.insert_edge(0, 8)
    unbounded = make_service(max_vertex_growth=None)
    unbounded.insert_edge(0, 5_000)
    unbounded.flush()
    assert unbounded.distance(0, 5_000) == 1


def test_static_writer_rejects_growth_with_typed_error():
    """Rebuild-per-flush writers cannot grow: CapabilityError, and the
    rejection protects the buffer for later valid traffic."""
    from repro.errors import CapabilityError

    service = make_service(oracle="pll")
    with pytest.raises(CapabilityError):
        service.insert_edge(0, 6)
    assert service.pending_updates == 0
    service.insert_edge(0, 5)  # in-range traffic still accepted
    service.flush()
    assert service.distance(0, 5) == 1


@pytest.mark.parametrize("cache_mode", ["epoch"])
def test_growth_through_service_is_queryable(cache_mode):
    """Regression: submit growth update -> flush -> query the new vertex.

    Before the capability-gated accept boundary, every vertex-growing
    update was rejected at submit even though all dynamic oracles have
    supported batch-driven growth since the EdgeUpdate redesign."""
    service = make_service(cache_mode=cache_mode)
    service.distance(0, 5)  # warm the cache under the old vertex set
    service.submit(EdgeUpdate.insert(5, 6))
    service.submit_many(
        [EdgeUpdate.insert(6, 7), EdgeUpdate.insert(7, 8)]
    )
    service.flush()
    assert service.distance(0, 8) == 8
    assert service.distance(8, 8) == 0
    assert service.distance(0, 5) == 5


def test_growth_through_service_processes_backend():
    """Growth flushes correctly when repairs fan out to worker shards:
    the snapshot ships the grown arrays and the merged columns cover the
    new vertex."""
    with make_service(
        oracle="hcl-sharded", oracle_config={"num_shards": 2}
    ) as service:
        service.submit(EdgeUpdate.insert(5, 6))
        service.submit(EdgeUpdate.insert(6, 7))
        service.flush()
        assert service.distance(0, 7) == 7
        assert service.distance(6, 7) == 1


def test_submit_many_is_all_or_nothing():
    """One malformed update rejects the whole submit_many call before
    anything reaches the buffer."""
    from repro import BatchError

    service = make_service()
    with pytest.raises(BatchError):
        service.submit_many(
            [
                EdgeUpdate.insert(0, 5),
                EdgeUpdate.insert(0, 200_000),  # beyond the growth bound
            ]
        )
    assert service.pending_updates == 0
    service.submit_many([EdgeUpdate.insert(0, 5), EdgeUpdate.insert(1, 3)])
    assert service.pending_updates == 2
    service.flush()
    assert service.distance(0, 5) == 1


def test_foreground_flush_failure_poisons_the_service():
    service = make_service()
    boom = RuntimeError("forced repair failure")

    def failing_update(*args, **kwargs):
        raise boom

    service._writer.batch_update = failing_update
    service.insert_edge(0, 5)
    with pytest.raises(RuntimeError):
        service.flush()
    # Nothing was published from the inconsistent writer state...
    assert service.epoch == 0
    assert service.distance(0, 5) == 5
    # ...and the service refuses further writes instead of going wrong.
    with pytest.raises(IndexStateError):
        service.insert_edge(0, 4)


def test_publish_stage_failure_also_poisons_the_service():
    """Poisoning must cover the whole flush body, not just batch_update:
    a failure while snapshotting/publishing parks the error too."""
    service = make_service()
    boom = RuntimeError("forced snapshot failure")

    def failing_snapshot(*args, **kwargs):
        raise boom

    service._writer.snapshot = failing_snapshot
    service.insert_edge(0, 5)
    with pytest.raises(RuntimeError):
        service.flush()
    assert service._writer_error is boom
    with pytest.raises(IndexStateError):
        service.insert_edge(0, 4)
    assert service.epoch == 0  # readers keep the last good epoch


def test_background_writer_survives_lost_notify():
    """Regression: the writer's condition wait is capped, so a notify
    that never arrives (submit racing close, spurious-wakeup bugs) costs
    at most one cap interval of latency instead of hanging the flush
    loop forever."""
    service = make_service(
        policy=FlushPolicy(max_batch=1, max_delay=None),
        background=True,
    )
    try:
        # Shadow notify with a no-op: the update is buffered and due,
        # but the writer thread is never woken explicitly.
        service._wakeup.notify = lambda n=1: None
        service.insert_edge(0, 5)
        deadline = time.monotonic() + 5.0
        while service.epoch == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert service.epoch == 1  # the capped wait re-checked due()
        assert service.distance(0, 5) == 1
    finally:
        del service._wakeup.notify  # close() uses notify_all anyway
        service.close()
