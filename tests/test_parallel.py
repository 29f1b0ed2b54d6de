"""Landmark-level parallelism: worker processes, per-landmark makespan."""

import random
import time

import pytest

from repro import EdgeUpdate
from repro.api import open_oracle
from repro.core.batchhl import run_batch_update
from repro.core.construction import build_labelling
from repro.core.directed import DirectedHighwayCoverIndex
from repro.core.index import HighwayCoverIndex
from repro.errors import BatchError
from repro.graph import generators
from repro.parallel import partition_landmarks
from tests.conftest import random_mixed_updates


def build_pair(seed):
    graph = generators.barabasi_albert(120, 3, seed=seed)
    return graph


def test_sequential_run_reports_makespan():
    rng = random.Random(7)
    graph = build_pair(3)
    index = HighwayCoverIndex(graph, num_landmarks=6)
    updates = random_mixed_updates(graph, rng, 5, 5)
    stats = index.batch_update(updates)
    assert stats.makespan_seconds is not None
    assert 0 < stats.makespan_seconds <= stats.total_seconds
    # Makespan is at least the largest per-landmark share: with 6
    # landmarks it cannot be below total/6 minus scheduling noise.
    assert stats.makespan_seconds >= (stats.search_seconds + stats.repair_seconds) / 6
    assert index.check_minimality() == []


# ----------------------------------------------------------------------
# processes backend
# ----------------------------------------------------------------------


def test_partition_landmarks_is_balanced_and_complete():
    assert partition_landmarks(7, 3) == [[0, 1, 2], [3, 4], [5, 6]]
    assert partition_landmarks(2, 5) == [[0], [1]]
    assert partition_landmarks(0, 4) == []
    with pytest.raises(BatchError):
        partition_landmarks(5, 0)


def test_process_update_matches_sequential(shard_pool):
    rng = random.Random(9)
    graph = build_pair(5)
    sequential = HighwayCoverIndex(graph.copy(), num_landmarks=6)
    sharded = HighwayCoverIndex(graph.copy(), num_landmarks=6, pool=shard_pool)
    for _ in range(3):
        updates = random_mixed_updates(sequential.graph, rng, 4, 4)
        sequential.batch_update(updates)
        sharded.batch_update(updates)
        assert sequential.labelling.equals(sharded.labelling)
    assert sharded.check_minimality() == []
    # The pool's workers were reused across all three batches.
    assert shard_pool.batches_run >= 3


def test_parallel_construction_matches_sequential(shard_pool):
    graph = build_pair(6)
    reference = build_labelling(graph, (0, 3, 7, 11))
    parallel = build_labelling(graph, (0, 3, 7, 11), pool=shard_pool)
    assert reference.equals(parallel)


def test_parallel_construction_past_one_sweep_word_matches_sequential(
    shard_pool,
):
    """200 landmarks on 3 shards: each shard sweeps 66 or 67 roots, two
    root groups, and the pool's labelling equals the sequential build."""
    from repro.core.landmarks import select_landmarks

    graph = generators.barabasi_albert(300, 2, seed=4)
    landmarks = select_landmarks(graph, 200)
    reference = build_labelling(graph, landmarks)
    assert reference.equals(build_labelling(graph, landmarks, pool=shard_pool))


def test_run_batch_update_runs_on_the_given_pool(shard_pool):
    """A pool handed to the driver runs the pass on its workers, one
    ShardTiming per shard, and repairs what the sequential pass does."""
    rng = random.Random(18)
    graph = build_pair(18)
    sequential = HighwayCoverIndex(graph.copy(), num_landmarks=4)
    labelling = build_labelling(graph, sequential.landmarks)
    updates = random_mixed_updates(graph, rng, 3, 3)
    batches_before = shard_pool.batches_run
    (repaired,), stats = run_batch_update(
        graph, (labelling,), updates, pool=shard_pool
    )
    sequential.batch_update(updates)
    assert shard_pool.batches_run == batches_before + 1
    assert len(stats.shard_timings) == len(
        partition_landmarks(4, shard_pool.num_shards)
    )
    assert repaired.equals(sequential.labelling)


def test_run_batch_update_rejects_a_pool_on_a_digraph(shard_pool):
    digraph = generators.to_directed(build_pair(19), reciprocal_p=0.5, seed=19)
    index = DirectedHighwayCoverIndex(digraph, num_landmarks=3)
    with pytest.raises(BatchError):
        run_batch_update(
            index.graph,
            (index.forward, index.backward),
            [EdgeUpdate.insert(0, 1)],
            pool=shard_pool,
        )


def test_sharded_index_is_drop_in(shard_pool):
    rng = random.Random(10)
    graph = build_pair(7)
    plain = HighwayCoverIndex(graph.copy(), num_landmarks=5)
    sharded = open_oracle(
        "hcl-sharded", graph.copy(), num_landmarks=5, pool=shard_pool
    )
    assert plain.labelling.equals(sharded.labelling)
    updates = random_mixed_updates(graph, rng, 4, 4)
    plain.batch_update(updates)
    stats = sharded.batch_update(updates)
    assert plain.labelling.equals(sharded.labelling)
    assert plain.distance(0, 50) == sharded.distance(0, 50)
    assert stats.makespan_seconds is not None
    sharded.rebuild()
    assert plain.labelling.equals(sharded.labelling)


def test_sharded_index_owns_and_closes_its_pool():
    graph = build_pair(8)
    with open_oracle(
        "hcl-sharded", graph, num_landmarks=4, num_shards=2
    ) as index:
        index.batch_update([])
        assert index.check_minimality() == []
        pool = index.pool
    assert pool._executor is None  # closed with the index


def test_failed_process_update_rolls_back_the_graph():
    """A worker-pool failure mid-batch must not leave graph=G' with an
    unrepaired labelling — the edge mutations are reverted so the index
    stays self-consistent (and still answers for the old graph)."""

    class ExplodingPool:
        num_shards = 2

        def build(self, graph, landmarks):
            return build_labelling(graph, landmarks)

        def run_update(self, *args, **kwargs):
            raise RuntimeError("worker died")

    rng = random.Random(14)
    graph = build_pair(13)
    index = HighwayCoverIndex(graph, num_landmarks=4, pool=ExplodingPool())
    before_edges = set(index.graph.edges())
    updates = random_mixed_updates(graph, rng, 3, 3)
    with pytest.raises(RuntimeError):
        index.batch_update(updates)
    assert set(index.graph.edges()) == before_edges
    assert index.check_minimality() == []


def test_failed_unit_update_rolls_back_all_subbatches(shard_pool):
    """UHL applies one sub-batch per update; a pool failure on a later
    sub-batch must also revert the *earlier* sub-batches' edge mutations
    (their repaired labellings never reach the caller)."""

    class FlakyPool:
        num_shards = shard_pool.num_shards

        def __init__(self):
            self.calls = 0

        def build(self, graph, landmarks):
            return build_labelling(graph, landmarks)

        def run_update(self, *args, **kwargs):
            self.calls += 1
            if self.calls >= 3:
                raise RuntimeError("worker died")
            return shard_pool.run_update(*args, **kwargs)

    graph = build_pair(15)
    flaky = FlakyPool()
    index = HighwayCoverIndex(graph, num_landmarks=4, pool=flaky)
    before_edges = set(index.graph.edges())
    n = graph.num_vertices
    edges = sorted(index.graph.edges())
    # The third (failing) unit sub-batch grows the vertex set — its
    # growth hits an intermediate labelling copy, so the rollback must
    # re-grow the caller's labelling to cover the surviving vertex.
    updates = [
        EdgeUpdate.delete(*edges[0]),
        EdgeUpdate.delete(*edges[1]),
        EdgeUpdate.insert(0, n),
    ]
    with pytest.raises(RuntimeError):
        index.batch_update(updates, variant="uhl")
    assert flaky.calls == 3  # two sub-batches succeeded before the failure
    assert set(index.graph.edges()) == before_edges
    assert index.labelling.num_vertices == index.graph.num_vertices
    assert index.check_minimality() == []
    assert index.distance(n, 1) == float("inf")  # grown vertex, isolated


def test_bytes_shipped_stays_delta_sized(shard_pool):
    """Steady-state IPC is O(|batch| + |changed entries|), not O(V * R).

    Alternating delete/re-insert of the same edge set returns the
    labelling to the same two states (it is graph-determined), so the
    per-batch shipped payload must repeat exactly and stay far below one
    full state transfer, and the full-state sync bytes must stop growing
    after the first publish — the merge scatters results into the shared
    blocks, so later publishes copy no label bytes at all.
    """
    from repro.obs.metrics import get_registry

    graph = generators.barabasi_albert(2000, 3, seed=7)
    index = HighwayCoverIndex(graph, num_landmarks=6, seed=1, pool=shard_pool)
    full_state = (
        index.labelling.labels.nbytes + index.labelling.highway.nbytes
    )
    edges = sorted(index.graph.edges())
    mid = len(edges) // 2
    targets = edges[mid : mid + 8]
    shipped = get_registry().counter("repro_pool_bytes_shipped_total", "")
    synced = get_registry().counter("repro_pool_state_sync_bytes_total", "")
    deltas, sync_deltas = [], []
    for round_no in range(6):
        make = EdgeUpdate.delete if round_no % 2 == 0 else EdgeUpdate.insert
        batch = [make(a, b) for a, b in targets]
        shipped_before, synced_before = shipped.value, synced.value
        index.batch_update(batch)
        deltas.append(shipped.value - shipped_before)
        sync_deltas.append(synced.value - synced_before)
    assert max(deltas) < full_state / 4, (
        f"per-batch payload {max(deltas)} is not delta-sized"
        f" (full state = {full_state} bytes)"
    )
    # Rounds 2k/2k+1 revisit the exact states of rounds 0/1: identical
    # change sets, identical payload.
    assert deltas[2:] == deltas[: len(deltas) - 2], deltas
    assert sync_deltas[1:] == [0.0] * (len(sync_deltas) - 1), (
        f"shared blocks fell out of sync: {sync_deltas}"
    )


def test_shared_dist_block_mirrors_the_repaired_labelling(shard_pool):
    """After a flush the shared D block holds labelling_new's D, so the
    next flush publishes no label bytes at all."""
    import numpy as np

    from repro.obs.metrics import get_registry

    rng = random.Random(12)
    index = HighwayCoverIndex(build_pair(12), num_landmarks=6, pool=shard_pool)
    synced = get_registry().counter("repro_pool_state_sync_bytes_total", "")
    for round_no in range(2):
        before = synced.value
        index.batch_update(random_mixed_updates(index.graph, rng, 4, 4))
        state = shard_pool._state
        assert state.is_synced_to(index.labelling)
        assert np.array_equal(state.dist, index.labelling.dist)
        assert np.array_equal(state.labels, index.labelling.labels)
        if round_no:
            assert synced.value == before, "the next flush re-synced"
    assert index.check_minimality() == []


def test_closing_a_snapshot_keeps_the_writers_pool():
    """snapshot() carries no pool, so closing it must neither shut the
    writer's own pool down nor move the writer off it."""
    rng = random.Random(17)
    graph = build_pair(17)
    with open_oracle(
        "hcl-sharded", graph, num_landmarks=4, num_shards=2
    ) as writer:
        pool = writer.pool
        frozen = writer.snapshot()
        assert frozen.pool is None
        frozen.close()
        batches_before = pool.batches_run
        stats = writer.batch_update(random_mixed_updates(graph, rng, 3, 3))
        assert pool.batches_run == batches_before + 1
        assert len(stats.shard_timings) == 2  # one per worker shard
        assert writer.check_minimality() == []


def test_service_over_sharded_writer_flushes_on_its_pool(shard_pool):
    from repro.service import DistanceService, FlushPolicy

    rng = random.Random(16)
    graph = build_pair(16)
    writer = open_oracle(
        "hcl-sharded", graph.copy(), num_landmarks=4, pool=shard_pool
    )
    # The writer flushes on its own pool rather than sequentially.
    service = DistanceService(
        writer, policy=FlushPolicy(max_batch=10_000, max_delay=None)
    )
    batches_before = shard_pool.batches_run
    with service:
        service.submit_many(random_mixed_updates(graph, rng, 3, 3))
        stats = service.flush()
    assert stats is not None and stats.n_applied > 0
    assert shard_pool.batches_run > batches_before
    assert service.current_snapshot().index.check_minimality() == []


# ----------------------------------------------------------------------
# shard timing comparability (sequential vs. real processes)
# ----------------------------------------------------------------------


def test_sequential_shard_timings_decompose_totals():
    """A sequential run must expose one timing per landmark whose
    search/repair components sum to the batch totals and whose max wall
    is the reported makespan — the contract that makes the paper's
    one-core-per-landmark cost model comparable with real process
    timings."""
    rng = random.Random(11)
    graph = build_pair(10)
    index = HighwayCoverIndex(graph, num_landmarks=6)
    updates = random_mixed_updates(graph, rng, 5, 5)
    stats = index.batch_update(updates)
    assert len(stats.shard_timings) == 6
    assert all(t.num_landmarks == 1 for t in stats.shard_timings)
    assert sum(t.search_seconds for t in stats.shard_timings) == pytest.approx(
        stats.search_seconds
    )
    assert sum(t.repair_seconds for t in stats.shard_timings) == pytest.approx(
        stats.repair_seconds
    )
    assert stats.makespan_seconds == pytest.approx(
        max(t.wall_seconds for t in stats.shard_timings)
    )
    assert stats.merge_seconds == 0.0


def test_search_seconds_exclude_the_label_decode(monkeypatch):
    """Reading each landmark's old landmark lengths is neither search nor
    repair: a slow read shows up only in the shard's wall time."""
    from repro.core.labelling import HighwayCoverLabelling

    read = HighwayCoverLabelling.landmark_lengths

    def slow_read(self, landmark_idx):
        time.sleep(0.02)
        return read(self, landmark_idx)

    monkeypatch.setattr(HighwayCoverLabelling, "landmark_lengths", slow_read)
    index = HighwayCoverIndex(generators.grid(6, 6), num_landmarks=4)
    stats = index.batch_update(
        [EdgeUpdate.insert(0, 35), EdgeUpdate.delete(0, 1)]
    )
    assert stats.n_applied == 2
    assert stats.search_seconds < 0.02
    assert len(stats.shard_timings) == 4
    for timing in stats.shard_timings:
        outside_kernels_s = (
            timing.wall_seconds - timing.search_seconds - timing.repair_seconds
        )
        assert outside_kernels_s >= 0.02, timing


def test_weighted_search_seconds_exclude_the_label_decode(monkeypatch):
    """The weighted index times its landmarks like the other two: a slow
    read of the old landmark lengths lands in the wall only, one
    ShardTiming per landmark, makespan = max wall."""
    from repro.core.labelling import HighwayCoverLabelling
    from repro.core.weighted import WeightedHighwayCoverIndex
    from repro.graph.weighted_graph import WeightUpdate

    read = HighwayCoverLabelling.landmark_lengths

    def slow_read(self, landmark_idx):
        time.sleep(0.02)
        return read(self, landmark_idx)

    monkeypatch.setattr(HighwayCoverLabelling, "landmark_lengths", slow_read)
    index = WeightedHighwayCoverIndex(
        generators.with_random_weights(generators.grid(6, 6), seed=3),
        num_landmarks=4,
    )
    stats = index.batch_update([WeightUpdate(0, 35, 2), WeightUpdate(0, 1, 9)])
    assert stats.n_applied == 2
    assert stats.search_seconds < 0.02
    assert len(stats.shard_timings) == 4
    for timing in stats.shard_timings:
        outside_kernels_s = (
            timing.wall_seconds - timing.search_seconds - timing.repair_seconds
        )
        assert outside_kernels_s >= 0.02, timing
    assert stats.makespan_seconds == max(
        t.wall_seconds for t in stats.shard_timings
    )


def test_process_shard_timings_decompose_totals(shard_pool):
    rng = random.Random(12)
    graph = build_pair(11)
    index = HighwayCoverIndex(graph, num_landmarks=6, pool=shard_pool)
    updates = random_mixed_updates(graph, rng, 5, 5)
    stats = index.batch_update(updates)
    assert len(stats.shard_timings) == 3
    assert sum(t.num_landmarks for t in stats.shard_timings) == 6
    assert sum(t.search_seconds for t in stats.shard_timings) == pytest.approx(
        stats.search_seconds
    )
    assert sum(t.repair_seconds for t in stats.shard_timings) == pytest.approx(
        stats.repair_seconds
    )
    assert stats.makespan_seconds == pytest.approx(
        max(t.wall_seconds for t in stats.shard_timings)
    )
    # Worker wall includes decode overhead on top of search + repair.
    for t in stats.shard_timings:
        assert t.wall_seconds >= t.search_seconds + t.repair_seconds
    assert stats.merge_seconds >= 0.0


def test_shard_pool_works_under_stdin_main():
    """Regression: forkserver/spawn workers re-import the driver's
    __main__ by path; with a stdin driver that path is '<stdin>' and
    every shard died with BrokenProcessPool.  The pool must now serve a
    driver whose __main__ is not a real file."""
    import os
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = (
        "from repro.graph import generators\n"
        "from repro.api.registry import open_oracle\n"
        "from repro.graph.batch import EdgeUpdate\n"
        "g = generators.erdos_renyi(30, 0.15, seed=2)\n"
        "o = open_oracle('hcl-sharded', g, num_landmarks=3, num_shards=2)\n"
        "o.batch_update([EdgeUpdate.insert(1, 30)])\n"
        "assert o.distance(1, 30) == 1\n"
        "o.close()\n"
        "print('STDIN-POOL-OK')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(repo, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    result = subprocess.run(
        [sys.executable, "-"],
        input=script,
        capture_output=True,
        text=True,
        env=env,
        timeout=180,
    )
    assert result.returncode == 0, result.stderr
    assert "STDIN-POOL-OK" in result.stdout


def test_importable_main_guard_strips_only_bogus_mains(monkeypatch):
    import sys
    import types

    from repro.parallel.pool import _importable_main

    fake = types.ModuleType("__main__")
    fake.__file__ = "<not-a-real-file>"
    fake.__spec__ = None
    monkeypatch.setitem(sys.modules, "__main__", fake)
    with _importable_main():
        assert not hasattr(fake, "__file__")  # stripped while spawning
    assert fake.__file__ == "<not-a-real-file>"  # restored afterwards

    fake.__file__ = __file__  # a real on-disk file: left alone
    with _importable_main():
        assert fake.__file__ == __file__


def test_pool_close_joins_executor_outside_the_lock():
    """Regression: close() used to call executor.shutdown(wait=True)
    while holding ``_lock``, stalling every concurrent
    _ensure_executor/_discard_broken (and metrics scrapes) behind a
    teardown that joins in-flight shard tasks."""
    from repro.parallel.pool import LandmarkShardPool

    pool = LandmarkShardPool(num_shards=2)
    observed = {}

    class FakeExecutor:
        def shutdown(self, wait=True, **kwargs):
            got_lock = pool._lock.acquire(timeout=1.0)
            if got_lock:
                pool._lock.release()
            observed["lock_free_during_shutdown"] = got_lock
            observed["wait"] = wait

    pool._executor = FakeExecutor()
    pool.close()
    assert observed == {"lock_free_during_shutdown": True, "wait": True}
    assert pool._executor is None
