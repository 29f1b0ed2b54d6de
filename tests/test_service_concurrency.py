"""Concurrent reads during in-flight batch updates: no torn answers.

The serving contract says every answer is exact for *some* published
epoch.  These tests hammer the service with reader threads while the
writer repairs, and check every single answer against BFS oracles of the
pre- and post-batch graphs — an answer matching neither would be a torn
read (a query that saw a half-repaired labelling or half-mutated graph).
"""

from __future__ import annotations

import random
import sys
import threading
import time

from repro import DistanceService, EdgeUpdate, FlushPolicy
from repro.graph import generators
from repro.graph.batch import apply_batch, normalize_batch
from repro.graph.traversal import bfs_distances
from repro.constants import INF

from tests.conftest import (
    buffer_paths,
    buffer_paths_since,
    csr_paths,
    csr_paths_since,
    random_mixed_updates,
)


def oracle_table(graph, sources) -> dict:
    """pair -> exact distance, from full BFS per source (externalised)."""
    table = {}
    for s in sources:
        dist = bfs_distances(graph, s)
        for t in range(graph.num_vertices):
            d = int(dist[t])
            table[(s, t)] = float("inf") if d >= INF else float(d)
    return table


def test_readers_see_only_pre_or_post_batch_answers():
    rng = random.Random(7)
    graph = generators.erdos_renyi(120, 0.05, seed=7)
    service = DistanceService(
        graph.copy(),
        num_landmarks=6,
        policy=FlushPolicy(max_batch=10_000, max_delay=None),
        cache_capacity=256,
    )

    sources = rng.sample(range(graph.num_vertices), 8)
    pre = oracle_table(service.current_snapshot().index.graph, sources)

    updates = random_mixed_updates(
        service.current_snapshot().index.graph.copy(), rng, 10, 10
    )
    service.submit_many(updates)

    start = threading.Barrier(5)
    answers: list[tuple[int, int, float]] = []
    errors: list[BaseException] = []
    lock = threading.Lock()

    def reader(seed: int) -> None:
        local_rng = random.Random(seed)
        local: list[tuple[int, int, float]] = []
        try:
            start.wait()
            for _ in range(400):
                s = local_rng.choice(sources)
                t = local_rng.randrange(graph.num_vertices)
                local.append((s, t, service.distance(s, t)))
        except BaseException as exc:
            errors.append(exc)
        with lock:
            answers.extend(local)

    readers = [
        threading.Thread(target=reader, args=(100 + i,)) for i in range(4)
    ]
    for thread in readers:
        thread.start()
    start.wait()  # release readers, then repair concurrently with them
    stats = service.flush()
    for thread in readers:
        thread.join()

    assert not errors, errors
    assert stats is not None and stats.n_applied > 0
    assert service.epoch == 1
    post = oracle_table(service.current_snapshot().index.graph, sources)

    torn = [
        (s, t, got)
        for s, t, got in answers
        if got != pre[(s, t)] and got != post[(s, t)]
    ]
    assert torn == [], f"{len(torn)} torn reads, e.g. {torn[:5]}"
    # Both epochs were actually observed in a meaningful run most of the
    # time; at minimum every answer matched one of them.
    assert len(answers) == 4 * 400


def test_process_backend_flushes_stay_exact_under_concurrent_readers():
    """Same torn-read hunt, but the writer repairs on the worker-process
    pool (an hcl-sharded writer): readers hammer the service over several
    flush rounds while shard results are merged, and every answer must
    still be exact for one of the published epochs."""
    rng = random.Random(13)
    graph = generators.erdos_renyi(90, 0.06, seed=13)
    service = DistanceService(
        graph.copy(),
        num_landmarks=6,
        policy=FlushPolicy(max_batch=10_000, max_delay=None),
        oracle="hcl-sharded",
        oracle_config={"num_shards": 2},
    )
    sources = rng.sample(range(graph.num_vertices), 5)
    oracles = [oracle_table(service.current_snapshot().index.graph, sources)]

    stop = threading.Event()
    answers: list[tuple[int, int, float]] = []
    errors: list[BaseException] = []
    lock = threading.Lock()

    def reader(seed: int) -> None:
        local_rng = random.Random(seed)
        local = []
        try:
            while not stop.is_set():
                s = local_rng.choice(sources)
                t = local_rng.randrange(graph.num_vertices)
                local.append((s, t, service.distance(s, t)))
        except BaseException as exc:
            errors.append(exc)
        with lock:
            answers.extend(local)

    readers = [
        threading.Thread(target=reader, args=(300 + i,)) for i in range(3)
    ]
    for thread in readers:
        thread.start()
    try:
        for _ in range(3):
            updates = random_mixed_updates(
                service.current_snapshot().index.graph.copy(), rng, 6, 6
            )
            service.submit_many(updates)
            service.flush()
            oracles.append(
                oracle_table(service.current_snapshot().index.graph, sources)
            )
    finally:
        stop.set()
        for thread in readers:
            thread.join()
        service.close()

    assert not errors, errors
    assert service.epoch == 3
    valid = {
        (s, t): {table[(s, t)] for table in oracles}
        for (s, t) in oracles[0]
    }
    torn = [
        (s, t, got) for s, t, got in answers if got not in valid[(s, t)]
    ]
    assert torn == [], f"{len(torn)} answers matched no epoch: {torn[:5]}"
    assert answers, "readers never ran"
    # The writer really went through the process pool: the flushed epochs
    # must agree exactly with a from-scratch rebuild.
    assert service.current_snapshot().index.check_minimality() == []


def test_interleaved_writers_and_readers_stay_exact_per_epoch():
    """Multiple flush rounds with readers running throughout: answers must
    always match the oracle of one of the epochs published so far."""
    rng = random.Random(11)
    graph = generators.erdos_renyi(80, 0.06, seed=11)
    service = DistanceService(
        graph.copy(),
        num_landmarks=5,
        policy=FlushPolicy(max_batch=10_000, max_delay=None),
    )
    sources = rng.sample(range(graph.num_vertices), 5)
    oracles = [oracle_table(service.current_snapshot().index.graph, sources)]

    stop = threading.Event()
    answers: list[tuple[int, int, float]] = []
    errors: list[BaseException] = []
    lock = threading.Lock()

    def reader(seed: int) -> None:
        local_rng = random.Random(seed)
        local = []
        try:
            while not stop.is_set():
                s = local_rng.choice(sources)
                t = local_rng.randrange(graph.num_vertices)
                local.append((s, t, service.distance(s, t)))
        except BaseException as exc:
            errors.append(exc)
        with lock:
            answers.extend(local)

    readers = [
        threading.Thread(target=reader, args=(200 + i,)) for i in range(3)
    ]
    for thread in readers:
        thread.start()
    try:
        for _ in range(4):
            updates = random_mixed_updates(
                service.current_snapshot().index.graph.copy(), rng, 5, 5
            )
            service.submit_many(updates)
            service.flush()
            oracles.append(
                oracle_table(service.current_snapshot().index.graph, sources)
            )
    finally:
        stop.set()
        for thread in readers:
            thread.join()

    assert not errors, errors
    assert len(oracles) == 5
    valid = {
        (s, t): {table[(s, t)] for table in oracles}
        for (s, t) in oracles[0]
    }
    torn = [
        (s, t, got) for s, t, got in answers if got not in valid[(s, t)]
    ]
    assert torn == [], f"{len(torn)} answers matched no epoch: {torn[:5]}"
    assert answers, "readers never ran"


def test_pinned_snapshots_answer_for_their_own_epoch_across_flushes():
    """A background writer runs six flushes while reader threads pin
    ``current_snapshot()`` across them.  Every answer a pinned snapshot
    gives must equal *its own* epoch's BFS answer, not any epoch's: a
    read from labelling buffers recycled under it could match another
    epoch and still pass the per-any-epoch checks above.

    Two holders keep each snapshot until two more epochs are out, so
    the flush that would recycle its arrays must copy (and relay its CSR
    rows out); a third reader takes a fresh snapshot every few queries,
    and the flushes that no holder blocks recycle labelling and row
    buffers alike.  The writer waits for every reader to make progress
    before each flush, so each epoch is read while pinned."""
    rng = random.Random(23)
    graph = generators.erdos_renyi(100, 0.05, seed=23)
    sources = rng.sample(range(graph.num_vertices), 6)
    # Every epoch's batch and BFS table, computed up front on a copy.
    reference = graph.copy()
    tables = [oracle_table(reference, sources)]
    batches = []
    for _ in range(6):
        updates = random_mixed_updates(reference, rng, 4, 4)
        apply_batch(reference, normalize_batch(updates, reference))
        batches.append(updates)
        tables.append(oracle_table(reference, sources))
    service = DistanceService(
        graph.copy(),
        num_landmarks=5,
        policy=FlushPolicy(max_batch=10_000, max_delay=None),
    )
    paths_before = buffer_paths()
    rows_before = csr_paths()

    done = threading.Event()
    progress = [0, 0, 0]
    longest_hold = [0, 0, 0]
    wrong: list[tuple[int, int, int, float, float]] = []
    errors: list[BaseException] = []
    lock = threading.Lock()

    def check(snapshot, local_rng, reader_no) -> None:
        s = local_rng.choice(sources)
        t = local_rng.randrange(graph.num_vertices)
        got = snapshot.index.distance(s, t)
        want = tables[snapshot.epoch][(s, t)]
        with lock:
            progress[reader_no] += 1
            if got != want:
                wrong.append((snapshot.epoch, s, t, got, want))

    def holder(reader_no: int) -> None:
        local_rng = random.Random(500 + reader_no)
        try:
            while not done.is_set():
                pinned = service.current_snapshot()
                while not done.is_set() and service.epoch < pinned.epoch + 2:
                    check(pinned, local_rng, reader_no)
                for _ in range(20):  # still exact after two flushes
                    check(pinned, local_rng, reader_no)
                with lock:
                    longest_hold[reader_no] = max(
                        longest_hold[reader_no], service.epoch - pinned.epoch
                    )
                del pinned
        except BaseException as exc:
            errors.append(exc)

    def fresh(reader_no: int) -> None:
        local_rng = random.Random(500 + reader_no)
        try:
            while not done.is_set():
                snapshot = service.current_snapshot()
                for _ in range(5):
                    check(snapshot, local_rng, reader_no)
                del snapshot
        except BaseException as exc:
            errors.append(exc)

    def writer() -> None:
        try:
            for updates in batches:
                with lock:
                    seen = list(progress)
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    with lock:
                        if all(p >= s + 20 for p, s in zip(progress, seen)):
                            break
                    time.sleep(0.001)
                service.submit_many(updates)
                service.flush()
        except BaseException as exc:
            errors.append(exc)
        finally:
            done.set()

    threads = [
        threading.Thread(target=holder, args=(0,)),
        threading.Thread(target=holder, args=(1,)),
        threading.Thread(target=fresh, args=(2,)),
        threading.Thread(target=writer),
    ]
    # Switch threads often, so reads land inside repairs and publishes.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        done.set()
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    paths = buffer_paths_since(paths_before)
    rows = csr_paths_since(rows_before)
    service.close()

    assert not errors, errors
    assert service.epoch == len(batches)
    assert wrong == [], f"{len(wrong)} answers off their epoch: {wrong[:5]}"
    assert max(longest_hold[:2]) >= 2, longest_hold
    assert paths["recycled"] + paths["copied"] == len(batches), paths
    assert paths["recycled"] >= 1 and paths["copied"] >= 2, paths
    assert rows["recycled"] >= 1 and rows["relaid"] >= 1, rows
    assert service.current_snapshot().index.check_minimality() == []
