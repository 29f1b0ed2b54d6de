"""Persistent landmark-sharded process pool.

:class:`LandmarkShardPool` is the writer-side driver of the ``processes``
backend.  It publishes G' and Γ (labels, highway and the landmark-distance
matrix D) into the shared-memory blocks of its
:class:`~repro.parallel.snapshot.SharedShardState`, ships each worker a
tiny task header — the state meta, the oriented edge deltas, and the
shard's landmark indices — and scatters the returned **sparse change
sets** into both the target labelling and the shared blocks, so the next
batch starts from already-synchronized state and the steady-state IPC
payload is O(|batch| + |changed entries|), never O(V·R).  The underlying
:class:`~concurrent.futures.ProcessPoolExecutor` is created lazily on
first use and **reused across batches** — worker startup (and, under
spawn, interpreter + import cost) is paid once per pool, not once per
batch, which is what makes the backend viable for the serving layer's
steady stream of small flushes.

Shard-count guidance: one shard per physical core, capped by the landmark
count.  More shards than cores only adds dispatch overhead; fewer leaves
cores idle.  With the paper's default of 20 landmarks, 4–20 shards cover
every sensible machine.

An index built on a pool (``HighwayCoverIndex(pool=...)``, or the
``hcl-sharded`` registry entry) runs on it; ``run_batch_update`` and
``build_labelling`` take the same ``pool``.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from multiprocessing.context import BaseContext
from types import TracebackType
from typing import TYPE_CHECKING, Any, Iterable, Iterator, cast

from repro.core.labelling import HighwayCoverLabelling
from repro.core.stats import ShardTiming
from repro.errors import BatchError
from repro.graph.csr import CSRGraph, as_csr
from repro.obs.log import get_logger
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.parallel.snapshot import SharedShardState
from repro.parallel.snapshot import ShardStateMeta
from repro.parallel.worker import (
    BuildShardResult,
    LandmarkOutcome,
    ShardResult,
    run_build_shard,
    run_update_shard,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.batch_search import OrientedUpdate
    from repro.graph.dynamic_graph import DynamicGraph
    from repro.obs.trace import Tracer

_log = get_logger("repro.parallel.pool")


def partition_landmarks(num_landmarks: int, num_shards: int) -> list[list[int]]:
    """Split landmark indices into at most ``num_shards`` balanced shards.

    Contiguous slices whose sizes differ by at most one; empty shards are
    never produced (fewer landmarks than shards yields fewer shards).
    """
    if num_landmarks <= 0:
        return []
    if num_shards <= 0:
        raise BatchError(f"num_shards must be positive, got {num_shards}")
    num_shards = min(num_shards, num_landmarks)
    base, extra = divmod(num_landmarks, num_shards)
    shards: list[list[int]] = []
    start = 0
    for s in range(num_shards):
        size = base + (1 if s < extra else 0)
        shards.append(list(range(start, start + size)))
        start += size
    return shards


def default_num_shards(num_landmarks: int) -> int:
    """One shard per core, capped by the landmark count."""
    return max(1, min(os.cpu_count() or 1, num_landmarks))


@contextmanager
def _importable_main() -> Iterator[None]:
    """Neutralise a ``__main__`` that spawned workers cannot re-import.

    Under spawn/forkserver, multiprocessing re-runs the driver's
    ``__main__`` by path in every fresh worker.  When the driver is not a
    real file — ``python -`` / ``python -c``, an embedded REPL, a
    notebook cell — ``__main__.__file__`` points at ``<stdin>`` or
    similar, the re-import dies with ``FileNotFoundError`` and every
    shard task surfaces as ``BrokenProcessPool``.  While workers may
    spawn, drop the bogus ``__file__`` (restored afterwards):
    multiprocessing then skips re-importing ``__main__`` entirely, which
    is also the correct semantic — there is nothing on disk to re-run.
    """
    main = sys.modules.get("__main__")
    main_file = getattr(main, "__file__", None)
    if (
        main is None
        or main_file is None
        # python -m / real scripts resolve by module spec or real path.
        or getattr(main, "__spec__", None) is not None
        or os.path.exists(main_file)
    ):
        yield
        return
    try:
        del main.__file__
        yield
    finally:
        main.__file__ = main_file


def _default_mp_context() -> BaseContext:
    """A fork-safe start method: forkserver where available, else spawn.

    The pool is routinely started lazily from a multithreaded writer (the
    serving layer flushes while reader threads run); plain ``fork`` from a
    threaded process can inherit locks held mid-acquisition and deadlock
    the child.  ``forkserver`` forks from a clean single-threaded server
    process — fork-fast after the first task, without fork's hazard.
    """
    try:
        return multiprocessing.get_context("forkserver")
    except ValueError:  # platform without forkserver (e.g. Windows)
        return multiprocessing.get_context("spawn")


class LandmarkShardPool:
    """Reusable process pool executing landmark shards of batch updates.

    ``num_shards=None`` resolves per call to :func:`default_num_shards`.
    The executor is lazy: constructing a pool is free, the worker
    processes appear on the first :meth:`run_update`/:meth:`build` and
    stay alive until :meth:`close` (the pool is also a context manager).
    """

    def __init__(self, num_shards: int | None = None) -> None:
        if num_shards is not None and num_shards <= 0:
            raise BatchError(f"num_shards must be positive, got {num_shards}")
        self.num_shards = num_shards
        self._executor: ProcessPoolExecutor | None = None  # guarded-by: _lock
        self._lock = threading.Lock()
        # Shared-memory (G', Γ) mirror, created on the first run_update.
        # _state_lock serialises publish -> dispatch -> merge: the blocks
        # are a single mirror, so two concurrent batches over them would
        # corrupt each other's view of Γ.
        self._state: SharedShardState | None = None
        self._state_lock = threading.Lock()
        self.batches_run = 0  # guarded-by: _state_lock

    # ------------------------------------------------------------------
    # executor lifecycle
    # ------------------------------------------------------------------

    def _ensure_executor(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._executor is None:
                # Size to the pool's fixed shard count, or to the machine
                # when sharding is auto — never to the first call's shard
                # count, which may be small and would cap every later run.
                workers = self.num_shards or os.cpu_count() or 1
                self._executor = ProcessPoolExecutor(
                    max_workers=workers, mp_context=_default_mp_context()
                )
            return self._executor

    def _discard_broken(self) -> None:
        """Drop a broken executor so the next call starts a fresh one.

        The shared-memory state is deliberately kept: the blocks live in
        the writer and are still valid; replacement workers simply find
        an empty attach cache and re-map on their first task.
        """
        with self._lock:
            if self._executor is not None:
                self._executor.shutdown(wait=False, cancel_futures=True)
                self._executor = None

    def close(self) -> None:
        # Detach the executor under the lock, join it outside: shutdown
        # waits for in-flight shard tasks, which can take seconds, and
        # holding _lock across it would stall every concurrent
        # _ensure_executor/_discard_broken (and any metrics scrape that
        # touches the pool) behind a batch we are only tearing down.
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)
        with self._state_lock:
            if self._state is not None:
                self._state.close()
                self._state = None

    def __enter__(self) -> "LandmarkShardPool":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()

    # ------------------------------------------------------------------
    # work
    # ------------------------------------------------------------------

    def _run_sharded(
        self, task: Any, shards: list[list[int]], *args: Any
    ) -> list[Any]:
        executor = self._ensure_executor()
        try:
            # Workers spawn lazily inside submit(): keep the main-module
            # guard up for the whole submission burst so drivers without
            # a file-backed __main__ (stdin/-c/notebooks) work too.
            with _importable_main():
                futures = [
                    executor.submit(task, *args, shard) for shard in shards
                ]
        except BrokenProcessPool:
            # The pool died between batches (e.g. a worker was killed
            # while idle) and submit refuses it; discard so a retry
            # starts fresh workers.
            self._discard_broken()
            raise
        results: list[Any] = []
        for s, future in enumerate(futures):
            try:
                results.append(future.result())
            except BrokenProcessPool:
                # Propagate unwrapped: callers (and their retry logic)
                # distinguish a dead pool from a failing task.  shutdown
                # with cancel_futures reaps the outstanding siblings.
                self._discard_broken()
                raise
            except Exception as exc:
                # One shard task failed while the pool itself is healthy.
                # Cancel the siblings, wait for the stragglers already
                # running (their writes are worker-private, so letting
                # them finish is safe), and surface which shard died.
                for pending in futures:
                    pending.cancel()
                wait(futures)
                raise BatchError(
                    f"shard {s} (landmarks {shards[s]}) failed:"
                    f" {exc.__class__.__name__}: {exc}"
                ) from exc
        return results

    def run_update(
        self,
        csr: CSRGraph,
        labelling_old: HighwayCoverLabelling,
        labelling_new: HighwayCoverLabelling,
        oriented: "Iterable[OrientedUpdate]",
        improved: bool,
    ) -> tuple[list[LandmarkOutcome], float, list[ShardTiming], float]:
        """Search + repair every landmark across the worker shards.

        ``csr`` must be the frozen :class:`CSRGraph` of G' and
        ``labelling_new`` a writable labelling equal to ``labelling_old``
        (its :meth:`~HighwayCoverLabelling.repair_target`, grown to G''s
        vertex count).  Returns the per-landmark outcomes in landmark
        order, the makespan (max shard wall), the per-shard timings, and
        the writer-side merge time.

        Dispatch ships only the state meta, the oriented deltas and each
        shard's landmark list; results come back as sparse label, D and
        highway change sets, scattered into **both** ``labelling_new`` and
        the shared blocks — after the merge the blocks hold Γ' and its D,
        so the next batch publishes zero label bytes.
        """
        num_landmarks = labelling_old.num_landmarks
        shards = partition_landmarks(
            num_landmarks, self.num_shards or default_num_shards(num_landmarks)
        )
        if not shards:
            return [], 0.0, [], 0.0
        with self._state_lock:
            return self._run_update_locked(
                csr, labelling_old, labelling_new, oriented, improved, shards
            )

    def _run_update_locked(
        self,
        csr: CSRGraph,
        labelling_old: HighwayCoverLabelling,
        labelling_new: HighwayCoverLabelling,
        oriented: "Iterable[OrientedUpdate]",
        improved: bool,
        shards: list[list[int]],
    ) -> tuple[list[LandmarkOutcome], float, list[ShardTiming], float]:
        if self._state is None:
            self._state = SharedShardState()
        state = self._state
        num_landmarks = labelling_old.num_landmarks
        tracer = get_tracer()
        with tracer.span(
            "pool_update", shards=len(shards), landmarks=num_landmarks
        ) as pool_span:
            with tracer.span("publish_state"):
                meta, sync_bytes = state.publish(csr, labelling_old)
            oriented = list(oriented)
            # Per-shard request payload: the oriented deltas plus the
            # shard's landmark indices (the meta header is a few dozen
            # bytes).  3 int64 fields per oriented update.
            shipped = len(shards) * 24 * len(oriented) + 8 * num_landmarks
            dispatch_us = tracer.now_us() if tracer.enabled else 0
            with tracer.span("shard_dispatch"):
                results = self._run_sharded(
                    _update_task, shards, meta, oriented, improved
                )
            merge_started = time.perf_counter()
            outcomes: list[LandmarkOutcome | None] = [None] * num_landmarks
            shard_timings: list[ShardTiming] = []
            attaches = remaps = 0
            # The blocks mirror labelling_old until every change set is
            # in; a partially-scattered mirror must never pass for either
            # labelling, so drop the sync token first and re-establish it
            # only after the last scatter.
            state.invalidate()
            with tracer.span("shard_merge"):
                for s, result in enumerate(results):
                    shipped += result.payload_bytes
                    attaches += result.attached
                    remaps += result.remapped
                    for field, (rows, cols, vals) in result.changes.items():
                        if rows.size:
                            getattr(labelling_new, field)[rows, cols] = vals
                            getattr(state, field)[rows, cols] = vals
                    for i, outcome in zip(result.shard, result.outcomes):
                        outcomes[i] = outcome
                    shard_timings.append(
                        ShardTiming(
                            shard=s,
                            num_landmarks=len(result.shard),
                            search_seconds=sum(
                                o[1] for o in result.outcomes
                            ),
                            repair_seconds=sum(
                                o[2] for o in result.outcomes
                            ),
                            wall_seconds=result.wall_seconds,
                        )
                    )
            state.mark_synced(labelling_new)
            merge_seconds = time.perf_counter() - merge_started
            makespan = max(t.wall_seconds for t in shard_timings)
            if pool_span is not None:
                _synthesize_shard_spans(
                    tracer, pool_span.span_id, dispatch_us, shard_timings
                )
        registry = get_registry()
        registry.counter(
            "repro_pool_batches_total", "batches run on the shard pool"
        ).inc()
        registry.counter(
            "repro_pool_shard_tasks_total", "shard tasks dispatched"
        ).inc(len(shards))
        registry.counter(
            "repro_pool_merge_seconds_total",
            "writer-side time scattering shard results",
        ).inc(merge_seconds)
        registry.counter(
            "repro_pool_makespan_seconds_total",
            "summed per-batch makespan (max shard wall)",
        ).inc(makespan)
        registry.counter(
            "repro_pool_bytes_shipped_total",
            "per-batch IPC payload: oriented deltas out, change sets back",
        ).inc(shipped)
        registry.counter(
            "repro_pool_state_sync_bytes_total",
            "label/highway bytes re-copied into shared memory on publish",
        ).inc(sync_bytes)
        if attaches:
            registry.counter(
                "repro_pool_worker_attach_total",
                "worker first-time attachments to the shared state",
            ).inc(attaches)
        if remaps:
            registry.counter(
                "repro_pool_worker_remap_total",
                "worker re-attachments after a generation bump",
            ).inc(remaps)
        registry.gauge(
            "repro_pool_state_generation",
            "current shared-memory state generation",
        ).set(state.generation)
        self.batches_run += 1
        _log.debug(
            "pool batch merged",
            extra={
                "shards": len(shards),
                "makespan_s": round(makespan, 6),
                "merge_s": round(merge_seconds, 6),
                "shipped_bytes": shipped,
                "sync_bytes": sync_bytes,
                "generation": state.generation,
            },
        )
        done = cast("list[LandmarkOutcome]", list(outcomes))
        return done, makespan, shard_timings, merge_seconds

    def build(
        self, graph: "DynamicGraph", landmarks: tuple[int, ...]
    ) -> HighwayCoverLabelling:
        """Parallel static construction: one landmark sweep per shard."""
        landmarks = tuple(landmarks)
        shards = partition_landmarks(
            len(landmarks), self.num_shards or default_num_shards(len(landmarks))
        )
        labelling = HighwayCoverLabelling.empty(graph.num_vertices, landmarks)
        if not shards:
            return labelling
        # The graph lends the view it maintains (a first freeze whose
        # rows its later batches rewrite), or is frozen here.
        csr = as_csr(graph)
        results = self._run_sharded(
            _build_task, shards, csr.starts, csr.ends, csr.indices, landmarks
        )
        for result in results:
            labelling.labels[:, result.shard] = result.columns
            labelling.highway[result.shard, :] = result.highway_rows
            labelling.dist[:, result.shard] = result.dist_columns
        return labelling

    def __repr__(self) -> str:
        state = "live" if self._executor is not None else "idle"  # reprolint: disable=LOCK001,CONC003 -- repr is informational; a torn read cannot corrupt state
        return (
            f"LandmarkShardPool(num_shards={self.num_shards},"
            f" {state}, batches_run={self.batches_run})"  # reprolint: disable=LOCK001,CONC003 -- repr is informational; a torn read cannot corrupt state
        )


def _synthesize_shard_spans(
    tracer: "Tracer",
    parent_id: int,
    dispatch_us: int,
    shard_timings: list[ShardTiming],
) -> None:
    """Reconstruct worker-side spans from the ShardTiming each shard
    reported.

    Worker processes do not trace (the tracer is per-process), so the
    writer rebuilds each shard's timeline under the dispatching span:
    one ``shard`` span per worker task on its own ``shard-N`` track,
    with ``search`` and ``repair`` children.  Phase placement is the
    worker's actual order — attach and D column reads first (the wall
    minus the measured phases), then search, then repair.
    """
    for timing in shard_timings:
        tid = f"shard-{timing.shard}"
        wall_us = timing.wall_seconds * 1e6
        search_us = timing.search_seconds * 1e6
        repair_us = timing.repair_seconds * 1e6
        shard_id = tracer.record_complete(
            "shard",
            dispatch_us,
            wall_us,
            parent_id=parent_id,
            tid=tid,
            shard=timing.shard,
            landmarks=timing.num_landmarks,
        )
        decode_us = max(0.0, wall_us - search_us - repair_us)
        tracer.record_complete(
            "search",
            dispatch_us + decode_us,
            search_us,
            parent_id=shard_id,
            tid=tid,
        )
        tracer.record_complete(
            "repair",
            dispatch_us + decode_us + search_us,
            repair_us,
            parent_id=shard_id,
            tid=tid,
        )


def _update_task(
    meta: ShardStateMeta,
    oriented: "list[OrientedUpdate]",
    improved: bool,
    shard: list[int],
) -> ShardResult:
    """Positional adapter so the shard is the trailing argument."""
    return run_update_shard(meta, shard, oriented, improved)


def _build_task(
    starts: Any,
    ends: Any,
    indices: Any,
    landmarks: tuple[int, ...],
    shard: list[int],
) -> BuildShardResult:
    return run_build_shard(starts, ends, indices, landmarks, shard)

