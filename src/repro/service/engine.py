"""Online serving engine: epoch snapshots + single-writer batch updates.

The paper shows that coalescing updates into batches amortises labelling
maintenance; this module turns that offline result into a serving
discipline.  One **writer** owns the live oracle — any registered
:class:`~repro.api.protocol.DistanceOracle`, built through
:func:`repro.open_oracle` — and applies each flushed batch through
``batch_update`` (the full search+repair pipeline).  **Readers** never
touch the writer's state: they answer against the most recently
*published* :class:`EpochSnapshot`, an immutable frozen copy.  Publishing a snapshot is a single
reference assignment — atomic under the GIL — so queries proceed lock-free
and never block on an in-flight repair.  The price is bounded staleness:
between a batch's flush start and its publish, readers see epoch N while
N+1 is being built; :class:`~repro.service.metrics.ServiceMetrics` counts
those answers (best-effort within one instruction of the flip — the
counter is observability, not part of the consistency contract).

Consistency contract:

* every answer is the *exact* distance in some published epoch's graph —
  there are no torn reads mixing pre- and post-batch state;
* an update is visible to all queries that start after its flush's
  publish; with a background writer no accepted update waits longer than
  the flush policy's time budget plus one repair (in foreground mode
  triggers are only evaluated at ``submit``/``flush`` calls — the read
  path never flushes, so a quiet service can hold a partial batch until
  the next write arrives);
* updates are serialised through the writer lock — concurrent ``submit``
  callers coalesce into the same scheduler buffer.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from types import TracebackType
from typing import Iterable

from repro.api.protocol import Capabilities, DistanceOracle
from repro.api.registry import open_oracle, oracle_spec
from repro.core.batchhl import Variant, resolve_variant
from repro.core.stats import UpdateStats
from repro.errors import (
    BatchError,
    CapabilityError,
    IndexStateError,
    OracleConfigError,
    WorkloadError,
)
from repro.graph.batch import EdgeUpdate
from repro.graph.digraph import DynamicDiGraph
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.weighted_graph import WeightedDynamicGraph, WeightUpdate
from repro.obs.log import get_logger
from repro.obs.profile import profile_section
from repro.obs.trace import span
from repro.service.cache import QueryCache
from repro.service.metrics import ServiceMetrics
from repro.service.scheduler import (
    CoalescingScheduler,
    FlushPolicy,
    FlushTrigger,
)

_log = get_logger("repro.service.engine")

#: Upper bound (seconds) on the writer thread's condition wait.  A lost
#: notify then costs at most one cap interval of flush latency instead of
#: hanging the loop; see _writer_loop.
_WRITER_WAIT_CAP = 0.5


@dataclass(frozen=True)
class EpochSnapshot:
    """One immutable published version of the oracle.

    ``index`` is any frozen :class:`~repro.api.protocol.DistanceOracle`
    snapshot — the store is oracle-agnostic.
    """

    epoch: int
    index: DistanceOracle
    published_at: float

    def distance(self, s: int, t: int) -> float:
        return self.index.distance(s, t)


class EpochStore:
    """Holds the current snapshot; swap is a pointer flip.

    ``current()`` is a bare attribute read (atomic in CPython), so readers
    pay no synchronisation.  ``publish`` is writer-side only.
    """

    def __init__(self, index: DistanceOracle) -> None:
        self._lock = threading.Lock()
        self._current = EpochSnapshot(0, index, time.monotonic())  # guarded-by: _lock

    def current(self) -> EpochSnapshot:
        return self._current  # reprolint: disable=LOCK001 -- lock-free by contract: readers take the whole immutable snapshot through one atomic reference read

    @property
    def epoch(self) -> int:
        return self._current.epoch  # reprolint: disable=LOCK001 -- same atomic reference read as current()

    def publish(self, index: DistanceOracle) -> EpochSnapshot:
        """Flip to ``index`` as the next epoch, then drop the store's
        reference to the previous one inside a ``release_epoch`` span:
        unless a reader still holds that snapshot, its views go here, and
        the writer's next freeze and pass can recycle what they pinned."""
        with self._lock:
            previous = self._current
            snapshot = EpochSnapshot(previous.epoch + 1, index, time.monotonic())
            self._current = snapshot  # the pointer flip readers see
        with span("release_epoch", epoch=previous.epoch):
            del previous
        _log.debug("epoch published", extra={"epoch": snapshot.epoch})
        return snapshot


class DistanceService:
    """Thread-safe online distance-query service over a dynamic graph.

    ``source`` may be a :class:`DynamicGraph` — the writer oracle is then
    built through :func:`repro.open_oracle` from the registry name in
    ``oracle`` (default ``"hcl"``) with ``oracle_config`` constructor
    options plus ``num_landmarks`` and ``landmarks`` where its
    constructor takes them (unset, the oracle's own defaults apply: 20
    landmarks on every highway cover index), and :meth:`close` closes it
    — or a prebuilt :class:`~repro.api.protocol.DistanceOracle` (taken
    over as the writer's live oracle — do not mutate it externally
    afterwards; it stays the caller's to close).  A prebuilt oracle is
    already configured, so passing any of those four options with one
    raises :class:`~repro.errors.OracleConfigError`.  Epoch snapshots are oracle-agnostic:
    directed writers coalesce per *arc* (``(u, v)`` and ``(v, u)`` stay
    distinct, and the query cache keeps ordered keys), weighted writers
    receive each flushed :class:`EdgeUpdate` as a unit-weight
    :class:`WeightUpdate` (insert = set weight 1, delete = remove), and a
    static oracle (``dynamic=False``, e.g. ``"pll"``) pays a full rebuild
    per flush.

    With ``background=True`` a daemon writer thread flushes whenever the
    policy's size or age trigger fires; otherwise flushes run inline on
    the submitting thread once a trigger is due (callers occasionally pay
    a repair — the amortisation the paper measures).  Either way, use the
    service as a context manager or call :meth:`close` to drain the last
    partial batch.

    A writer built on a worker-process pool (``oracle="hcl-sharded"``,
    with ``oracle_config={"num_shards": k}``) fans every flush out to
    that pool's landmark shards (:mod:`repro.parallel`) while readers
    keep answering in-process from the published epoch.

    The query cache clears on every epoch that applied an update, so
    every hit is exact; ``cache_mode`` accepts only ``"epoch"``, that
    rule's name.

    Vertex growth: an update whose endpoint is at or beyond the current
    vertex count is accepted when the writer oracle advertises
    ``dynamic`` (every dynamic oracle supports batch-driven growth) and
    the endpoint stays below ``current count + max_vertex_growth`` —
    the bound that keeps one stray huge client id from forcing a
    labelling allocation for millions of phantom vertices.  Static
    rebuild-per-flush writers reject growth with
    :class:`~repro.errors.CapabilityError`.  ``max_vertex_growth=None``
    removes the bound.
    """

    def __init__(
        self,
        source: "DynamicGraph | DistanceOracle",
        *,
        oracle: str | None = None,
        oracle_config: dict | None = None,
        num_landmarks: int | None = None,
        landmarks: tuple[int, ...] | None = None,
        variant: Variant | str = Variant.BHL_PLUS,
        policy: FlushPolicy | None = None,
        cache_capacity: int = 4096,
        cache_mode: str = "epoch",
        background: bool = False,
        max_vertex_growth: int | None = 1024,
    ) -> None:
        # Check every plain argument before a writer exists: a typo'd one
        # must fail at construction, not poison the first flush, and must
        # not leave a built writer's worker processes running.
        if cache_mode != "epoch":
            raise WorkloadError(
                f"cache_mode must be 'epoch', got {cache_mode!r}"
            )
        self._variant = resolve_variant(variant)
        if max_vertex_growth is not None and max_vertex_growth < 0:
            raise BatchError(
                f"max_vertex_growth must be >= 0 or None,"
                f" got {max_vertex_growth}"
            )
        self._max_vertex_growth = max_vertex_growth
        # The service closes the writer it builds, never a prebuilt one.
        self._owns_writer = isinstance(
            source, (DynamicGraph, DynamicDiGraph, WeightedDynamicGraph)
        )
        if self._owns_writer:
            oracle = oracle or "hcl"
            spec = oracle_spec(oracle)
            config = dict(oracle_config or {})
            # The landmark knobs stay as first-class service options but
            # only apply to oracles whose constructor takes them.
            if num_landmarks is not None and "num_landmarks" in spec.config_keys:
                config.setdefault("num_landmarks", num_landmarks)
            if landmarks is not None and "landmarks" in spec.config_keys:
                config.setdefault("landmarks", landmarks)
            writer = open_oracle(oracle, source, **config)
        elif isinstance(source, DistanceOracle):
            options = {
                "oracle": oracle, "oracle_config": oracle_config,
                "num_landmarks": num_landmarks, "landmarks": landmarks,
            }
            given = [name for name, value in options.items() if value is not None]
            if given:
                raise OracleConfigError(
                    f"{', '.join(given)} configure the oracle the service"
                    f" builds from a graph; the prebuilt"
                    f" {type(source).__name__} passed as source takes none"
                )
            writer = source
        else:
            raise IndexStateError(
                "DistanceService needs a DynamicGraph or a DistanceOracle,"
                f" got {type(source).__name__}"
            )
        writer_caps = getattr(type(writer), "capabilities", Capabilities())
        self._writer = writer
        self._directed = bool(writer_caps.directed)
        self._weighted = bool(writer_caps.weighted)
        self._accepts_growth = bool(writer_caps.dynamic)
        # The accept boundary validates against this count, not against a
        # live read of the writer's graph: it is republished under
        # self._wakeup at the end of every flush, so a submit racing a
        # flush that grows the graph sees either the old count (merely
        # conservative — growth is monotone) or the new one, never a
        # half-grown intermediate.
        self._vertex_count = writer.graph.num_vertices  # guarded-by: _wakeup
        try:
            self._epochs = EpochStore(self._writer.snapshot())
            self.scheduler = CoalescingScheduler(
                policy, directed=self._directed
            )
            self.cache = QueryCache(
                cache_capacity, symmetric=not self._directed
            )
        except BaseException:
            if self._owns_writer:
                writer.close()
            raise
        self.metrics = ServiceMetrics()
        # The cache and scheduler export their own tallies through the
        # service registry (callback-backed: zero hot-path cost), so one
        # --metrics-out file covers query/flush/cache/epoch/scheduler.
        self.cache.bind_metrics(self.metrics.registry)
        self.scheduler.bind_metrics(self.metrics.registry)
        _log.info(
            "service ready",
            extra={
                "writer": type(writer).__name__,
                "vertices": self._vertex_count,
                "background": background,
            },
        )
        self._writer_lock = threading.Lock()
        self._building = threading.Event()
        self._closed = False  # guarded-by: _wakeup
        self._writer_error: BaseException | None = None  # guarded-by: _wakeup
        self._wakeup = threading.Condition()
        self._thread: threading.Thread | None = None
        if background:
            self._thread = threading.Thread(
                target=self._writer_loop, name="distance-service-writer",
                daemon=True,
            )
            self._thread.start()

    # ------------------------------------------------------------------
    # read path (lock-free against the writer)
    # ------------------------------------------------------------------

    def distance(self, s: int, t: int) -> float:
        """Exact distance in the current epoch's graph."""
        started = time.perf_counter()
        snapshot = self._epochs.current()
        # Sampled right after the snapshot grab: if the writer is mid-
        # flush now, this answer comes from the epoch being superseded.
        # The flag is racy by one instruction at the flip, so the stale
        # counter is best-effort at epoch boundaries.
        stale = self._building.is_set()
        cached = self.cache.get(s, t)
        if cached is not None:
            value = cached
        else:
            value = snapshot.index.distance(s, t)
            self.cache.put(s, t, value, snapshot.epoch)
        self.metrics.record_query(
            time.perf_counter() - started, cached is not None, stale
        )
        return value

    def query(self, s: int, t: int) -> float:
        """Deprecated alias of :meth:`distance`."""
        import warnings

        warnings.warn(
            "DistanceService.query() is deprecated; use distance() instead",
            DeprecationWarning,
            stacklevel=2,
        )
        return self.distance(s, t)

    def current_snapshot(self) -> EpochSnapshot:
        return self._epochs.current()

    @property
    def epoch(self) -> int:
        return self._epochs.epoch

    @property
    def pending_updates(self) -> int:
        return len(self.scheduler)

    # ------------------------------------------------------------------
    # write path (single logical writer)
    # ------------------------------------------------------------------

    def _check_accepting_locked(self) -> None:
        """Raise unless the service currently accepts updates.

        Caller holds ``self._wakeup``."""
        if self._closed:
            raise IndexStateError("service is closed")
        if self._writer_error is not None:
            raise IndexStateError(
                "service writer failed; no further updates are accepted"
            ) from self._writer_error

    def _validate_update_locked(self, update: EdgeUpdate) -> None:
        """The accept decision for one update.  Caller holds ``self._wakeup``.

        Endpoints below the current vertex count always pass (EdgeUpdate
        construction already rejected negatives).  Growing endpoints pass
        only on a growth-capable (``dynamic``) writer and only within
        ``max_vertex_growth`` of the current count — the growth a single
        flush may allocate is bounded even if every buffered update
        stretches to the limit.
        """
        n = self._vertex_count
        highest = max(update.u, update.v)
        if highest < n:
            return
        if not self._accepts_growth:
            raise CapabilityError(
                f"invalid update ({update.u}, {update.v}): vertex ids must"
                f" be in 0..{n - 1} — the writer oracle"
                f" ({type(self._writer).__name__}) is static and cannot"
                " grow the vertex set"
            )
        limit = (
            None
            if self._max_vertex_growth is None
            else n + self._max_vertex_growth
        )
        if limit is not None and highest >= limit:
            raise BatchError(
                f"invalid update ({update.u}, {update.v}): endpoint"
                f" {highest} exceeds the growth bound {limit - 1}"
                f" (current vertices 0..{n - 1},"
                f" max_vertex_growth={self._max_vertex_growth})"
            )

    def submit(self, update: EdgeUpdate) -> None:
        """Buffer one edge update; it becomes visible after the next flush.

        Malformed updates are rejected here, at the accept boundary — one
        bad update must not poison a whole flushed batch later.  The
        whole accept decision (closed-check, vertex-range/growth
        validation, buffer insert) happens under one lock, so an accepted
        update is always either flushed by a trigger or drained by
        ``close()``, and validation never races a flush that grows the
        graph.
        """
        with self._wakeup:
            self._check_accepting_locked()
            self._validate_update_locked(update)
            coalesced = self.scheduler.offer(update)
            if self._thread is not None:
                self._wakeup.notify()
        self.metrics.record_submit(coalesced)
        if self._thread is None:
            trigger = self.scheduler.due()
            if trigger is not None:
                self.flush(trigger)

    def submit_many(self, updates: Iterable[EdgeUpdate]) -> None:
        """Buffer a sequence of updates under one lock acquisition.

        All-or-nothing at the accept boundary: every update is validated
        against the same vertex count before any is offered, so a
        malformed update rejects the whole call and leaves the buffer
        untouched.  Foreground flush triggers are evaluated once, after
        the batch is buffered, instead of once per update.
        """
        updates = list(updates)
        if not updates:
            return  # no-op, even on a closed/poisoned service (as before)
        coalesced_flags = []
        with self._wakeup:
            self._check_accepting_locked()
            for update in updates:
                self._validate_update_locked(update)
            for update in updates:
                coalesced_flags.append(self.scheduler.offer(update))
            if self._thread is not None and updates:
                self._wakeup.notify()
        for coalesced in coalesced_flags:
            self.metrics.record_submit(coalesced)
        if self._thread is None and updates:
            trigger = self.scheduler.due()
            if trigger is not None:
                self.flush(trigger)

    def insert_edge(self, u: int, v: int) -> None:
        self.submit(EdgeUpdate.insert(u, v))

    def delete_edge(self, u: int, v: int) -> None:
        self.submit(EdgeUpdate.delete(u, v))

    def flush(
        self, trigger: FlushTrigger = FlushTrigger.MANUAL
    ) -> UpdateStats | None:
        """Drain the buffer, repair the labelling, publish a new epoch.

        Returns the batch's :class:`UpdateStats`, or None if the buffer
        was empty.  Concurrent callers serialise on the writer lock; the
        loser finds an empty buffer and returns immediately.
        """
        with self._writer_lock:
            batch = self.scheduler.drain()
            if not batch:
                return None
            started = time.perf_counter()
            self._building.set()
            try:
                with profile_section("flush"), span(
                    "flush", trigger=trigger.value, batch=len(batch)
                ):
                    with span("batch_update"):
                        if self._weighted:
                            # The weighted oracle speaks WeightUpdate:
                            # an unweighted serving stream maps insert ->
                            # set weight 1, delete -> remove.
                            batch_out = [
                                WeightUpdate(
                                    u.u, u.v, None if u.is_delete else 1
                                )
                                for u in batch
                            ]
                        else:
                            batch_out = batch
                        stats = self._writer.batch_update(
                            batch_out, variant=self._variant
                        )
                    with self._wakeup:
                        # Republish the accept boundary's vertex count now
                        # that the batch (and any growth it carried) is
                        # fully applied — submitters validating concurrently
                        # saw the old count, which growth keeps conservative.
                        self._vertex_count = self._writer.graph.num_vertices
                    if stats.n_applied:
                        # Invalidate BEFORE the pointer flip: a reader that
                        # already holds the new snapshot must never get a hit
                        # cached under the old epoch.  Readers still on the
                        # old snapshot have their puts fenced off by the
                        # epoch tag — conservative, never stale.
                        next_epoch = self._epochs.epoch + 1
                        with span("invalidate_cache"):
                            self.cache.on_epoch(
                                stats.affected_vertices, next_epoch
                            )
                        with span("publish_epoch"):
                            with span("snapshot"):
                                published = self._writer.snapshot()
                            self._epochs.publish(published)
                        self.metrics.record_publish(next_epoch)
            except BaseException as exc:
                # Anywhere this fails — mid-repair (graph mutated before
                # the labelling is repaired), snapshotting, publishing —
                # the writer state is suspect.  Poison the service so
                # nothing ever publishes from it (readers keep the last
                # good epoch, writes start raising), then let the caller
                # see the failure.
                with self._wakeup:
                    self._writer_error = exc
                _log.error(
                    "flush failed; service poisoned",
                    extra={"trigger": trigger.value, "batch": len(batch)},
                    exc_info=True,
                )
                raise
            finally:
                self._building.clear()
            seconds = time.perf_counter() - started
            self.metrics.record_flush(
                seconds, len(batch), stats.n_applied, trigger.value
            )
            _log.debug(
                "flush complete",
                extra={
                    "trigger": trigger.value,
                    "batch": len(batch),
                    "applied": stats.n_applied,
                    "epoch": self._epochs.epoch,
                    "seconds": round(seconds, 6),
                    "search_s": round(stats.search_seconds, 6),
                    "repair_s": round(stats.repair_seconds, 6),
                },
            )
            return stats

    # ------------------------------------------------------------------
    # background writer
    # ------------------------------------------------------------------

    def _writer_loop(self) -> None:
        while True:
            with self._wakeup:
                if self._closed:
                    return
                trigger = self.scheduler.due()
                if trigger is None:
                    # Sleep until a submit notifies us or the age budget
                    # of the oldest buffered update runs out.  The wait is
                    # always bounded: with an empty buffer time_until_due()
                    # is None, and an uncapped wait would hang the writer
                    # forever if a notify were ever lost (e.g. a submit
                    # racing close()); re-checking the predicate every
                    # _WRITER_WAIT_CAP seconds costs nothing measurable.
                    timeout = self.scheduler.time_until_due()
                    if timeout is None or timeout > _WRITER_WAIT_CAP:
                        timeout = _WRITER_WAIT_CAP
                    self._wakeup.wait(timeout)
                    continue
            try:
                self.flush(trigger)
            except BaseException:
                # flush() already parked the error for submit()/close()
                # to raise; the writer thread just stops.
                return

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self, flush_pending: bool = True) -> None:
        """Stop the writer thread and (by default) drain the last batch.

        Raises the parked writer error, if any — a background flush
        failure must surface somewhere."""
        with self._wakeup:
            if self._closed:
                return
            self._closed = True
            self._wakeup.notify_all()
        if self._thread is not None:
            self._thread.join()
        # Re-read the parked error under the lock: a foreground flush on
        # another thread may have poisoned the service between our
        # closed-flag write and this point.
        with self._wakeup:
            writer_error = self._writer_error
        try:
            if writer_error is not None:
                raise IndexStateError(
                    "service writer failed"
                ) from writer_error
            if flush_pending:
                self.flush(FlushTrigger.CLOSE)
        finally:
            # After the final drain, close a writer this service built:
            # an hcl-sharded writer's workers and shared-memory blocks go
            # here, not at interpreter exit.
            if self._owns_writer:
                self._writer.close()

    def __enter__(self) -> "DistanceService":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()

    def __repr__(self) -> str:
        snapshot = self._epochs.current()
        return (
            f"DistanceService(epoch={snapshot.epoch},"
            f" |V|={snapshot.index.graph.num_vertices},"
            f" pending={self.pending_updates},"
            f" closed={self._closed})"  # reprolint: disable=LOCK001 -- repr is informational; a torn read cannot corrupt state
        )
