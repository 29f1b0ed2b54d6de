"""BatchHL orchestration — Algorithm 1 and its variants.

``run_batch_update`` normalises a batch against the current graph, applies
it, and then — per labelling and per landmark — runs batch search
(Algorithm 2 or 3) followed by batch repair (Algorithm 4) into a private
twin of that labelling.  The twin is essential: every landmark's search
reads *old* distances, column i of the old labelling's landmark-distance
matrix D, so repairs for earlier landmarks must not leak into later
searches (this is also what makes landmark-level parallelism safe: labels
and D columns for different landmarks are disjoint, Section 6), and the
old labelling may be published.  The kernels read that old state in
place, through an O(1) reader that evaluates the Lemma 5.14 flags only at
the vertices they touch, and repair scatters the affected vertices' new
distances into the twin's D column, so a landmark costs work proportional
to its affected region: no decode of Γ, and no O(V) pass over its column
unless its search grows wide enough for the vector phase, which reads
the column and the flags once.  The twin costs as little: it is the
labelling's recycled back pair, the arrays of the labelling before it
with the cells the previous pass wrote copied over
(:meth:`~repro.core.labelling.HighwayCoverLabelling.repair_target`),
and a full copy only when a reader still holds them.

The driver serves both highway cover indexes.  An undirected graph has one
labelling and one *pass* over G' that tries each update in both
orientations.  A digraph has two (Section 6): the forward pass searches
the out-rows with the updates as given, the backward pass searches the
in-rows with every update reversed, and each uses the other's rows as
repair predecessors.  Both share normalisation, growth, the variant plan,
the freeze rule, rollback, spans and phase metrics.

Every landmark runs through :func:`run_passes`, the one loop that all
three highway cover indexes share: repair target, per-landmark search
and repair, timings, the ``process_landmarks`` span, the phase counters
and the back pair.  What differs per graph kind is the pass list and the
:data:`Kernels` pair it is given.  This driver passes
:func:`~repro.core.batch_kernels.batch_search_adaptive` and
:func:`~repro.core.batch_kernels.batch_repair_adaptive`
(:func:`edge_kernels`), whatever the batch size; the weighted index
passes its Dijkstra kernels and one pass over its live graph
(:mod:`repro.core.weighted`).  Only the graph the edge kernels read
differs: a sub-batch of more than one update, or any sub-batch on the
processes backend, reads the graph's own
:class:`~repro.graph.csr.CSRGraph` rows, which every pass and landmark
shares and which the graph writes only where the last two batches wrote
(:mod:`repro.graph.csr_rows`); a unit sub-batch run in process skips
even that, and the kernels read the live graph.

Variants (Section 7.1):

* ``BHL``    — Algorithm 2 search, whole batch at once;
* ``BHL+``   — Algorithm 3 search, whole batch at once;
* ``BHL-s``  — split into an insertion sub-batch then a deletion sub-batch,
  each processed by BHL (the paper's ablation showing why unification wins);
* ``UHL``  / ``UHL+`` — unit-update setting: each update processed as its
  own batch (the single-update baseline the paper compares against).

Parallelism: by default the landmarks of a pass run in process, one
after another, and report one timing per landmark and pass and the
makespan ``max_r t(r)`` that the paper's one-core-per-landmark BHLp
would pay.  Given a ``pool``, a
:class:`~repro.parallel.pool.LandmarkShardPool`, the driver ships
landmark shards to its persistent worker processes instead, on
undirected graphs only, and reports one timing per shard; an index
built on a pool passes its own.
"""

from __future__ import annotations

import enum
import functools
import time
from typing import Any, Callable, Iterable

import numpy as np

from repro.core.batch_kernels import (
    batch_repair_adaptive,
    batch_search_adaptive,
)
from repro.core.batch_search import orient_updates
from repro.core.labelling import HighwayCoverLabelling
from repro.core.stats import ShardTiming, UpdateStats
from repro.errors import BatchError
from repro.graph.batch import Batch, apply_batch, normalize_batch, revert_batch
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer

#: One pass over G': ``(search rows, predecessor rows or None, updates)``,
#: where the updates are whatever the pass's search kernel seeds from.
Pass = tuple[Any, Any, Any]

#: A search and repair kernel pair, as :func:`process_one_landmark` calls
#: it: ``search(rows, updates, dist, flag, is_landmark)`` returns the
#: affected vertices, and ``repair(rows, affected, i, labelling_new,
#: dist, flag, is_landmark, pred_graph=pred_rows)`` the number of cells
#: changed.
Kernels = tuple[Callable[..., list[int]], Callable[..., int]]


def _record_phase_metrics(stats: UpdateStats, backend: str) -> None:
    """Batch search/repair phase totals into the process-global registry.

    One registry write per (sub-)batch, not per landmark — the label
    carries the execution backend so a mixed deployment's sequential and
    sharded costs stay distinguishable.
    """
    registry = get_registry()
    registry.counter(
        "repro_batch_search_seconds_total",
        "summed per-landmark batch-search time",
        ("backend",),
    ).labels(backend=backend).inc(stats.search_seconds)
    registry.counter(
        "repro_batch_repair_seconds_total",
        "summed per-landmark batch-repair time",
        ("backend",),
    ).labels(backend=backend).inc(stats.repair_seconds)
    registry.counter(
        "repro_batch_affected_total",
        "summed |V_aff(r)| over landmarks (the paper's affected metric)",
        ("backend",),
    ).labels(backend=backend).inc(stats.total_affected)
    registry.counter(
        "repro_batch_labels_changed_total",
        "label/highway cells rewritten by repair",
        ("backend",),
    ).labels(backend=backend).inc(stats.labels_changed)
    registry.counter(
        "repro_batches_applied_total",
        "sub-batches run through search+repair",
        ("backend",),
    ).labels(backend=backend).inc()


class Variant(enum.Enum):
    """Update-processing strategies evaluated in the paper."""

    BHL = "bhl"
    BHL_PLUS = "bhl+"
    BHL_SPLIT = "bhl-s"
    UHL = "uhl"
    UHL_PLUS = "uhl+"

    @property
    def improved(self) -> bool:
        """Does this variant use Algorithm 3 (improved search)?"""
        return self in (Variant.BHL_PLUS, Variant.UHL_PLUS)

    @property
    def unit(self) -> bool:
        """Does this variant process updates one at a time?"""
        return self in (Variant.UHL, Variant.UHL_PLUS)


def resolve_variant(variant: "Variant | str") -> Variant:
    if isinstance(variant, Variant):
        return variant
    try:
        return Variant(variant)
    except ValueError as exc:
        valid = ", ".join(v.value for v in Variant)
        raise BatchError(
            f"unknown variant {variant!r}; expected one of {valid}"
        ) from exc


def variant_plan(batch: Batch, variant: Variant) -> list[tuple[Batch, bool]]:
    """Decompose a normalised batch into (sub-batch, improved?) steps.

    The sub-batches are applied strictly in order, each against the graph
    state left by the previous one — exactly how the paper describes BHLs
    and the unit-update baselines.
    """
    if variant.unit:
        return [(Batch([update]), variant.improved) for update in batch]
    if variant is Variant.BHL_SPLIT:
        return [
            (sub, False)
            for sub in (batch.insertions, batch.deletions)
            if len(sub)
        ]
    return [(batch, variant.improved)] if len(batch) else []


def run_batch_update(
    graph: Any,
    labellings: tuple[HighwayCoverLabelling, ...],
    updates: Iterable[Any],
    variant: "Variant | str" = Variant.BHL_PLUS,
    pool: Any = None,
) -> tuple[tuple[HighwayCoverLabelling, ...], UpdateStats]:
    """Normalise, apply, and reflect ``updates`` into new labellings.

    ``labellings`` is ``(labelling,)`` on an undirected ``graph`` and
    ``(forward, backward)`` on a
    :class:`~repro.graph.digraph.DynamicDiGraph`.  Mutates ``graph`` (it
    ends as G'); returns the repaired labellings, in the same order, and
    the update statistics.  The input labellings are grown to cover new
    vertices but never repaired.

    With ``pool``, a :class:`~repro.parallel.pool.LandmarkShardPool`
    whose workers persist across batches, every pass runs on the
    processes backend; that backend is undirected-only.
    """
    variant = resolve_variant(variant)
    directed = len(labellings) == 2
    if directed and pool is not None:
        raise BatchError("the processes backend is undirected-only")
    updates = list(updates)
    stats = UpdateStats(variant=variant.value, n_requested=len(updates))
    stats.affected_per_landmark = [0] * labellings[0].num_landmarks
    batch = normalize_batch(updates, graph, directed=directed)
    started = time.perf_counter()

    # Grow once for the whole batch, not once per sub-batch: every grow
    # reallocates the full (V, R) label matrix, so a UHL/BHL-s plan that
    # splits a growing batch into unit sub-batches would otherwise copy
    # the labels O(batch) times.  New vertices stay isolated until their
    # insertions apply, so pre-growing changes no distance.
    if len(batch):
        highest = max(max(u.u, u.v) for u in batch)
        if highest >= graph.num_vertices:
            graph.ensure_vertex(highest)
            for labelling in labellings:
                labelling.grow(graph.num_vertices)

    current = labellings
    applied: list[Batch] = []
    try:
        for sub_batch, improved in variant_plan(batch, variant):
            current, sub_stats = _apply_one_batch(
                graph, current, sub_batch, improved, pool
            )
            applied.append(sub_batch)
            stats.merge(sub_stats)
    except BaseException:
        # _apply_one_batch reverts its own failing sub-batch; earlier
        # sub-batches (unit updates, the BHL-s insert half) were applied
        # to the graph but their repaired labellings never reach the
        # caller, so undo them too — in reverse — to leave (graph,
        # labellings) describing the same topology as before the call.
        for done in reversed(applied):
            revert_batch(graph, done)
        # Vertices grown up front for the batch are kept (isolated), and
        # the caller's labellings were grown alongside them — (graph,
        # labellings) still describe the same vertex set.  The grow here
        # is a no-op safety net for direct _apply_one_batch callers.
        for labelling in labellings:
            labelling.grow(graph.num_vertices)
        raise

    stats.n_requested = len(updates)
    stats.total_seconds = time.perf_counter() - started
    stats.variant = variant.value
    return current, stats


def _pass_plan(
    graph: Any, batch: Batch, directed: bool, pool: Any
) -> list[Pass]:
    """One ``(search rows, predecessor rows, oriented updates)`` per pass,
    as the module docstring lays them out; predecessor rows of None mean
    the search rows themselves.

    G' is frozen once per multi-update sub-batch: every pass and landmark
    reads the same frozen CSR arrays (so the kernels can switch to
    their vector phase), and the processes backend ships them directly.
    The graph owns that view and writes only the rows of its last two
    batches into recycled row buffers, so the freeze costs O(batch)
    work.  Unit sub-batches run in process skip even that — their cost
    is proportional to the affected region, not the graph — and the
    kernels read the live adjacency.
    """
    rows: tuple[Any, ...] = (
        (graph.out_view(), graph.in_view()) if directed else (graph,)
    )
    if pool is not None or len(batch) > 1:
        rows = graph.csr() if directed else (graph.csr(),)
    if not directed:
        return [(rows[0], None, orient_updates(batch))]
    out_rows, in_rows = rows
    forward = orient_updates(batch, directed=True)
    backward = [(head, tail, is_delete) for tail, head, is_delete in forward]
    return [(out_rows, in_rows, forward), (in_rows, out_rows, backward)]


def edge_kernels(improved: bool, symmetric_highway: bool = True) -> Kernels:
    """The adaptive edge-update kernels as a :data:`Kernels` pair.

    ``improved`` picks Algorithm 3 over Algorithm 2 for the search;
    ``symmetric_highway`` is False on a directed pass, whose repair
    writes highway row i only.  The pair is made per batch from the
    kernels this module names at that moment, so a kernel rebound here
    (a test's fault, a profiler's shim) is the one every landmark runs.
    """
    return (
        functools.partial(batch_search_adaptive, improved=improved),
        functools.partial(
            batch_repair_adaptive, symmetric_highway=symmetric_highway
        ),
    )


def _apply_one_batch(
    graph: Any,
    labellings: tuple[HighwayCoverLabelling, ...],
    batch: Batch,
    improved: bool,
    pool: Any = None,
) -> tuple[tuple[HighwayCoverLabelling, ...], UpdateStats]:
    """Apply one normalised (sub-)batch: mutate graph, then search +
    repair one pass per labelling, on ``pool`` when one is given.

    Vertex growth already happened, once for the whole batch, in
    :func:`run_batch_update` — graph and labellings cover every endpoint
    this sub-batch references.
    """
    stats = UpdateStats(variant="", n_applied=len(batch))
    stats.n_insertions = len(batch.insertions)
    stats.n_deletions = len(batch.deletions)
    stats.affected_per_landmark = [0] * labellings[0].num_landmarks
    if not len(batch):
        return labellings, stats

    apply_batch(graph, batch)  # graph is now G'

    directed = len(labellings) == 2
    try:
        # Everything after apply_batch sits inside the try: a failure in
        # making a repair target (MemoryError copying a large labelling)
        # must revert the edge mutations just like a worker-pool failure
        # mid-repair.
        repaired = run_passes(
            labellings,
            _pass_plan(graph, batch, directed, pool),
            edge_kernels(improved, symmetric_highway=not directed),
            stats,
            run_shards=(
                None
                if pool is None
                else functools.partial(pool.run_update, improved=improved)
            ),
        )
    except BaseException:
        # The graph is already G' but no labelling was replaced —
        # realistic with worker processes (a killed worker raises
        # BrokenProcessPool).  Undo the edge mutations so the caller's
        # (graph, labellings) stay consistent; vertices grown above
        # remain as isolated vertices, which the grown labellings already
        # describe correctly.
        revert_batch(graph, batch)
        raise
    for update in batch:
        stats.affected_vertices.add(update.u)
        stats.affected_vertices.add(update.v)
    return repaired, stats


def run_passes(
    labellings: tuple[HighwayCoverLabelling, ...],
    passes: list[Pass],
    kernels: Kernels,
    stats: UpdateStats,
    run_shards: Callable[..., Any] | None = None,
) -> tuple[HighwayCoverLabelling, ...]:
    """Search + repair every landmark of every pass, one pass per
    labelling, and return the repaired labellings in the same order.

    The graph is already G', and ``stats.n_applied`` its applied-update
    count.  Each pass repairs into its labelling's
    :meth:`~repro.core.labelling.HighwayCoverLabelling.repair_target`
    and records the cells it wrote as the back pair; per-landmark
    outcomes, timings and the makespan accumulate in ``stats``, each pass
    runs in one ``process_landmarks`` span, and the ``repro_batch_*``
    counters take the totals once every pass succeeded.  A pass that
    raises leaves the input labellings' arrays as they were (without a
    back pair, so the next pass copies); undoing the graph change is the
    caller's part.

    In process, :func:`process_landmarks` runs the landmarks one after
    another with ``kernels``.  ``run_shards``, when given, runs each pass
    on the processes backend instead: ``run_shards(rows, labelling_old,
    labelling_new, oriented)`` returns what :func:`process_landmarks`
    does.
    """
    backend = "sequential" if run_shards is None else "processes"
    tracer = get_tracer()
    stats.makespan_seconds = 0.0
    repaired: list[HighwayCoverLabelling] = []
    for labelling, (rows, pred_rows, oriented) in zip(labellings, passes):
        labelling_new = labelling.repair_target()
        phases_started = tracer.now_us() if tracer.enabled else 0
        with tracer.span(
            "process_landmarks",
            landmarks=labelling.num_landmarks,
            backend=backend,
            batch=stats.n_applied,
        ) as phases_span:
            if run_shards is None:
                outcomes, makespan, shard_timings, merge_seconds = (
                    process_landmarks(
                        rows,
                        pred_rows,
                        labelling,
                        labelling_new,
                        oriented,
                        kernels,
                    )
                )
            else:
                outcomes, makespan, shard_timings, merge_seconds = (
                    run_shards(rows, labelling, labelling_new, oriented)
                )
        if phases_span is not None and run_shards is None:
            _trace_phase_children(
                tracer, phases_span, phases_started, shard_timings, backend
            )
        for i, (n_affected, search_s, repair_s, changed, touched) in (
            enumerate(outcomes)
        ):
            stats.affected_per_landmark[i] += n_affected
            stats.affected_vertices.update(touched)
            stats.search_seconds += search_s
            stats.repair_seconds += repair_s
            stats.labels_changed += changed
        stats.shard_timings.extend(shard_timings)
        stats.merge_seconds += merge_seconds
        stats.makespan_seconds += makespan
        labelling_new.set_back_pair(
            labelling, [outcome[4] for outcome in outcomes]
        )
        repaired.append(labelling_new)
    _record_phase_metrics(stats, backend)
    return tuple(repaired)


def _trace_phase_children(
    tracer: Any,
    parent: Any,
    started_us: float,
    shard_timings: list[ShardTiming],
    backend: str,
) -> None:
    """Aggregate outside-kernel, search and repair children of one pass's
    span.

    In-process backends have no per-shard tracks (the pool synthesizes
    those for the processes backend from ShardTiming); one child per
    phase, in the order each landmark runs them, still shows where the
    pass's wall time went.  The ``outside_kernels`` child is whatever of
    each landmark's wall its search and repair did not take: opening the
    O(1) reader of the old landmark state, plus the timers themselves.
    """
    outside_us = 1e6 * sum(
        t.wall_seconds - t.search_seconds - t.repair_seconds
        for t in shard_timings
    )
    search_us = 1e6 * sum(t.search_seconds for t in shard_timings)
    repair_us = 1e6 * sum(t.repair_seconds for t in shard_timings)
    for name, start_us, duration_us in (
        ("outside_kernels", started_us, outside_us),
        ("search", started_us + outside_us, search_us),
        ("repair", started_us + outside_us + search_us, repair_us),
    ):
        tracer.record_complete(
            name,
            start_us,
            duration_us,
            parent_id=parent.span_id,
            backend=backend,
        )


def changed_entries(
    old_matrix: np.ndarray,
    new_column: np.ndarray,
    landmark_idx: int,
    affected: Iterable[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Sparse change set of one landmark's repair: ``(vertices, values)``.

    ``old_matrix`` is the pre-repair label matrix or D.  Exact, not
    approximate: both repair kernels write landmark ``landmark_idx``'s
    label and D columns only at affected rows (Algorithm 4 settles
    exactly the affected set; unaffected vertices keep their landmark
    distance by Lemma 5.15), so diffing ``new_column`` against the
    pre-repair matrix restricted to ``affected`` recovers every rewritten
    cell in O(affected) — this is what lets the processes backend ship
    change sets instead of whole columns.
    """
    if not len(affected):
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    members = np.asarray(affected, dtype=np.int64)
    new_vals = new_column[members]
    mask = new_vals != old_matrix[members, landmark_idx]
    return members[mask], new_vals[mask]


def process_one_landmark(
    rows: Any,
    pred_rows: Any,
    labelling_old: HighwayCoverLabelling,
    labelling_new: Any,
    oriented: Any,
    i: int,
    kernels: Kernels,
) -> tuple[int, float, float, int, list[int], float]:
    """Read old distances + search + repair for one landmark — the unit of
    landmark parallelism.

    Shared by the in-process loop below and the worker-process shard
    tasks (:mod:`repro.parallel.worker`), so the kernel call contract
    lives in exactly one place: the kernels read ``(old_dist, old_flag)``
    in place from the old labelling
    (:meth:`~repro.core.labelling.HighwayCoverLabelling.landmark_lengths`:
    a read-only view of D's column i and flags evaluated where read), and
    repair writes labels, highway and D column i of ``labelling_new``.
    ``rows`` is G', frozen or live (see :mod:`repro.core.batch_kernels`);
    ``pred_rows`` carries the reverse direction for directed repair.
    Returns ``(n_affected, search_seconds, repair_seconds, cells_changed,
    affected_vertices, wall_seconds)``; opening the O(1) reader is in the
    wall time only.
    """
    search, repair = kernels
    t0 = time.perf_counter()
    dist, flag = labelling_old.landmark_lengths(i)
    is_landmark = labelling_old.is_landmark
    t1 = time.perf_counter()
    affected = search(rows, oriented, dist, flag, is_landmark)
    t2 = time.perf_counter()
    changed = repair(
        rows,
        affected,
        i,
        labelling_new,
        dist,
        flag,
        is_landmark,
        pred_graph=pred_rows,
    )
    t3 = time.perf_counter()
    return len(affected), t2 - t1, t3 - t2, changed, affected, t3 - t0


def process_landmarks(
    rows: Any,
    pred_rows: Any,
    labelling_old: HighwayCoverLabelling,
    labelling_new: HighwayCoverLabelling,
    oriented: Any,
    kernels: Kernels,
) -> tuple[
    list[tuple[int, float, float, int, list[int]]],
    float,
    list[ShardTiming],
    float,
]:
    """Run one pass in process: search + repair for every landmark over
    G', one landmark after another.

    ``rows`` holds the pass's search rows of G', frozen
    :class:`~repro.graph.csr.CSRGraph` rows or the live graph;
    ``pred_rows`` provides predecessor neighbourhoods for repair's
    boundary bounds (the other half of a directed pair; None means same
    as ``rows``).  Returns per-landmark ``(n_affected, search_seconds,
    repair_seconds, cells_changed, affected_vertices)``, the makespan,
    one :class:`ShardTiming` per landmark, and a merge time of 0 (repair
    writes ``labelling_new`` directly).
    """
    raw = [
        process_one_landmark(
            rows, pred_rows, labelling_old, labelling_new, oriented, i, kernels
        )
        for i in range(labelling_old.num_landmarks)
    ]
    outcomes = [(n, s, r, c, a) for (n, s, r, c, a, _) in raw]
    # One timing entry per landmark; their max is the paper's
    # one-core-per-landmark cost model.
    makespan = max((t for (*_, t) in raw), default=0.0)
    shard_timings = [
        ShardTiming(
            shard=i,
            num_landmarks=1,
            search_seconds=s,
            repair_seconds=r,
            wall_seconds=t,
        )
        for i, (_, s, r, _, _, t) in enumerate(raw)
    ]
    return outcomes, makespan, shard_timings, 0.0
