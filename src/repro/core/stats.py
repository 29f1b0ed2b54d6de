"""Instrumentation records emitted by index updates.

These are what the paper's evaluation measures: per-phase times (batch
search vs batch repair), the number of affected vertices per landmark
(Figure 2, Table 5), and the landmark-parallel makespan for BHLp.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ShardTiming:
    """Wall-clock breakdown of one execution shard of a (sub-)batch.

    Populated by both backends so their cost models line up: a
    sequential run emits one timing per landmark (the paper's idealised
    one-core-per-landmark machine), on every highway cover index, and
    the processes backend one per worker shard.  ``wall_seconds`` is
    the shard's elapsed time and may exceed ``search + repair`` (the
    read of old distances and serialisation overhead live there); the
    batch makespan is the max of the shard walls.
    """

    shard: int
    #: number of landmarks this shard processed.
    num_landmarks: int
    search_seconds: float
    repair_seconds: float
    wall_seconds: float


@dataclass
class UpdateStats:
    """Outcome of one ``batch_update`` call on an index."""

    variant: str
    n_requested: int = 0
    n_applied: int = 0
    n_insertions: int = 0
    n_deletions: int = 0
    #: |V_aff(r)| per landmark, accumulated across sub-batches/unit updates.
    affected_per_landmark: list[int] = field(default_factory=list)
    #: Union over landmarks of the affected vertex sets, plus the endpoints
    #: of every applied update — the vertices whose labels (or incident
    #: edges) this batch may have touched.
    affected_vertices: set[int] = field(default_factory=set)
    #: summed per-landmark kernel times; the read of old distances that
    #: precedes each landmark's search is in ``ShardTiming.wall_seconds``
    #: only.
    search_seconds: float = 0.0
    repair_seconds: float = 0.0
    #: writer-side time spent scattering shard results back into the
    #: labelling (processes backend only; 0 in process, where repairs
    #: write the shared matrix directly).
    merge_seconds: float = 0.0
    total_seconds: float = 0.0
    #: per-shard timing breakdown of the highway cover indexes: one
    #: entry per landmark in-process, one per worker shard for the
    #: processes backend; empty when no sub-batch ran.
    shard_timings: list[ShardTiming] = field(default_factory=list)
    #: max over shards of per-shard wall time — what a machine with one
    #: core per shard would pay — summed over sub-batches.  Sequential
    #: runs give the paper's BHLp model (shard == landmark), the
    #: processes backend real worker wall times; None when no sub-batch
    #: ran.
    makespan_seconds: float | None = None
    #: number of label/highway cells actually rewritten by repair.
    labels_changed: int = 0

    @property
    def total_affected(self) -> int:
        """Sum over landmarks of affected-set sizes (the paper's metric)."""
        return sum(self.affected_per_landmark)

    def merge(self, other: "UpdateStats") -> None:
        """Accumulate a sub-batch/unit-update result into this record."""
        self.n_requested += other.n_requested
        self.n_applied += other.n_applied
        self.n_insertions += other.n_insertions
        self.n_deletions += other.n_deletions
        if not self.affected_per_landmark:
            self.affected_per_landmark = [0] * len(other.affected_per_landmark)
        for i, count in enumerate(other.affected_per_landmark):
            self.affected_per_landmark[i] += count
        self.affected_vertices |= other.affected_vertices
        self.search_seconds += other.search_seconds
        self.repair_seconds += other.repair_seconds
        self.merge_seconds += other.merge_seconds
        self.total_seconds += other.total_seconds
        self.shard_timings.extend(other.shard_timings)
        self.labels_changed += other.labels_changed
        if other.makespan_seconds is not None:
            self.makespan_seconds = (
                self.makespan_seconds or 0.0
            ) + other.makespan_seconds
