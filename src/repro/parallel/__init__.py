"""Sharded landmark-parallel execution backend.

The paper's Section 6 observation — per-landmark searches and repairs
write disjoint label columns — makes batch maintenance embarrassingly
parallel across landmarks.  This package turns that into a real
multiprocess backend for CPython, where threads cannot help (the search
and repair kernels are pure Python and GIL-bound):

* :mod:`~repro.parallel.snapshot` — the shared-memory (graph,
  labelling) state workers attach to across batches;
* :mod:`~repro.parallel.worker` — the picklable shard task bodies
  (batch search + repair, and BFS construction, per landmark shard);
* :mod:`~repro.parallel.pool` — :class:`LandmarkShardPool`, a persistent
  worker-process pool reused across batches.

A :class:`~repro.core.index.HighwayCoverIndex` built with ``pool=`` (the
``hcl-sharded`` registry entry) runs its construction and updates on
that pool; that is the only way onto the processes backend.
"""

from repro.parallel.pool import (
    LandmarkShardPool,
    default_num_shards,
    partition_landmarks,
)

__all__ = [
    "LandmarkShardPool",
    "default_num_shards",
    "partition_landmarks",
]
