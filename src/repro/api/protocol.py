"""The unified :class:`DistanceOracle` protocol and its shared base class.

Every distance index in this reproduction — the highway cover family and
the paper's baselines — speaks one API:

* ``distance(s, t)`` — exact distance, ``float('inf')`` when disconnected;
* ``distances(pairs)`` — batched queries, one value per pair, in order;
* ``batch_update(updates) -> UpdateStats`` — apply a batch of updates
  (static oracles rebuild from scratch and advertise ``dynamic=False``);
* ``snapshot()`` — a frozen copy for lock-free concurrent reads;
* ``serialize(path)`` — persistence, where ``serializable`` is advertised;
* ``stats()`` — size/shape introspection;
* ``close()`` / context manager — release maintenance resources.

What an oracle can actually do is declared in a :class:`Capabilities`
record; :func:`repro.api.registry.open_oracle` validates the requested
workload against it so misuse fails with a typed error instead of an
``AttributeError`` three layers down.

``query(s, t)`` remains as a thin deprecated alias of ``distance`` — it
emits :class:`DeprecationWarning` and will be removed.
"""

from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass, fields
from typing import (
    TYPE_CHECKING,
    Any,
    ClassVar,
    Iterable,
    Protocol,
    runtime_checkable,
)

from repro.errors import CapabilityError, IndexStateError

if TYPE_CHECKING:  # pragma: no cover
    from pathlib import Path
    from types import TracebackType

    from repro.core.stats import UpdateStats
    from repro.graph.batch import Batch, EdgeUpdate


@dataclass(frozen=True)
class Capabilities:
    """What a registered oracle supports, declared honestly.

    * ``directed``     — indexes a :class:`~repro.graph.digraph.DynamicDiGraph`;
    * ``weighted``     — indexes a :class:`~repro.graph.weighted_graph.WeightedDynamicGraph`;
    * ``dynamic``      — ``batch_update`` maintains the index incrementally
      (False means updates trigger a full rebuild);
    * ``parallel``     — can be built on a
      :class:`~repro.parallel.pool.LandmarkShardPool`, whose worker
      processes then run its construction and batch updates;
    * ``serializable`` — ``serialize(path)`` round-trips through
      :func:`repro.api.registry.load_oracle`.
    """

    directed: bool = False
    weighted: bool = False
    dynamic: bool = False
    parallel: bool = False
    serializable: bool = False

    def missing(self, required: Iterable[str]) -> list[str]:
        """The subset of ``required`` capability names this record lacks."""
        known = {f.name for f in fields(self)}
        absent: list[str] = []
        for name in required:
            if name not in known:
                raise CapabilityError(
                    f"unknown capability {name!r};"
                    f" expected one of {', '.join(sorted(known))}"
                )
            if not getattr(self, name):
                absent.append(name)
        return absent

    def describe(self) -> str:
        """Compact human-readable flag list, e.g. ``"dynamic,parallel"``."""
        flags = [f.name for f in fields(self) if getattr(self, f.name)]
        return ",".join(flags) if flags else "static"


@runtime_checkable
class DistanceOracle(Protocol):
    """Structural type every registered oracle satisfies."""

    capabilities: ClassVar[Capabilities]

    def distance(self, s: int, t: int) -> float: ...

    def distances(
        self, pairs: Iterable[tuple[int, int]]
    ) -> list[float]: ...

    def batch_update(
        self, updates: "Iterable[EdgeUpdate]", **options: Any
    ) -> "UpdateStats": ...

    def snapshot(self) -> "DistanceOracle": ...

    def serialize(self, path: "str | Path") -> None: ...

    def stats(self) -> dict[str, Any]: ...

    def close(self) -> None: ...


class OracleBase:
    """Default behaviour shared by every oracle implementation.

    Subclasses implement ``distance`` (calling :meth:`_check_pair` first so
    misuse raises :class:`~repro.errors.IndexStateError` uniformly) and
    ``batch_update``; everything else has a sensible default here.
    """

    #: Overridden per subclass; the registry re-exports it on the spec.
    capabilities: ClassVar[Capabilities] = Capabilities()

    #: The indexed graph; every concrete oracle assigns one (the kind
    #: varies per backend, so the base leaves it dynamically typed).
    graph: Any

    _closed: bool = False

    # -- uniform guards -------------------------------------------------

    @staticmethod
    def _check_buildable(graph: Any) -> None:
        """Every oracle refuses an empty graph the same way."""
        if graph.num_vertices == 0:
            raise IndexStateError("cannot index an empty graph")

    def _ensure_open(self) -> None:
        if self._closed:
            raise IndexStateError(
                f"{type(self).__name__} is closed; no further updates"
            )

    def _check_pair(self, s: int, t: int) -> None:
        """Uniform vertex-range validation for the query path."""
        n = self.graph.num_vertices
        if not (0 <= s < n and 0 <= t < n):
            raise IndexStateError(
                f"query ({s}, {t}) outside vertex range 0..{n - 1}"
            )

    @staticmethod
    def _fill_batch_stats(stats: "UpdateStats", batch: "Batch") -> None:
        """Record a normalised batch's counts and endpoint-affected set.

        ``affected_vertices`` gets at least the applied updates' endpoints
        — the minimum the serving cache needs to invalidate correctly;
        oracles tracking real affected sets add to it on top.
        """
        stats.n_applied = len(batch)
        stats.n_insertions = len(batch.insertions)
        stats.n_deletions = len(batch.deletions)
        for update in batch:
            stats.affected_vertices.add(update.u)
            stats.affected_vertices.add(update.v)

    # -- queries --------------------------------------------------------

    #: Pairs sharing one source before :meth:`distances` answers the whole
    #: group with a single sweep (:meth:`_distances_from_source`) instead
    #: of independent per-pair searches.  A full sweep costs O(V + E), so
    #: small groups stay on the per-pair path.
    _sweep_threshold: ClassVar[int] = 32

    def distances(self, pairs: Iterable[tuple[int, int]]) -> list[float]:
        """Batched queries: one distance per (s, t) pair, in order.

        Pairs are grouped by shared source: once a group reaches
        :attr:`_sweep_threshold`, oracles that implement
        :meth:`_distances_from_source` amortise one single-source sweep
        across the whole group — the batched read path the serving layer
        and the bench drivers rely on.
        """
        pair_list = list(pairs)
        by_source: dict[int, list[int]] = {}
        for position, (s, _) in enumerate(pair_list):
            by_source.setdefault(s, []).append(position)
        results: list[float] = [0.0] * len(pair_list)
        for s, positions in by_source.items():
            values = None
            if len(positions) >= self._sweep_threshold:
                values = self._distances_from_source(
                    s, [pair_list[i][1] for i in positions]
                )
            if values is not None:
                if len(values) != len(positions):
                    raise IndexStateError(
                        f"{type(self).__name__}._distances_from_source"
                        f" returned {len(values)} values for"
                        f" {len(positions)} targets"
                    )
                for i, value in zip(positions, values):
                    results[i] = value
            else:
                for i in positions:
                    results[i] = self.distance(*pair_list[i])
        return results

    def _distances_from_source(
        self, source: int, targets: list[int]
    ) -> list[float] | None:
        """Bulk hook: answer every target from ``source`` with one sweep.

        Return None (the default) to fall back to per-pair ``distance``
        calls; oracles with a frozen CSR view override this with a
        single-source BFS whose cost is shared by the whole group.
        """
        return None

    def query(self, s: int, t: int) -> float:
        """Deprecated alias of :meth:`distance`."""
        warnings.warn(
            f"{type(self).__name__}.query() is deprecated;"
            " use distance() instead",
            DeprecationWarning,
            stacklevel=2,
        )
        return self.distance(s, t)

    # -- snapshots / persistence ----------------------------------------

    def snapshot(self) -> "OracleBase":
        """A frozen copy that no later update of this oracle shows in.

        The default deep-copies the whole oracle — always correct, not
        always cheapest; the highway cover oracles override it by
        sharing state read-only or copy-on-write.
        """
        clone = copy.deepcopy(self)
        clone._closed = False
        return clone

    def serialize(self, path: "str | Path") -> None:
        """Persist the oracle; only where ``serializable`` is advertised."""
        raise CapabilityError(
            f"{type(self).__name__} does not support serialization"
            f" (capabilities: {self.capabilities.describe()})"
        )

    # -- introspection ---------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Size/shape introspection, uniform across oracles."""
        graph = self.graph
        info: dict[str, Any] = {
            "oracle": type(self).__name__,
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "capabilities": self.capabilities.describe(),
        }
        label_size = getattr(self, "label_size", None)
        if callable(label_size):
            info["label_entries"] = label_size()
        size_bytes = getattr(self, "size_bytes", None)
        if callable(size_bytes):
            info["size_bytes"] = size_bytes()
        return info

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Release maintenance resources.

        After ``close()`` further ``batch_update``/``serialize`` calls
        raise :class:`~repro.errors.IndexStateError`; queries stay valid
        (the epoch-snapshot serving pattern reads from frozen copies whose
        maintenance half is gone).  Idempotent.
        """
        self._closed = True

    def __enter__(self) -> "OracleBase":
        self._ensure_open()
        return self

    def __exit__(
        self,
        exc_type: "type[BaseException] | None",
        exc: "BaseException | None",
        tb: "TracebackType | None",
    ) -> None:
        self.close()
