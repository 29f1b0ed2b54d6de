"""Timing shims around the public functions of each ``repro`` layer.

The traced run wraps the functions listed in :data:`TARGETS` with a
:class:`Recorder` call.  Every call becomes a span: name, start, end,
parent span and the id of the top-level operation (a query or a submit)
that caused it.  Spans live in memory as flat integer columns and are
written out once, when the run ends (:meth:`Recorder.write`).

Nothing under ``src/`` changes.  A function imported by name into other
modules (``from repro.graph.csr import bidirectional_distance``) is
replaced in every loaded ``repro`` module that holds it, and
:func:`installed` puts every original back when the run ends.  Targets
that no longer exist are skipped and listed, so the benchmark keeps
working when a later change deletes a layer.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import sys
import time
from array import array
from typing import Any, Callable, Iterator

import numpy as np

#: Phases a span can belong to.  Per-layer metrics read ``measure``
#: spans (and ``setup`` spans for construction); the correctness gate
#: runs with the recorder ``paused``.
PHASES = ("paused", "setup", "measure")


def _rows(result: Any) -> int:
    """Rows decoded by ``distances_from``: one per vertex."""
    return len(result[0])


def _nbytes(result: Any) -> int:
    """Bytes allocated by ``HighwayCoverLabelling.copy``."""
    return int(result.labels.nbytes + result.highway.nbytes)


#: (module, attribute path, span name, amount function).  Two targets
#: may share a span name (the two heap search kernels).
TARGETS: tuple[tuple[str, str, str, Callable[[Any], int] | None], ...] = (
    ("repro.graph.csr", "CSRGraph.from_graph", "graph.csr.freeze", None),
    ("repro.graph.csr", "CSRGraph.adjacency_lists",
     "graph.csr.adjacency_lists", None),
    ("repro.graph.csr", "bidirectional_distance",
     "graph.csr.bidirectional", None),
    ("repro.graph.dynamic_graph", "DynamicGraph.copy",
     "graph.dynamic_graph.copy", None),
    ("repro.graph.batch", "normalize_batch", "graph.batch.normalize", None),
    ("repro.graph.batch", "apply_batch", "graph.batch.apply", None),
    ("repro.core.labelling", "HighwayCoverLabelling.distances_from",
     "core.labelling.decode", _rows),
    ("repro.core.labelling", "HighwayCoverLabelling.copy",
     "core.labelling.copy", _nbytes),
    ("repro.core.labelling", "HighwayCoverLabelling.upper_bound",
     "core.labelling.upper_bound", None),
    ("repro.core.queries", "query_distance", "core.queries.query", None),
    ("repro.core.batch_kernels", "batch_search_adaptive",
     "core.batch_kernels.search", None),
    ("repro.core.batch_kernels", "batch_repair_adaptive",
     "core.batch_kernels.repair", None),
    ("repro.core.batch_search", "batch_search_basic",
     "core.batch_search.search", None),
    ("repro.core.batch_search", "batch_search_improved",
     "core.batch_search.search", None),
    ("repro.core.batch_repair", "batch_repair",
     "core.batch_repair.repair", None),
    ("repro.core.index", "HighwayCoverIndex.snapshot",
     "core.index.snapshot", None),
    ("repro.core.construction", "build_labelling",
     "core.construction.build", None),
    ("repro.service.engine", "DistanceService.flush",
     "service.engine.flush", None),
    ("repro.service.engine", "DistanceService.distance",
     "service.engine.distance", None),
    ("repro.service.engine", "DistanceService.submit",
     "service.engine.submit", None),
    ("repro.service.cache", "QueryCache.get", "service.cache.get", None),
)

FLUSH_SPAN = "service.engine.flush"


class Recorder:
    """In-memory span columns for one single-threaded run.

    Span ``i`` (0-based) has id ``i + 1``; ``parent``, ``op`` and
    ``flush`` hold ids, with 0 for none.  ``flush`` is the enclosing
    ``DistanceService.flush`` span, so flush wall time can be split over
    the layers that ran inside it.
    """

    def __init__(self, tracer: Any = None) -> None:
        # The program's own repro.obs tracer, enabled only while the
        # window is measured so its spans line up with ours.
        self.tracer = tracer
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.parent = array("q")
        self.op = array("q")
        self.flush = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.amount = array("q")
        self.phase = array("q")
        self.current_phase = 0
        self.setup_index = -1
        self.setup_of = array("q")
        self._stack: list[tuple[int, int, int]] = []
        self._ops = 0

    def set_phase(self, phase: str) -> None:
        self.current_phase = PHASES.index(phase)
        if self.tracer is not None:
            if phase == "measure":
                self.tracer.enable()
            else:
                self.tracer.disable()

    def name_id(self, name: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        return index

    def call(
        self,
        name_id: int,
        is_flush: bool,
        amount_of: Callable[[Any], int] | None,
        fn: Callable[..., Any],
        args: tuple[Any, ...],
        kwargs: dict[str, Any],
    ) -> Any:
        if not self.current_phase:
            return fn(*args, **kwargs)
        # The row is reserved when the span opens, so a parent's id is
        # always lower than its children's, and filled when it closes.
        span_id = self._reserve()
        if self._stack:
            parent_id, op_id, flush_id = self._stack[-1]
        else:
            self._ops += 1
            parent_id, op_id, flush_id = 0, self._ops, 0
        inner_flush = span_id if is_flush else flush_id
        self._stack.append((span_id, op_id, inner_flush))
        started = time.perf_counter_ns()
        amount = 0
        try:
            result = fn(*args, **kwargs)
            if amount_of is not None:
                amount = amount_of(result)
            return result
        finally:
            ended = time.perf_counter_ns()
            self._stack.pop()
            slot = span_id - 1
            self.parent[slot] = parent_id
            self.op[slot] = op_id
            self.flush[slot] = flush_id
            self.name[slot] = name_id
            self.start[slot] = started
            self.end[slot] = ended
            self.amount[slot] = amount
            self.phase[slot] = self.current_phase
            self.setup_of[slot] = self.setup_index

    def _reserve(self) -> int:
        for column in (
            self.parent, self.op, self.flush, self.name, self.start,
            self.end, self.amount, self.phase, self.setup_of,
        ):
            column.append(0)
        return len(self.parent)

    def __len__(self) -> int:
        return len(self.parent)

    def columns(self) -> dict[str, np.ndarray]:
        """The span table as numpy arrays (ids are ``arange(1, n + 1)``)."""
        return {
            key: np.frombuffer(getattr(self, key), dtype=np.int64).copy()
            if len(self) else np.zeros(0, dtype=np.int64)
            for key in (
                "parent", "op", "flush", "name", "start", "end", "amount",
                "phase", "setup_of",
            )
        }

    def write(self, path: str, header: dict[str, Any]) -> int:
        """Write the spans as gzip JSON lines; returns the span count.

        The first line is a header with the span names; each following
        line is ``[id, parent, op, name, start_ns, end_ns, amount, phase]``
        (0 = no parent; ``name`` indexes the header's ``names``).
        """
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write(json.dumps({
                **header,
                "names": self.names,
                "phases": list(PHASES),
                "fields": [
                    "id", "parent", "op", "name", "start_ns", "end_ns",
                    "amount", "phase",
                ],
            }) + "\n")
            for i in range(len(self)):
                handle.write(
                    f"[{i + 1},{self.parent[i]},{self.op[i]},{self.name[i]},"
                    f"{self.start[i]},{self.end[i]},{self.amount[i]},"
                    f"{self.phase[i]}]\n"
                )
        return len(self)


def _wrap(
    recorder: Recorder,
    fn: Callable[..., Any],
    name: str,
    amount_of: Callable[[Any], int] | None,
) -> Callable[..., Any]:
    name_id = recorder.name_id(name)
    is_flush = name == FLUSH_SPAN
    call = recorder.call

    @functools.wraps(fn)
    def shim(*args: Any, **kwargs: Any) -> Any:
        return call(name_id, is_flush, amount_of, fn, args, kwargs)

    return shim


def _repro_modules() -> list[Any]:
    return [
        module for key, module in list(sys.modules.items())
        if module is not None and (key == "repro" or key.startswith("repro."))
    ]


@contextlib.contextmanager
def installed(recorder: Recorder) -> Iterator[list[str]]:
    """Wrap every target for the duration of the block.

    Yields the targets that could not be found.  Originals are restored
    on exit, also when the block raises.
    """
    restore: list[tuple[Any, str, Any]] = []
    missing: list[str] = []
    try:
        for module_name, path, name, amount_of in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                missing.append(f"{module_name}.{path}")
                continue
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                raw = None if owner is None else vars(owner).get(attr)
                if raw is None:
                    missing.append(f"{module_name}.{path}")
                    continue
                if isinstance(raw, classmethod):
                    new: Any = classmethod(
                        _wrap(recorder, raw.__func__, name, amount_of)
                    )
                else:
                    new = _wrap(recorder, raw, name, amount_of)
                restore.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{module_name}.{path}")
                continue
            shim = _wrap(recorder, original, name, amount_of)
            # Rebind every by-name import of the function as well.
            for holder in _repro_modules():
                for key, value in list(vars(holder).items()):
                    if value is original:
                        restore.append((holder, key, original))
                        setattr(holder, key, shim)
        yield missing
    finally:
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------


def self_times(columns: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the time its direct children cover."""
    duration = columns["end"] - columns["start"]
    parent = columns["parent"]
    has_parent = parent > 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent],
        minlength=len(parent) + 1,
    )[1:]
    return duration - covered.astype(np.int64)
