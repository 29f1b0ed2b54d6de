"""Lightweight nested span tracing exported as Chrome trace-event JSONL.

Usage::

    from repro.obs import get_tracer, span

    get_tracer().enable()
    with span("flush", batch=17):
        with span("batch_update"):
            ...

Spans record into a bounded in-memory ring (old events fall off — a
long-running service never grows without bound) and export as one
trace-event JSON object per line (:meth:`Tracer.export_jsonl`).  The
format is the Chrome/Perfetto "complete event" shape — ``ph: "X"`` with
microsecond ``ts``/``dur`` — and Perfetto's JSON tokenizer accepts
concatenated objects, so the JSONL file loads directly in
https://ui.perfetto.dev (and each line parses standalone for pipelines).

Nesting is tracked per thread: a thread-local span stack supplies parent
ids, and every event carries ``args.span_id`` / ``args.parent_id`` so the
hierarchy survives flat JSONL.  Cross-process shards: worker processes do
not trace (the tracer is per-process and disabled there); instead the
writer-side pool *synthesizes* child spans from the
:class:`~repro.core.stats.ShardTiming` data each shard reports —
:meth:`Tracer.record_complete` with an explicit ``tid`` places each
shard's search/repair phases on its own track under the dispatching
flush span (see :mod:`repro.parallel.pool`).

**Zero overhead when disabled** (the default): ``span()`` checks one
boolean and returns a shared no-op context manager — no ring append, no
clock read, no per-span allocation beyond the argument dict.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from pathlib import Path
from types import TracebackType
from typing import Any


class _NoopSpan:
    """Shared do-nothing context manager for the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class _Span:
    """A live span; records a complete event on exit.

    The start clock is read first on entry and the end clock once the
    event is built, so a span's duration counts its own bookkeeping (the
    stack, the id, the event); only the ring append after the end clock
    lands in its parent's self time.
    """

    __slots__ = ("tracer", "name", "args", "span_id", "parent_id", "start_us")

    span_id: int
    parent_id: int | None
    start_us: int

    def __init__(
        self, tracer: "Tracer", name: str, args: dict[str, Any]
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.args = args

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        self.start_us = tracer._now_us()
        stack = tracer._stack()
        self.parent_id = stack[-1] if stack else None
        self.span_id = tracer._next_id()
        stack.append(self.span_id)
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        tracer = self.tracer
        stack = tracer._stack()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        args = dict(self.args)
        if exc_type is not None:
            args["error"] = exc_type.__name__
        event: dict[str, Any] = {
            "name": self.name,
            "ph": "X",
            "ts": self.start_us,
            "dur": 0,
            "pid": tracer.pid,
            "tid": threading.current_thread().name,
            "cat": "repro",
            "args": {
                "span_id": self.span_id,
                "parent_id": self.parent_id,
                **args,
            },
        }
        event["dur"] = max(0, tracer._now_us() - self.start_us)
        tracer._append(event)
        return False

    def set(self, **fields: Any) -> None:
        """Attach extra fields to the span before it closes."""
        self.args.update(fields)


class Tracer:
    """Bounded ring of trace events with nested-span recording."""

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._events: deque[dict[str, Any]] = deque(maxlen=capacity)
        self._enabled = False
        self._lock = threading.Lock()
        self._ids = 0
        self._local = threading.local()
        self._epoch = time.perf_counter()
        self.pid = os.getpid()
        self.dropped = 0
        self._recorded = 0

    # -- state ----------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> "Tracer":
        self._enabled = True
        return self

    def disable(self) -> "Tracer":
        self._enabled = False
        return self

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self.dropped = 0
            self._recorded = 0

    # -- internals -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack: list[int] | None = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_id(self) -> int:
        with self._lock:
            self._ids += 1
            return self._ids

    def _now_us(self) -> int:
        return int((time.perf_counter() - self._epoch) * 1e6)

    def _append(self, event: dict[str, Any]) -> None:
        with self._lock:
            if len(self._events) == self._events.maxlen:
                self.dropped += 1
            self._events.append(event)
            self._recorded += 1

    # -- recording -------------------------------------------------------

    def span(self, name: str, **args: Any) -> "_Span | _NoopSpan":
        """Context manager timing a nested span (no-op when disabled)."""
        if not self._enabled:
            return NOOP_SPAN
        return _Span(self, name, args)

    def current_span_id(self) -> "int | None":
        stack = self._stack()
        return stack[-1] if stack else None

    def record_complete(
        self,
        name: str,
        start_us: float,
        dur_us: float,
        parent_id: "int | None" = None,
        tid: "str | None" = None,
        **args: Any,
    ) -> "int | None":
        """Record an already-timed span (synthesized shard phases).

        ``start_us``/``dur_us`` are on this tracer's clock (see
        :meth:`now_us`).  Returns the new span id, or None when disabled.
        """
        if not self._enabled:
            return None
        span_id = self._next_id()
        self._append(
            {
                "name": name,
                "ph": "X",
                "ts": int(start_us),
                "dur": int(max(0, dur_us)),
                "pid": self.pid,
                "tid": tid or threading.current_thread().name,
                "cat": "repro",
                "args": {
                    "span_id": span_id,
                    "parent_id": parent_id,
                    **args,
                },
            }
        )
        return span_id

    def now_us(self) -> int:
        """The tracer clock, for callers timing synthesized spans."""
        return self._now_us()

    # -- reads / export ---------------------------------------------------

    def events(self) -> list[dict[str, Any]]:
        with self._lock:
            return list(self._events)

    def export_jsonl(self, path: str | Path) -> int:
        """Write one trace-event JSON object per line; returns the count."""
        events = self.events()
        with open(path, "w") as handle:
            for event in events:
                handle.write(json.dumps(event) + "\n")
        return len(events)

    def __repr__(self) -> str:
        return (
            f"Tracer(enabled={self._enabled}, events={len(self._events)},"
            f" dropped={self.dropped})"  # reprolint: disable=CONC003 -- repr is informational; a torn read cannot corrupt state
        )


_tracer = Tracer()


def get_tracer() -> Tracer:
    """The process-wide default tracer (disabled until enabled)."""
    return _tracer


def span(name: str, **args: Any) -> "_Span | _NoopSpan":
    """``with span("flush", batch=n):`` on the default tracer."""
    if not _tracer._enabled:
        return NOOP_SPAN
    return _Span(_tracer, name, args)
