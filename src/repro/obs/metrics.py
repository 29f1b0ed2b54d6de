"""Process-wide metrics: labelled counters/gauges/histograms + exporters.

A :class:`MetricsRegistry` owns a namespace of metric *families*.  Each
family has a name, a help string and a fixed tuple of label names;
``family.labels(...)`` returns (creating on first use) the child series
for one label-value combination, and a family with no labels is its own
child.  Three instrument kinds, mirroring the Prometheus data model:

* :class:`Counter`   — monotone ``inc``;
* :class:`Gauge`     — ``set``/``inc``/``dec`` to any value;
* :class:`Histogram` — ``observe`` into cumulative buckets plus
  ``_sum``/``_count``; the default :data:`LOG_BUCKETS` are fine enough
  that :meth:`HistogramState.quantile` reads p50/p90/p99 within 4.4%.

Reads are *snapshots*: :meth:`MetricsRegistry.snapshot` returns one flat
``{sample_key: value}`` dict whose keys are exactly the Prometheus sample
syntax (``name{label="v"}``), and :meth:`MetricsRegistry.delta` subtracts
a previous snapshot so callers get windowed rates (gauges pass through as
their current value — a delta of a level is meaningless).  Exports:

* ``render_prometheus()`` — text exposition format (version 0.0.4) with
  ``# HELP``/``# TYPE`` headers;
* module-level :func:`write_metrics` picks the format from the file
  suffix (``.json`` vs ``.prom``/anything else) and can merge several
  registries into one file (the service's private registry plus the
  process-global one).

Everything is thread-safe: each family guards its children dict and each
child guards its own cells with one lock.  The process-global registry
(:func:`get_registry`) is where process-wide components (CSR freezes,
kernel phase totals, the shard pool) record; per-service metrics live in
per-instance registries so concurrent services do not pollute each other.
"""

from __future__ import annotations

import json
import math
import operator
import threading
import time
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence, TypeVar, cast

F = TypeVar("F", bound="_Family")

INF = float("inf")

#: Default histogram resolution: bucket bounds grow by 2**(1/8) ≈ 1.09.
BUCKETS_PER_OCTAVE = 8

#: Default bucket bounds: 2**(k / BUCKETS_PER_OCTAVE) from 2**-21 s
#: (0.48 us, below a cache hit) to 2**7 s (128 s, above a slow flush).
LOG_BUCKETS = tuple(
    2.0 ** (k / BUCKETS_PER_OCTAVE)
    for k in range(-21 * BUCKETS_PER_OCTAVE, 7 * BUCKETS_PER_OCTAVE + 1)
)

#: Worst relative error of a quantile read on :data:`LOG_BUCKETS`: a
#: bucket's geometric midpoint is within 2**(1/16) - 1 ≈ 4.4% of its values.
RELATIVE_ERROR = 2.0 ** (0.5 / BUCKETS_PER_OCTAVE) - 1.0


def exponential_buckets(
    start: float = 1e-5, factor: float = 4.0, count: int = 10
) -> tuple[float, ...]:
    """``count`` explicit bounds ``start * factor**i`` (a histogram given
    none uses :data:`LOG_BUCKETS`); :class:`Histogram` appends ``+Inf``."""
    if start <= 0 or factor <= 1 or count < 1:
        raise ValueError(
            "exponential_buckets needs start > 0, factor > 1, count >= 1"
        )
    return tuple(start * factor**i for i in range(count))


def _quote_label(value: object) -> str:
    text = str(value)
    return (
        text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def sample_key(name: str, labels: dict[str, object]) -> str:
    """The Prometheus sample syntax: ``name`` or ``name{a="x",b="y"}``."""
    if not labels:
        return name
    inner = ",".join(
        f'{key}="{_quote_label(value)}"' for key, value in labels.items()
    )
    return f"{name}{{{inner}}}"


def format_value(value: float) -> str:
    if value == INF:
        return "+Inf"
    if value == -INF:
        return "-Inf"
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class _Family:
    """Shared family plumbing: label bookkeeping + child management."""

    kind = "untyped"

    def __init__(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> None:
        if not name or not name.replace("_", "a").replace(":", "a").isalnum():
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._children: dict[tuple[str, ...], "_Family"] = {}  # guarded-by: _lock
        self._lock = threading.Lock()

    def labels(self: F, *values: object, **kv: object) -> F:
        """The child series for one label-value combination."""
        if kv:
            if values:
                raise ValueError("pass label values positionally OR by name")
            try:
                values = tuple(kv[name] for name in self.labelnames)
            except KeyError as exc:
                raise ValueError(
                    f"metric {self.name} has labels {self.labelnames},"
                    f" got {tuple(kv)}"
                ) from exc
            if len(kv) != len(self.labelnames):
                raise ValueError(
                    f"metric {self.name} has labels {self.labelnames},"
                    f" got {tuple(kv)}"
                )
        values = tuple(str(v) for v in values)
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"metric {self.name} expects {len(self.labelnames)} label"
                f" values {self.labelnames}, got {len(values)}"
            )
        if not self.labelnames:
            return self  # a label-less family is its own (only) series
        with self._lock:
            child = self._children.get(values)
            if child is None:
                child = self._make_child(values)
                self._children[values] = child
            return cast(F, child)

    def _make_child(self, values: tuple[str, ...]) -> "_Family":
        raise NotImplementedError

    def _samples(self, labels: dict[str, str]) -> Iterator[tuple[str, float]]:
        raise NotImplementedError

    def _label_dict(self, values: tuple[str, ...]) -> dict[str, str]:
        return dict(zip(self.labelnames, values))

    def _iter_children(
        self,
    ) -> Iterator[tuple[tuple[str, ...], "_Family"]]:
        if not self.labelnames:
            yield (), self
        else:
            with self._lock:
                items = list(self._children.items())
            yield from items

    def samples(self) -> Iterator[tuple[str, float]]:
        """Yield ``(sample_key, value)`` pairs for every child series."""
        for values, child in self._iter_children():
            yield from child._samples(self._label_dict(values))


class Counter(_Family):
    """Monotonically increasing count."""

    kind = "counter"

    def __init__(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> None:
        super().__init__(name, help, labelnames)
        self._value = 0.0  # guarded-by: _cell_lock
        self._fn: Callable[[], float] | None = None
        self._cell_lock = threading.Lock()

    def _make_child(self, values: tuple[str, ...]) -> "Counter":
        return Counter(self.name, self.help)

    def inc(self, amount: float = 1.0) -> None:
        if self.labelnames:
            raise ValueError(
                f"metric {self.name} has labels {self.labelnames};"
                " call .labels(...) first"
            )
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._cell_lock:
            self._value += amount

    def set_function(self, fn: Callable[[], float]) -> "Counter":
        """Read the value from ``fn()`` at sample time instead of ``inc``.

        Lets components that already keep their own cheap tallies (the
        query cache's hit/miss ints, the scheduler's offered/coalesced
        counts) export through the registry with **zero** hot-path cost —
        the callback runs only when someone snapshots or scrapes.
        """
        if self.labelnames:
            raise ValueError("set_function applies to a single series")
        self._fn = fn
        return self

    @property
    def value(self) -> float:
        if self.labelnames:
            with self._lock:
                children = list(self._children.values())
            return sum(child.value for child in children)
        if self._fn is not None:
            return float(self._fn())
        with self._cell_lock:
            return self._value

    def _samples(self, labels: dict[str, str]) -> Iterator[tuple[str, float]]:
        yield sample_key(self.name, labels), self.value


class Gauge(_Family):
    """A value that can go up and down (sizes, current epoch, pending)."""

    kind = "gauge"

    def __init__(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> None:
        super().__init__(name, help, labelnames)
        self._value = 0.0  # guarded-by: _cell_lock
        self._fn: Callable[[], float] | None = None
        self._cell_lock = threading.Lock()

    def _make_child(self, values: tuple[str, ...]) -> "Gauge":
        return Gauge(self.name, self.help)

    def set_function(self, fn: Callable[[], float]) -> "Gauge":
        """Read the level from ``fn()`` at sample time (see Counter)."""
        if self.labelnames:
            raise ValueError("set_function applies to a single series")
        self._fn = fn
        return self

    def _check_bare(self) -> None:
        if self.labelnames:
            raise ValueError(
                f"metric {self.name} has labels {self.labelnames};"
                " call .labels(...) first"
            )

    def set(self, value: float) -> None:
        self._check_bare()
        with self._cell_lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._check_bare()
        with self._cell_lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        with self._cell_lock:
            return self._value

    def _samples(self, labels: dict[str, str]) -> Iterator[tuple[str, float]]:
        yield sample_key(self.name, labels), self.value


@dataclass(frozen=True)
class HistogramState:
    """One consistent read of a histogram: bucket counts (the last slot is
    ``+Inf``), sum and largest observation.  States with the same bounds
    add up, so a report reads each child once and merges them."""

    bounds: tuple[float, ...]
    counts: tuple[int, ...]
    sum: float = 0.0
    max: float = 0.0

    @property
    def count(self) -> int:
        return sum(self.counts)

    def __add__(self, other: "HistogramState") -> "HistogramState":
        return HistogramState(
            self.bounds,
            tuple(map(operator.add, self.counts, other.counts)),
            self.sum + other.sum,
            max(self.max, other.max),
        )

    def quantile(self, q: float) -> float:
        """Nearest-rank percentile (q in [0, 100]); 0.0 when empty.

        Reads the bucket of the rank ⌈q/100·n⌉ observation at its
        geometric midpoint, capped at the largest observation (the first
        bucket reads its upper bound, ``+Inf`` the largest observation):
        on :data:`LOG_BUCKETS` within :data:`RELATIVE_ERROR` of exact.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"quantile q must be in [0, 100], got {q}")
        cumulative = list(accumulate(self.counts))
        if not cumulative[-1]:
            return 0.0
        rank = max(1, math.ceil(q / 100.0 * cumulative[-1]))
        slot = bisect_left(cumulative, rank)
        if slot == len(self.bounds):
            return self.max
        upper = self.bounds[slot]
        if slot:
            upper = math.sqrt(self.bounds[slot - 1] * upper)
        return min(upper, self.max)


class Histogram(_Family):
    """Cumulative-bucket histogram (Prometheus semantics: ``le`` is an
    inclusive upper bound; an implicit ``+Inf`` bucket catches the tail).

    ``buckets`` defaults to :data:`LOG_BUCKETS`.  Reads on a labelled
    family merge its children.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] | None = None,
    ) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(buckets) if buckets is not None else LOG_BUCKETS
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"bucket bounds must strictly increase: {bounds}")
        if bounds and bounds[-1] == INF:
            bounds = bounds[:-1]
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # guarded-by: _cell_lock
        self._sum = 0.0  # guarded-by: _cell_lock
        self._max = 0.0  # guarded-by: _cell_lock
        self._cell_lock = threading.Lock()

    def _make_child(self, values: tuple[str, ...]) -> "Histogram":
        return Histogram(self.name, self.help, buckets=self.bounds)

    def observe(self, value: float) -> None:
        if self.labelnames:
            raise ValueError(
                f"metric {self.name} has labels {self.labelnames};"
                " call .labels(...) first"
            )
        # First bucket whose inclusive upper bound holds the value:
        # bisect_left returns the first index with bounds[i] >= value,
        # i.e. the smallest bound satisfying value <= bound; past the
        # last bound it returns len(bounds), the +Inf slot.
        slot = bisect_left(self.bounds, value)
        with self._cell_lock:
            self._counts[slot] += 1
            self._sum += value
            if value > self._max:
                self._max = value

    def state(self) -> HistogramState:
        """The counts, sum and max, read under one lock per child."""
        if self.labelnames:
            empty = HistogramState(self.bounds, (0,) * (len(self.bounds) + 1))
            return sum(
                (child.state() for _, child in self._iter_children()), empty
            )
        with self._cell_lock:
            return HistogramState(
                self.bounds, tuple(self._counts), self._sum, self._max
            )

    @property
    def count(self) -> int:
        return self.state().count

    @property
    def sum(self) -> float:
        return self.state().sum

    def bucket_counts(self) -> dict[float, int]:
        """Cumulative counts keyed by upper bound (ending at ``inf``)."""
        return dict(zip((*self.bounds, INF), accumulate(self.state().counts)))

    def _samples(self, labels: dict[str, str]) -> Iterator[tuple[str, float]]:
        state = self.state()
        for bound, cumulative in zip((*self.bounds, INF), accumulate(state.counts)):
            yield (
                sample_key(
                    self.name + "_bucket",
                    {**labels, "le": format_value(bound)},
                ),
                cumulative,
            )
        yield sample_key(self.name + "_sum", labels), state.sum
        yield sample_key(self.name + "_count", labels), state.count


class MetricsRegistry:
    """A namespace of metric families with get-or-create registration."""

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}
        self._lock = threading.Lock()

    def _register(
        self,
        cls: type[F],
        name: str,
        help: str,
        labelnames: Sequence[str],
        **kwargs: Any,
    ) -> F:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = cls(name, help, tuple(labelnames), **kwargs)
                self._families[name] = family
                return family
        if not isinstance(family, cls) or family.labelnames != tuple(
            labelnames
        ):
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}"
                f" with labels {family.labelnames}; requested"
                f" {cls.kind} with labels {tuple(labelnames)}"
            )
        return family

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._register(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._register(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] | None = None,
    ) -> Histogram:
        return self._register(
            Histogram, name, help, labelnames, buckets=buckets
        )

    def families(self) -> list[_Family]:
        with self._lock:
            return list(self._families.values())

    # -- reads ----------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """One flat ``{prometheus_sample_key: value}`` dict."""
        out: dict[str, float] = {}
        for family in self.families():
            for key, value in family.samples():
                out[key] = value
        return out

    def delta(self, previous: dict[str, float]) -> dict[str, float]:
        """Windowed read: current snapshot minus ``previous``.

        Counter/histogram samples subtract (missing keys count as 0);
        gauge samples pass through at their current level.
        """
        gauges: set[str] = set()
        for family in self.families():
            if family.kind == "gauge":
                for key, _ in family.samples():
                    gauges.add(key)
        out: dict[str, float] = {}
        for key, value in self.snapshot().items():
            if key in gauges:
                out[key] = value
            else:
                out[key] = value - previous.get(key, 0)
        return out

    # -- exports --------------------------------------------------------

    def render_prometheus(self) -> str:
        return render_prometheus(self)


def render_prometheus(*registries: MetricsRegistry) -> str:
    """Text exposition (0.0.4) for one or more registries, concatenated.

    Callers merging registries are responsible for keeping family names
    disjoint (the repo convention: ``repro_service_*`` per service,
    ``repro_core_*``/``repro_pool_*`` process-global).
    """
    lines: list[str] = []
    seen: set[str] = set()
    for registry in registries:
        for family in registry.families():
            if family.name in seen:
                raise ValueError(
                    f"duplicate metric family {family.name!r} across"
                    " merged registries"
                )
            seen.add(family.name)
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for key, value in family.samples():
                lines.append(f"{key} {format_value(value)}")
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> dict[str, float]:
    """Parse exposition text back into ``{sample_key: value}``.

    Used by the round-trip tests and the CI smoke validator; accepts
    exactly what :func:`render_prometheus` emits (a useful subset of the
    full grammar: comments, then ``key value`` lines).
    """
    out: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, raw = line.rpartition(" ")
        if not key:
            raise ValueError(f"unparseable sample line: {line!r}")
        value = {"+Inf": INF, "-Inf": -INF}.get(raw)
        out[key] = float(raw) if value is None else value
    return out


def write_metrics(path: str | Path, *registries: MetricsRegistry) -> str:
    """Write merged registries to ``path``; format from the suffix.

    ``.json`` gets the flat-JSON export; anything else (``.prom``,
    ``.txt``) gets Prometheus text.  Returns the format written.
    """
    text_path = str(path)
    if text_path.endswith(".json"):
        merged: dict[str, float] = {}
        for registry in registries:
            merged.update(registry.snapshot())
        with open(path, "w") as handle:
            json.dump(
                {"exported_at": time.time(), "metrics": merged},
                handle,
                indent=2,
                sort_keys=True,
            )
            handle.write("\n")
        return "json"
    with open(path, "w") as handle:
        handle.write(render_prometheus(*registries))
    return "prometheus"


# ----------------------------------------------------------------------
# process-global registry
# ----------------------------------------------------------------------

_global_registry = MetricsRegistry()
_global_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide registry for cross-cutting components."""
    return _global_registry


def reset_registry() -> MetricsRegistry:
    """Swap in a fresh global registry (tests); returns the new one."""
    global _global_registry
    with _global_lock:
        _global_registry = MetricsRegistry()
        return _global_registry
