"""The closed-loop client, its correctness gate and end-to-end metrics.

One client on the main thread drives the public
:class:`~repro.service.DistanceService` API with a foreground writer
(``background=False``): it sends its next request only after the previous
one returned.  Every ``distance()`` and ``submit()`` call is timed on its
own.  Work the benchmark does for itself — reading cache tallies,
sampling answers, BFS checks, host probes — happens outside those timed
calls.

The host this was tuned on switches between a full-speed state and
states up to 2x slower every few seconds, in CPU time as much as in
wall time, and the share of slow time differs from run to run by more
than any bound would allow.  So the loop times a fixed pure-Python
probe (:func:`probe`) every :data:`PROBE_PERIOD_S`, right after each
publish and around each set-up, and the timing metrics count only the
samples taken while the probe ran within :data:`FULL_SPEED` of its
fastest times in the run (:func:`full_speed_samples`).  The full-speed
level itself drifts over minutes, so the times are then scaled to a
reference probe time (:func:`host_factor`).
"""

from __future__ import annotations

import gc
import math
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.obs.metrics import get_registry
from repro.service import DistanceService, FlushPolicy

from perfbench.shims import Recorder
from perfbench.workloads import Inputs, Workload

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("visibility_p50_ms", "ms"),
    ("updates_per_s", "1/s"),
    ("query_p50_us", "us"),
    ("query_p90_us", "us"),
    ("query_miss_p50_us", "us"),
    ("query_miss_p90_us", "us"),
    ("queries_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

#: Seconds between two host probes (checked before each query and submit).
PROBE_PERIOD_S = 0.02
#: Iterations of the probe loop (~0.6 ms at full speed on the tuning host).
PROBE_ITERATIONS = 5000
#: The probe's fastest time on the tuning host (2-core Xeon VM).  The
#: full-speed level itself drifts there by 30% over minutes, so each run
#: scales its times by this over its own 1st-percentile probe.
PROBE_REFERENCE_S = 0.55e-3
#: A sample counts as taken at full speed when its probe took at most this
#: multiple of the run's 1st-percentile probe time.
FULL_SPEED = 1.2
#: Each timing metric uses at least this many samples: the ones with the
#: fastest probes, if fewer were taken at full speed.
MIN_QUERIES = 1000
MIN_CYCLES = 5
MIN_SETUPS = 3


@dataclass
class Window:
    """Raw samples of one measured window."""

    setup_s: list[float]
    setup_probe: list[float] = field(default_factory=list)
    query_s: list[float] = field(default_factory=list)
    miss_s: list[float] = field(default_factory=list)
    # The probe time in force when each query / miss was served.
    query_probe: list[float] = field(default_factory=list)
    miss_probe: list[float] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    # One entry per published epoch: updates applied, the wall time of
    # the submit calls (flush included) since the previous publish, and
    # the slower of the probes just before and just after the flush.
    cycle_applied: list[int] = field(default_factory=list)
    cycle_s: list[float] = field(default_factory=list)
    cycle_probe: list[float] = field(default_factory=list)
    visibility_s: list[float] = field(default_factory=list)
    visibility_probe: list[float] = field(default_factory=list)
    updates: int = 0
    applied: int = 0
    seconds: float = 0.0
    peak_rss_mb: float = 0.0
    checks: int = 0
    failures: list[str] = field(default_factory=list)
    before: dict[str, Any] = field(default_factory=dict)
    after: dict[str, Any] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.query_s) + self.updates


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (rank ceil(q/100 * n))."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def probe() -> float:
    """Seconds a fixed pure-Python loop takes: the host's current speed."""
    started = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(PROBE_ITERATIONS):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    return time.perf_counter() - started


def full_speed_limit(probes: list[float]) -> float:
    """The slowest probe time that still counts as full speed."""
    return FULL_SPEED * percentile(probes, 1)


def at_least(limit: float, probes: list[float], count: int) -> float:
    """``limit``, raised if need be so that ``count`` of ``probes`` pass."""
    return max(limit, sorted(probes)[:count][-1])


def full_speed(
    samples: list[float], sample_probes: list[float], limit: float
) -> list[float]:
    """The samples whose probe took at most ``limit``, in order."""
    return [s for s, p in zip(samples, sample_probes) if p <= limit]


def bfs_distance(graph: Any, source: int, target: int) -> float:
    """Plain BFS over ``graph.neighbors``, independent of the index."""
    if source == target:
        return 0
    seen = bytearray(graph.num_vertices)
    seen[source] = 1
    frontier = [source]
    depth = 0
    while frontier:
        depth += 1
        following = []
        for v in frontier:
            for w in graph.neighbors(v):
                if not seen[w]:
                    if w == target:
                        return depth
                    seen[w] = 1
                    following.append(w)
        frontier = following
    return math.inf


def tallies(service: DistanceService) -> dict[str, Any]:
    """The program's own counters, read at a window boundary."""
    return {
        "cache": service.cache.counts(),
        "scheduler": service.scheduler.counts(),
        "applied": service.metrics.updates_applied,
        "registry": get_registry().snapshot(),
    }


def set_up(
    workload: Workload,
    inputs: Inputs,
    factory: Callable[..., DistanceService],
    recorder: Recorder | None,
) -> tuple[DistanceService, list[float], list[float]]:
    """Construct the service ``workload.setups`` times; keep the last.

    Each construction gets a fresh copy of the starting graph, because
    the writer owns and mutates the graph it is given.  Returns the
    service, the construction times and, for each, the slower of the
    host probes just before and just after it.
    """
    seconds: list[float] = []
    probes: list[float] = []
    service: DistanceService | None = None
    for i in range(workload.setups):
        if service is not None:
            service.close()
            service = None
        graph = inputs.graph.copy()
        gc.collect()
        if recorder is not None:
            recorder.setup_index = i
            recorder.set_phase("setup")
        before = probe()
        started = time.perf_counter()
        service = factory(
            graph,
            oracle="hcl",
            num_landmarks=workload.landmarks,
            oracle_config={"selection": "degree"},
            policy=FlushPolicy(max_batch=workload.max_batch, max_delay=None),
            cache_capacity=4096,
            cache_mode="epoch",
            background=False,
        )
        seconds.append(time.perf_counter() - started)
        probes.append(max(before, probe()))
        if recorder is not None:
            recorder.set_phase("paused")
    assert service is not None
    return service, seconds, probes


class Gate:
    """Checks a seeded sample of served answers by BFS.

    A sampled answer keeps a reference to the epoch snapshot that served
    it and is checked after the next publish, when no update waits in
    the buffer, so checking never delays an update's visibility.
    """

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.rng = random.Random(seed)
        self.pending: list[tuple[Any, int, int, float]] = []
        self.checked = 0
        self.failures: list[str] = []

    def offer(self, snapshot: Any, s: int, t: int, answer: float) -> None:
        w = self.workload
        if (
            self.rng.random() < w.check_rate
            and len(self.pending) < w.checks_per_epoch
            and self.checked + len(self.pending) < w.max_checks
        ):
            self.pending.append((snapshot, s, t, answer))

    def check(self) -> None:
        for snapshot, s, t, answer in self.pending:
            expected = bfs_distance(snapshot.index.graph, s, t)
            self.checked += 1
            if answer != expected:
                self.failures.append(
                    f"d({s}, {t}) = {answer} in epoch {snapshot.epoch},"
                    f" BFS says {expected}"
                )
        self.pending.clear()


def measure(
    service: DistanceService,
    workload: Workload,
    inputs: Inputs,
    seconds: float,
    gate: Gate,
    window: Window,
    recorder: Recorder | None,
) -> None:
    """Run the closed loop for ``seconds`` (or until the stream ends)."""
    pairs = inputs.pairs
    cache = service.cache
    next_pair = 0
    buffered: list[float] = []  # submit start times of unpublished updates
    epoch = service.epoch
    applied = service.metrics.updates_applied
    cycle_s = 0.0
    clock = time.perf_counter
    host = 0.0  # the latest probe time
    probed_at = -math.inf

    def refresh() -> None:
        nonlocal host, probed_at
        if clock() - probed_at >= PROBE_PERIOD_S:
            host = probe()
            window.probes.append(host)
            probed_at = clock()

    def query() -> None:
        nonlocal next_pair
        refresh()
        s, t = pairs[next_pair % len(pairs)]
        next_pair += 1
        hits = cache.counts()["hits"]
        started = time.perf_counter()
        try:
            answer = service.distance(s, t)
        except Exception as exc:  # a failed operation is counted, not fatal
            window.query_s.append(time.perf_counter() - started)
            window.query_probe.append(host)
            window.failures.append(f"distance({s}, {t}) raised {exc!r}")
            return
        elapsed = time.perf_counter() - started
        window.query_s.append(elapsed)
        window.query_probe.append(host)
        if cache.counts()["hits"] == hits:
            window.miss_s.append(elapsed)
            window.miss_probe.append(host)
        gate.offer(service.current_snapshot(), s, t, answer)

    gc.collect()
    window.before = tallies(service)
    if recorder is not None:
        recorder.set_phase("measure")
    started = clock()
    deadline = started + seconds
    for update in inputs.updates:
        for _ in range(workload.queries_per_update):
            if clock() >= deadline:
                break
            query()
        if clock() >= deadline:
            break
        refresh()
        submitted_at = time.monotonic()
        call_started = clock()
        try:
            service.submit(update)
        except Exception as exc:  # the writer is poisoned: stop the stream
            window.updates += 1
            window.failures.append(f"submit({update}) raised {exc!r}")
            break
        cycle_s += clock() - call_started
        window.updates += 1
        buffered.append(submitted_at)
        if service.epoch != epoch:
            epoch = service.epoch
            published_at = service.current_snapshot().published_at
            after = probe()
            window.probes.append(after)
            cycle_probe = max(host, after)
            host, probed_at = after, clock()
            window.visibility_s.extend(published_at - t for t in buffered)
            window.visibility_probe.extend([cycle_probe] * len(buffered))
            buffered.clear()
            now_applied = service.metrics.updates_applied
            window.cycle_applied.append(now_applied - applied)
            window.cycle_s.append(cycle_s)
            window.cycle_probe.append(cycle_probe)
            applied, cycle_s = now_applied, 0.0
            gate.check()
            for _ in range(workload.queries_per_epoch):
                if clock() >= deadline:
                    break
                query()
    window.seconds = clock() - started
    if recorder is not None:
        recorder.set_phase("paused")
    window.after = tallies(service)
    window.applied = window.after["applied"] - window.before["applied"]
    window.peak_rss_mb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )


def run_workload(
    workload: Workload,
    inputs: Inputs,
    seconds: float,
    recorder: Recorder | None = None,
    factory: Callable[..., DistanceService] = DistanceService,
) -> Window:
    """Set up, measure, then run the correctness gate."""
    service, setup_s, setup_probe = set_up(workload, inputs, factory, recorder)
    window = Window(setup_s=setup_s, setup_probe=setup_probe)
    gate = Gate(workload, inputs.check_seed)
    try:
        measure(service, workload, inputs, seconds, gate, window, recorder)
    finally:
        service.close()
    gate.check()
    snapshot = service.current_snapshot()
    window.checks = gate.checked
    window.failures.extend(gate.failures)
    # The published labelling must equal a fresh build on the final graph.
    check_minimality = getattr(snapshot.index, "check_minimality", None)
    if check_minimality is not None:
        window.failures.extend(
            f"labelling differs from a fresh build: {problem}"
            for problem in check_minimality()
        )
    return window


def chunk_rates(latencies: list[float], chunks: int = 20) -> list[float]:
    """Queries per second of each of ``chunks`` consecutive query runs."""
    size = max(1, len(latencies) // chunks)
    return [
        len(part) / sum(part)
        for part in (
            latencies[i : i + size] for i in range(0, len(latencies), size)
        )
        if len(part) == size
    ]


def end_to_end(window: Window) -> dict[str, float]:
    """The end-to-end metrics of one window (see :data:`END_TO_END`).

    Rates are medians over the window's pieces, so a slow moment of the
    host moves them less: ``updates_per_s`` over published epochs,
    ``queries_per_s`` over 20 consecutive runs of queries.  Only the
    samples of :func:`full_speed_samples` count, and every time and rate
    is scaled to a host whose full-speed probe takes
    :data:`PROBE_REFERENCE_S` (:func:`host_factor`).
    """
    kept = full_speed_samples(window)
    slow = host_factor(window)
    return {
        "setup_s": statistics.median(kept["setups"]) / slow,
        "visibility_p50_ms": percentile(kept["visibility"], 50) * 1e3 / slow,
        "updates_per_s": statistics.median(kept["epoch_rates"]) * slow,
        "query_p50_us": percentile(kept["queries"], 50) * 1e6 / slow,
        "query_p90_us": percentile(kept["queries"], 90) * 1e6 / slow,
        "query_miss_p50_us": percentile(kept["misses"], 50) * 1e6 / slow,
        "query_miss_p90_us": percentile(kept["misses"], 90) * 1e6 / slow,
        "queries_per_s": statistics.median(chunk_rates(kept["queries"])) * slow,
        "peak_rss_mb": window.peak_rss_mb,
    }


def host_factor(window: Window) -> float:
    """How much slower than the reference host this run's full speed was."""
    return percentile(window.probes, 1) / PROBE_REFERENCE_S


def full_speed_samples(window: Window) -> dict[str, list[float]]:
    """The window's samples taken at full speed.

    A sample counts when its probe is within :func:`full_speed_limit`,
    but never fewer than :data:`MIN_QUERIES` queries (and misses),
    :data:`MIN_CYCLES` epochs or :data:`MIN_SETUPS` constructions: those
    with the fastest probes.
    """
    if not window.cycle_s or not window.applied:
        raise RuntimeError(
            "the window published no applied updates; raise --seconds"
        )
    if not window.miss_s:
        raise RuntimeError("the window measured no cache misses; raise --seconds")
    limit = full_speed_limit(window.probes)
    cycle_limit = at_least(limit, window.cycle_probe, MIN_CYCLES)
    return {
        "setups": full_speed(
            window.setup_s, window.setup_probe,
            at_least(limit, window.setup_probe, MIN_SETUPS),
        ),
        "queries": full_speed(
            window.query_s, window.query_probe,
            at_least(limit, window.query_probe, MIN_QUERIES),
        ),
        "misses": full_speed(
            window.miss_s, window.miss_probe,
            at_least(limit, window.miss_probe, MIN_QUERIES),
        ),
        "epoch_rates": full_speed(
            [n / s for n, s in zip(window.cycle_applied, window.cycle_s)],
            window.cycle_probe, cycle_limit,
        ),
        "visibility": full_speed(
            window.visibility_s, window.visibility_probe, cycle_limit
        ),
    }
