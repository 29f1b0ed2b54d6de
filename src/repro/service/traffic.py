"""Load generation: mixed query/update scenarios + closed/open-loop drivers.

A *scenario* is a prepared graph plus an ordered stream of operations —
distance queries interleaved with edge updates — built on top of the
existing :mod:`repro.workloads` machinery, so the update stream follows
the paper's decremental / incremental / fully-dynamic protocols and every
update is realistic for the graph it targets.

Two driver shapes, mirroring standard load-testing practice:

* :class:`ClosedLoopGenerator` — N client threads issue operations
  back-to-back; throughput is whatever the service sustains.  This is the
  right tool for saturation benchmarks.
* :class:`OpenLoopGenerator` — operations arrive on a Poisson schedule at
  a target rate regardless of completion, and the reported *response*
  latency is measured from the scheduled arrival, so queueing delay when
  the service falls behind is charged honestly (no coordinated omission).
  Response times go into the same log-bucketed obs
  :class:`~repro.obs.metrics.Histogram` the service's own latencies use.

:func:`replay` is the single-threaded variant used for validation: with
``validate=True`` every query's answer is checked against a BFS oracle on
the serving snapshot's own graph, proving the served answers exact for
their epoch.
"""

from __future__ import annotations

from typing import Any, Iterable

import threading
import time
from dataclasses import dataclass, field

from repro.graph.batch import EdgeUpdate
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.traversal import bfs_distance_pair
from repro.constants import INF
from repro.obs.metrics import Histogram
from repro.service.engine import DistanceService
from repro.utils.rng import make_rng
from repro.workloads.queries import (
    sample_query_pairs,
    sample_skewed_query_pairs,
)
from repro.workloads.updates import make_workload


@dataclass(frozen=True)
class Op:
    """One scenario event: a query ``(s, t)`` or an :class:`EdgeUpdate`."""

    query: tuple[int, int] | None = None
    update: EdgeUpdate | None = None

    @property
    def is_query(self) -> bool:
        return self.query is not None

    def apply(self, service: DistanceService) -> float | None:
        """Execute against a service; returns the distance for queries."""
        if self.query is not None:
            return service.distance(*self.query)
        service.submit(self.update)
        return None


@dataclass
class Scenario:
    """A prepared graph plus the operation stream to run against it."""

    graph: DynamicGraph
    ops: list[Op] = field(default_factory=list)
    setting: str = "fully-dynamic"
    seed: int = 0

    @property
    def num_queries(self) -> int:
        return sum(1 for op in self.ops if op.is_query)

    @property
    def num_updates(self) -> int:
        return len(self.ops) - self.num_queries


def mixed_scenario(
    graph: DynamicGraph,
    num_queries: int = 2000,
    num_batches: int = 4,
    batch_size: int = 50,
    setting: str = "fully-dynamic",
    seed: int = 0,
    query_skew: float = 0.0,
) -> Scenario:
    """Interleave a paper-style update workload with random queries.

    The update stream keeps its workload order (so deletions target edges
    that are live when they arrive); queries are scattered uniformly
    through it.  ``query_skew > 0`` draws query endpoints from a hot-tier
    mixture instead of uniformly — the traffic shape that makes the
    serving cache earn its keep.  The returned scenario owns a *prepared*
    copy of ``graph`` — build the service on ``scenario.graph``, not on
    the original.
    """
    workload = make_workload(setting, graph, num_batches, batch_size, seed)
    updates = workload.flattened()
    if query_skew > 0:
        queries = sample_skewed_query_pairs(
            workload.graph, num_queries, seed=seed + 1, skew=query_skew
        )
    else:
        queries = sample_query_pairs(
            workload.graph, num_queries, seed=seed + 1
        )

    rng = make_rng(seed + 2)
    total = len(updates) + len(queries)
    update_slots = set(rng.sample(range(total), len(updates)))
    ops: list[Op] = []
    u_iter = iter(updates)
    q_iter = iter(queries)
    for slot in range(total):
        if slot in update_slots:
            ops.append(Op(update=next(u_iter)))
        else:
            ops.append(Op(query=next(q_iter)))
    return Scenario(workload.graph, ops, setting, seed)


def query_only_scenario(
    graph: DynamicGraph, num_queries: int = 5000, seed: int = 0
) -> Scenario:
    """Pure read traffic (cache/read-path benchmarks)."""
    pairs = sample_query_pairs(graph, num_queries, seed=seed)
    return Scenario(graph.copy(), [Op(query=p) for p in pairs], "query-only", seed)


def replay(
    service: DistanceService, ops: Iterable[Op], validate: bool = False
) -> dict[str, Any]:
    """Run ops on the calling thread; optionally oracle-check each answer.

    Validation BFS-checks every answer against the graph owned by the
    snapshot that is current *after* the answer returns, over its
    out-arcs when the oracle is directed (with a foreground service and a
    single thread the snapshot cannot flip mid-query, so this is an exact
    check).  Returns counts + mismatch descriptions.
    """
    queries = updates = mismatches = 0
    failures: list[str] = []
    for op in ops:
        if op.is_query:
            queries += 1
            answer = op.apply(service)
            if validate:
                snapshot = service.current_snapshot()
                s, t = op.query
                graph = snapshot.index.graph
                if snapshot.index.capabilities.directed:
                    graph = graph.out_view()
                expected = bfs_distance_pair(graph, s, t)
                expected = float("inf") if expected >= INF else float(expected)
                if answer != expected:
                    mismatches += 1
                    if len(failures) < 10:
                        failures.append(
                            f"epoch {snapshot.epoch}: d({s},{t}) ="
                            f" {answer}, oracle {expected}"
                        )
        else:
            updates += 1
            op.apply(service)
    return {
        "queries": queries,
        "updates": updates,
        "mismatches": mismatches,
        "failures": failures,
    }


class ClosedLoopGenerator:
    """N client threads draining a shared op stream back-to-back."""

    def __init__(self, num_clients: int = 4) -> None:
        if num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        self.num_clients = num_clients

    def run(
        self, service: DistanceService, ops: Iterable[Op]
    ) -> dict[str, Any]:
        stream = iter(list(ops))
        lock = threading.Lock()
        counts = {"queries": 0, "updates": 0}
        errors: list[BaseException] = []

        def client() -> None:
            local_q = local_u = 0
            try:
                while True:
                    with lock:
                        op = next(stream, None)
                    if op is None:
                        break
                    op.apply(service)
                    if op.is_query:
                        local_q += 1
                    else:
                        local_u += 1
            except BaseException as exc:  # surfaced to the caller
                errors.append(exc)
            finally:
                with lock:
                    counts["queries"] += local_q
                    counts["updates"] += local_u

        started = time.perf_counter()
        threads = [
            threading.Thread(target=client, name=f"loadgen-{i}")
            for i in range(self.num_clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        elapsed = time.perf_counter() - started
        total = counts["queries"] + counts["updates"]
        return {
            **counts,
            "clients": self.num_clients,
            "elapsed_s": elapsed,
            "throughput_ops": total / elapsed if elapsed > 0 else 0.0,
        }


class OpenLoopGenerator:
    """Poisson arrivals at a target rate, single dispatcher thread.

    Response latency is measured from each op's *scheduled* arrival time,
    so when the service cannot keep up the queueing delay shows in the
    percentiles instead of silently stretching the schedule.
    """

    def __init__(self, rate_per_s: float, seed: int = 0) -> None:
        if rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive")
        self.rate = rate_per_s
        self._rng = make_rng(seed)

    def run(
        self, service: DistanceService, ops: Iterable[Op]
    ) -> dict[str, Any]:
        response = Histogram("response_seconds")
        scheduled = time.monotonic()
        counts = {"queries": 0, "updates": 0}
        behind = 0
        for op in ops:
            scheduled += self._rng.expovariate(self.rate)
            now = time.monotonic()
            if now < scheduled:
                time.sleep(scheduled - now)
            else:
                behind += 1
            op.apply(service)
            response.observe(time.monotonic() - scheduled)
            counts["queries" if op.is_query else "updates"] += 1
        state = response.state()
        return {
            **counts,
            "target_rate": self.rate,
            "arrivals_behind_schedule": behind,
            "response_p50_s": state.quantile(50.0),
            "response_p99_s": state.quantile(99.0),
            "response_max_s": state.max,
        }
