"""Online serving subsystem for batch-dynamic distance queries.

Turns the offline BatchHL reproduction into a query *service*: readers
answer against immutable epoch snapshots while a single writer coalesces
incoming edge updates into batches (the paper's amortisation lever) and
repairs the labelling off the read path.

    from repro import DynamicGraph
    from repro.service import DistanceService, FlushPolicy

    graph = DynamicGraph.from_edges([(0, 1), (1, 2), (2, 3)])
    with DistanceService(graph, num_landmarks=2,
                         policy=FlushPolicy(max_batch=64)) as service:
        service.distance(0, 3)        # -> 3.0
        service.insert_edge(0, 3)
        service.flush()               # publish epoch 1
        service.distance(0, 3)        # -> 1.0

See :mod:`repro.service.engine` for the consistency contract and
:mod:`repro.service.traffic` for load generation.
"""

from repro.service.cache import QueryCache
from repro.service.engine import DistanceService, EpochSnapshot, EpochStore
from repro.service.metrics import ServiceMetrics, percentile
from repro.service.scheduler import (
    CoalescingScheduler,
    FlushPolicy,
    FlushTrigger,
)
from repro.service.traffic import (
    ClosedLoopGenerator,
    Op,
    OpenLoopGenerator,
    Scenario,
    mixed_scenario,
    query_only_scenario,
    replay,
)

__all__ = [
    "DistanceService",
    "EpochSnapshot",
    "EpochStore",
    "QueryCache",
    "CoalescingScheduler",
    "FlushPolicy",
    "FlushTrigger",
    "ServiceMetrics",
    "percentile",
    "ClosedLoopGenerator",
    "OpenLoopGenerator",
    "Op",
    "Scenario",
    "mixed_scenario",
    "query_only_scenario",
    "replay",
]
