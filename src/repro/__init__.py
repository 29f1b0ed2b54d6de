"""BatchHL — answering distance queries on batch-dynamic networks.

A complete, from-scratch Python reproduction of *BatchHL: Answering Distance
Queries on Batch-Dynamic Networks at Scale* (Farhan, Wang, Koehler —
SIGMOD 2022), including the highway cover labelling substrate, the
batch-dynamic search/repair algorithms and all evaluation baselines
(FulFD, FulPLL, PSL*, BiBFS).

Quickstart::

    from repro import DynamicGraph, EdgeUpdate, open_oracle

    graph = DynamicGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4)])
    index = open_oracle("hcl", graph, num_landmarks=2)
    assert index.distance(0, 4) == 4
    index.batch_update([EdgeUpdate.insert(0, 4), EdgeUpdate.delete(1, 2)])
    assert index.distance(0, 4) == 1

Every index and baseline is registered in the oracle registry
(:mod:`repro.api`); ``python -m repro oracles`` lists them with their
declared capabilities.
"""

from repro.api import (
    Capabilities,
    DistanceOracle,
    available_oracles,
    load_oracle,
    open_oracle,
    oracle_spec,
    register_oracle,
)
from repro.constants import INF
from repro.core.batchhl import Variant
from repro.core.directed import DirectedHighwayCoverIndex  # reprolint: disable=API001 -- public compatibility re-export
from repro.core.index import HighwayCoverIndex  # reprolint: disable=API001 -- public compatibility re-export
from repro.core.labelling import HighwayCoverLabelling
from repro.core.stats import UpdateStats
from repro.core.weighted import WeightedHighwayCoverIndex  # reprolint: disable=API001 -- public compatibility re-export
from repro.errors import (
    BatchError,
    CapabilityError,
    GraphError,
    IndexStateError,
    OracleConfigError,
    OracleError,
    ReproError,
    UnknownOracleError,
    WorkloadError,
)
from repro.graph.batch import Batch, EdgeUpdate, UpdateKind
from repro.graph.digraph import DynamicDiGraph
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.weighted_graph import WeightedDynamicGraph, WeightUpdate
from repro.parallel.pool import LandmarkShardPool
from repro.service.engine import DistanceService
from repro.service.scheduler import FlushPolicy, FlushTrigger

__version__ = "1.0.0"

__all__ = [
    "INF",
    "Variant",
    "Capabilities",
    "DistanceOracle",
    "available_oracles",
    "load_oracle",
    "open_oracle",
    "oracle_spec",
    "register_oracle",
    "HighwayCoverIndex",
    "LandmarkShardPool",
    "DirectedHighwayCoverIndex",
    "WeightedHighwayCoverIndex",
    "HighwayCoverLabelling",
    "UpdateStats",
    "Batch",
    "EdgeUpdate",
    "UpdateKind",
    "DynamicGraph",
    "DynamicDiGraph",
    "WeightedDynamicGraph",
    "WeightUpdate",
    "DistanceService",
    "FlushPolicy",
    "FlushTrigger",
    "ReproError",
    "GraphError",
    "BatchError",
    "IndexStateError",
    "WorkloadError",
    "OracleError",
    "UnknownOracleError",
    "CapabilityError",
    "OracleConfigError",
    "__version__",
]
