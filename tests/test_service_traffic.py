"""Scenario builders and the closed-/open-loop load generators."""

import pytest

from repro.graph import generators
from repro.service import (
    ClosedLoopGenerator,
    DistanceService,
    FlushPolicy,
    OpenLoopGenerator,
    mixed_scenario,
    query_only_scenario,
    replay,
)
from repro.service.traffic import Op
from repro.graph.batch import EdgeUpdate, normalize_batch


@pytest.fixture
def small_graph():
    return generators.erdos_renyi(100, 0.06, seed=3)


def make_service(scenario, **kwargs):
    kwargs.setdefault("num_landmarks", 5)
    kwargs.setdefault("policy", FlushPolicy(max_batch=20, max_delay=None))
    return DistanceService(scenario.graph, **kwargs)


def test_mixed_scenario_shape(small_graph):
    scenario = mixed_scenario(
        small_graph, num_queries=200, num_batches=3, batch_size=10, seed=1
    )
    assert scenario.num_queries == 200
    assert scenario.num_updates == 30
    assert len(scenario.ops) == 230
    # The prepared graph is a copy: the input graph is never mutated.
    assert small_graph.num_vertices == scenario.graph.num_vertices
    # Update order is preserved relative to the workload stream.
    updates = [op.update for op in scenario.ops if not op.is_query]
    assert len(updates) == 30


def test_mixed_scenario_is_deterministic(small_graph):
    a = mixed_scenario(small_graph, num_queries=50, seed=4)
    b = mixed_scenario(small_graph, num_queries=50, seed=4)
    assert [
        (op.query, op.update) for op in a.ops
    ] == [(op.query, op.update) for op in b.ops]


def test_mixed_scenario_updates_valid_in_stream_order(small_graph):
    """Replaying the update stream in order must keep every update valid
    (deletions hit live edges, insertions absent ones)."""
    scenario = mixed_scenario(
        small_graph, num_queries=10, num_batches=4, batch_size=20, seed=2
    )
    graph = scenario.graph.copy()
    for op in scenario.ops:
        if op.is_query:
            continue
        normalised = normalize_batch([op.update], graph)
        assert len(normalised) == 1, f"invalid in-order update {op.update}"
        update = normalised[0]
        if update.is_insert:
            graph.add_edge(update.u, update.v)
        else:
            graph.remove_edge(update.u, update.v)


def test_query_only_scenario(small_graph):
    scenario = query_only_scenario(small_graph, num_queries=40, seed=0)
    assert scenario.num_queries == 40
    assert scenario.num_updates == 0


@pytest.mark.parametrize("oracle", ["hcl", "hcl-directed"])
def test_replay_with_validation_is_exact(small_graph, oracle):
    scenario = mixed_scenario(
        small_graph, num_queries=300, num_batches=3, batch_size=12, seed=5
    )
    if oracle == "hcl-directed":
        # Each edge becomes its arc pair, as the CLI adapts graphs for a
        # directed oracle; the updates then name single arcs.
        scenario.graph = generators.to_directed(
            scenario.graph, reciprocal_p=1.0
        )
    with make_service(
        scenario,
        oracle=oracle,
        policy=FlushPolicy(max_batch=8, max_delay=None),
    ) as service:
        outcome = replay(service, scenario.ops, validate=True)
    assert outcome["queries"] == 300
    assert outcome["updates"] == 36
    assert outcome["mismatches"] == 0, outcome["failures"]


def test_closed_loop_generator_consumes_every_op(small_graph):
    scenario = mixed_scenario(
        small_graph, num_queries=200, num_batches=2, batch_size=10, seed=6
    )
    with make_service(scenario) as service:
        outcome = ClosedLoopGenerator(num_clients=3).run(
            service, scenario.ops
        )
    assert outcome["queries"] == 200
    assert outcome["updates"] == 20
    assert outcome["clients"] == 3
    assert outcome["throughput_ops"] > 0
    assert service.metrics.queries_served == 200
    assert service.metrics.updates_submitted == 20


def test_closed_loop_generator_propagates_worker_errors(small_graph):
    scenario = query_only_scenario(small_graph, num_queries=5, seed=0)
    bad = Op(query=(0, 10_000))  # out of range -> IndexStateError
    with make_service(scenario) as service:
        with pytest.raises(Exception):
            ClosedLoopGenerator(num_clients=2).run(
                service, scenario.ops + [bad]
            )


def test_closed_loop_rejects_zero_clients():
    with pytest.raises(ValueError):
        ClosedLoopGenerator(num_clients=0)


def test_open_loop_generator_paces_and_reports(small_graph):
    scenario = mixed_scenario(
        small_graph, num_queries=60, num_batches=1, batch_size=5, seed=8
    )
    with make_service(scenario) as service:
        outcome = OpenLoopGenerator(rate_per_s=50_000, seed=1).run(
            service, scenario.ops
        )
    assert outcome["queries"] == 60
    assert outcome["updates"] == 5
    assert outcome["target_rate"] == 50_000
    assert outcome["response_p99_s"] >= outcome["response_p50_s"] >= 0.0


def test_open_loop_rejects_bad_rate():
    with pytest.raises(ValueError):
        OpenLoopGenerator(rate_per_s=0)


def test_op_apply_dispatch(small_graph):
    scenario = query_only_scenario(small_graph, num_queries=1, seed=0)
    with make_service(scenario) as service:
        query_op = scenario.ops[0]
        assert query_op.apply(service) == service.distance(*query_op.query)
        update_op = Op(update=EdgeUpdate.insert(0, 1))
        assert update_op.apply(service) is None
        assert not update_op.is_query


def test_skewed_traffic_makes_the_cache_earn_hits(small_graph):
    uniform = mixed_scenario(
        small_graph, num_queries=600, num_batches=1, batch_size=5, seed=9
    )
    skewed = mixed_scenario(
        small_graph, num_queries=600, num_batches=1, batch_size=5, seed=9,
        query_skew=5.0,
    )
    rates = {}
    for name, scenario in (("uniform", uniform), ("skewed", skewed)):
        with make_service(scenario, cache_capacity=2048) as service:
            replay(service, scenario.ops)
            rates[name] = service.cache.hit_rate
    assert rates["skewed"] > rates["uniform"]
    assert rates["skewed"] > 0.1  # hot-tier repeats actually hit
