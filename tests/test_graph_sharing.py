"""Copy-on-write clones and the maintained CSR view of both graph classes.

``copy()`` shares adjacency sets until one side writes a vertex, so every
write — single edges, bulk inserts, vertex growth — must stay on the side
that made it, for clones, originals and copies of copies alike.  The view
``csr()`` maintains by re-encoding only written rows must always equal a
from-scratch freeze.
"""

from __future__ import annotations

import random
import sys
import threading

import numpy as np
import pytest

from repro.graph import generators
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DynamicDiGraph
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer

KINDS = ("undirected", "directed")


def make(kind: str, seed: int = 3):
    graph = generators.erdos_renyi(30, 0.12, seed=seed)
    if kind == "directed":
        return generators.to_directed(graph, reciprocal_p=0.5, seed=seed)
    return graph


def topology(graph) -> tuple[int, list]:
    return graph.num_vertices, sorted(graph.edges())


def fresh_views(graph) -> tuple[CSRGraph, ...]:
    if isinstance(graph, DynamicDiGraph):
        return CSRGraph.from_digraph(graph)
    return (CSRGraph.from_graph(graph),)


def maintained_views(graph) -> tuple[CSRGraph, ...]:
    views = graph.csr()
    return views if isinstance(views, tuple) else (views,)


def assert_view_matches_freeze(graph) -> None:
    for maintained, fresh in zip(maintained_views(graph), fresh_views(graph)):
        assert np.array_equal(maintained.indptr, fresh.indptr)
        assert np.array_equal(maintained.indices, fresh.indices)
        assert maintained.adjacency_lists() == fresh.adjacency_lists()


def absent_pair(graph, rng: random.Random) -> tuple[int, int]:
    n = graph.num_vertices
    while True:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b and not graph.has_edge(a, b):
            return a, b


def writes(kind: str):
    """One named write per kind of mutation a graph offers."""

    def add(graph, rng):
        graph.add_edge(*absent_pair(graph, rng))

    def remove(graph, rng):
        graph.remove_edge(*rng.choice(sorted(graph.edges())))

    def grow(graph, rng):
        n = graph.num_vertices
        graph.ensure_vertex(n + 1)
        graph.add_edge(rng.randrange(n), n + 1)

    def bulk(graph, rng):
        graph.add_edges_bulk([absent_pair(graph, rng) for _ in range(4)])

    ops = {"add_edge": add, "remove_edge": remove, "growth": grow}
    if kind == "undirected":
        ops["add_edges_bulk"] = bulk
    return ops


CASES = [(kind, op) for kind in KINDS for op in writes(kind)]


@pytest.mark.parametrize("kind,op", CASES, ids=[f"{k}-{o}" for k, o in CASES])
@pytest.mark.parametrize("writer", ["original", "clone"])
def test_writes_never_cross_a_copy(kind, op, writer):
    """A write on either side of a copy shows on that side only."""
    write = writes(kind)[op]
    rng = random.Random(f"{kind}:{op}:{writer}")
    original = make(kind)
    original.csr()  # share a frozen view as well as the sets
    clone = original.copy()
    target, other = (original, clone) if writer == "original" else (
        clone, original
    )
    before = topology(other)
    expected = topology(target)
    write(target, rng)
    assert topology(target) != expected
    assert topology(other) == before
    assert_view_matches_freeze(target)
    assert_view_matches_freeze(other)
    # And back the other way: the side that stayed still now writes.
    after_target = topology(target)
    write(other, rng)
    assert topology(target) == after_target
    assert_view_matches_freeze(target)
    assert_view_matches_freeze(other)


@pytest.mark.parametrize("kind", KINDS)
def test_copies_of_copies_stay_isolated(kind):
    """Random writes over a family of copies, each copied from a random
    earlier member: every member matches its own replayed edge list, and
    the view a written member re-encodes (after one or several writes)
    matches a fresh freeze."""
    rng = random.Random(kind)
    family = [make(kind, seed=11)]
    for view in maintained_views(family[0]):
        view.adjacency_lists()
    truth = [topology(family[0])]
    ops = list(writes(kind).values())
    for _ in range(80):
        pick = rng.randrange(len(family))
        if rng.random() < 0.25:
            family.append(family[pick].copy())
            truth.append(topology(family[pick]))
            continue
        graph = family[pick]
        rng.choice(ops)(graph, rng)
        truth[pick] = topology(graph)
        if rng.random() < 0.5:
            assert_view_matches_freeze(graph)
        for member, want in zip(family, truth):
            assert topology(member) == want
    for member in family:
        assert_view_matches_freeze(member)


@pytest.mark.parametrize("kind", KINDS)
def test_csr_reencodes_only_written_rows(kind):
    """The view is reused while nothing is written; afterwards one
    ``freeze_csr`` span and the row counter cover just the written rows,
    and the expanded adjacency lists carry over."""
    graph = make(kind)
    first = maintained_views(graph)
    for view in first:
        view.adjacency_lists()
    assert maintained_views(graph) == first  # nothing written: same view
    registry = get_registry()
    rows_before = registry.snapshot().get("repro_csr_rows_encoded_total", 0)
    freezes_before = registry.snapshot()["repro_csr_freeze_total"]
    a, b = absent_pair(graph, random.Random(5))
    graph.add_edge(a, b)
    tracer = get_tracer()
    tracer.enable()
    tracer.clear()
    try:
        second = maintained_views(graph)
        events = [e for e in tracer.events() if e["name"] == "freeze_csr"]
    finally:
        tracer.disable()
        tracer.clear()
    assert len(events) == 1 and events[0]["args"]["rows"] == 2
    snapshot = registry.snapshot()
    assert snapshot["repro_csr_rows_encoded_total"] == rows_before + 2
    assert snapshot["repro_csr_freeze_total"] == freezes_before + len(first)
    for old, new in zip(first, second):
        assert new is not old
        assert new._lists is not None  # carried, not re-expanded
    assert_view_matches_freeze(graph)
    # The old views still freeze the old topology.
    assert b not in first[0].neighbors(a)


@pytest.mark.parametrize("kind", KINDS)
def test_published_copies_hold_still_under_a_concurrent_writer(kind):
    """Reader threads (more than cores) copy and write copies of graphs
    published by a writer thread that keeps writing the graph they were
    copied from: no published graph's edge set ever changes."""
    writer_graph = make(kind, seed=21)
    writer_graph.csr()
    published = [(writer_graph.copy(), sorted(writer_graph.edges()))]
    failures: list[str] = []
    done = threading.Event()
    ops = list(writes(kind).values())

    def write_and_publish() -> None:
        rng = random.Random(1)
        try:
            for step in range(300):
                rng.choice(ops)(writer_graph, rng)
                if step % 5 == 0:
                    writer_graph.csr()
                    published.append(
                        (writer_graph.copy(), sorted(writer_graph.edges()))
                    )
        finally:
            done.set()

    def read(seed: int) -> None:
        rng = random.Random(seed)
        while not done.is_set() and not failures:
            graph, edges = published[-1]
            clone = graph.copy()
            rng.choice(ops)(clone, rng)
            if sorted(graph.edges()) != edges:
                failures.append(f"reader {seed} saw a published graph move")

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=write_and_publish)] + [
            threading.Thread(target=read, args=(seed,)) for seed in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures
    for graph, edges in published:
        assert sorted(graph.edges()) == edges
        assert_view_matches_freeze(graph)
