"""Copy-on-write clones and the maintained CSR view of both graph classes.

``copy()`` shares adjacency sets until one side writes a vertex, so every
write — single edges, bulk inserts, vertex growth — must stay on the side
that made it, for clones, originals and copies of copies alike.  The view
``csr()`` maintains by writing only the rows written since must always
equal a from-scratch freeze; it writes them into the row buffers of the
view before last only while nothing holds those, and relays out
otherwise (after growth, and when the tail of a buffer is full).
"""

from __future__ import annotations

import random
import sys
import threading

import numpy as np
import pytest

from repro.graph import generators
from repro.graph.csr import CSRGraph, CSRListView
from repro.graph.csr_rows import (
    _UNHELD_BOUNDS_REFS,
    _UNHELD_REFS,
    _BackRows,
    _relayout,
)
from repro.graph.digraph import DynamicDiGraph
from repro.graph.dynamic_graph import FrozenGraph
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from tests.conftest import csr_paths, csr_paths_since

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
    """Every row of the maintained view, in content and order, equals a
    fresh freeze's: its compacted arrays and its adjacency lists (its raw
    arrays hold slack slots, a fresh freeze's none)."""
    for maintained, fresh in zip(maintained_views(graph), fresh_views(graph)):
        for mine, theirs in zip(maintained.compact(), fresh.compact()):
            assert np.array_equal(mine, theirs)
        assert maintained.num_arcs == fresh.num_arcs
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


# ----------------------------------------------------------------------
# recycled row buffers
# ----------------------------------------------------------------------


def paths(directions: int, recycled: bool) -> dict[str, float]:
    """The csr_paths delta of one freeze of ``directions`` directions."""
    hits = float(directions)
    return {"recycled": hits, "relaid": 0.0} if recycled else {
        "recycled": 0.0, "relaid": hits
    }


def directions(graph) -> int:
    return 2 if isinstance(graph, DynamicDiGraph) else 1


def freeze_one_write(graph, rng: random.Random) -> dict[str, float]:
    """Insert one absent edge, freeze; the row-buffer paths it took."""
    before = csr_paths()
    graph.add_edge(*absent_pair(graph, rng))
    graph.csr()
    return csr_paths_since(before)


def test_unheld_back_view_refcount_is_pinned():
    """_UNHELD_REFS and _UNHELD_BOUNDS_REFS are what getrefcount
    reports, read as a freeze reads them, for a back view, its arrays,
    the array its row bounds are columns of, and its list, when only the
    pair holds them, and one more holder shows; so a later CPython that
    counts differently fails here instead of silently relaying out on
    every freeze (or recycling held rows)."""
    graph = make("undirected")
    pair = _BackRows(
        _relayout(None, graph._adj, set(), graph.num_vertices), set()
    )
    pair.view.adjacency_lists()
    # Counted outside the asserts, whose rewriting holds references.
    unheld = (
        sys.getrefcount(pair.view),
        sys.getrefcount(pair.view.starts),
        sys.getrefcount(pair.view.ends),
        sys.getrefcount(pair.view.indices),
        sys.getrefcount(pair.view._lists),
    )
    bounds = sys.getrefcount(pair.view.starts.base)
    row = pair.view.neighbors(0)
    first = pair.view.ends[:1]
    held = (
        sys.getrefcount(pair.view.indices),
        sys.getrefcount(pair.view.starts.base),
    )
    del row, first
    released = (
        sys.getrefcount(pair.view.indices),
        sys.getrefcount(pair.view.starts.base),
    )
    assert unheld == (_UNHELD_REFS,) * 5
    assert bounds == _UNHELD_BOUNDS_REFS
    assert held == (_UNHELD_REFS + 1, _UNHELD_BOUNDS_REFS + 1)
    assert released == (_UNHELD_REFS, _UNHELD_BOUNDS_REFS)


READERS = {
    "snapshot_view": lambda graph: FrozenGraph(graph.csr()),
    "indices_slice": lambda graph: graph.csr().neighbors(1),
    "starts": lambda graph: graph.csr().starts,
    "ends_slice": lambda graph: graph.csr().ends[2:9],
    "adjacency_lists": lambda graph: graph.csr().adjacency_lists(),
    "list_view": lambda graph: graph.csr().list_view(),
}


def held_rows(held) -> list:
    """What a held reader shows, as plain Python values."""
    if isinstance(held, FrozenGraph):
        return sorted(held.edges())
    if isinstance(held, np.ndarray):
        return held.tolist()
    if isinstance(held, CSRListView):
        return [list(held.neighbors(v)) for v in range(held.num_vertices)]
    return [list(row) for row in held]


@pytest.mark.parametrize("reader", sorted(READERS))
def test_a_held_reader_forces_a_relayout_until_released(reader):
    """A reader of a view — a snapshot's graph, a row slice, the
    ``starts`` array, a slice of ``ends``, the adjacency lists or a list
    view — keeps its
    rows from being recycled: the freeze that would write them relays
    out instead, and what the reader sees never changes; once it is
    released, its rows are recycled."""
    graph = make("undirected")
    graph.csr().adjacency_lists()  # expanded, as an index's reads do
    rng = random.Random(reader)
    held = READERS[reader](graph)
    before = held_rows(held)
    assert freeze_one_write(graph, rng) == paths(1, False)  # no pair yet
    assert freeze_one_write(graph, rng) == paths(1, False)  # held's rows
    assert held_rows(held) == before
    held = READERS[reader](graph)  # and the old reader goes
    assert freeze_one_write(graph, rng) == paths(1, True)
    del held
    assert freeze_one_write(graph, rng) == paths(1, True)  # held's rows
    assert_view_matches_freeze(graph)


@pytest.mark.parametrize("kind", KINDS)
def test_growth_relays_out(kind):
    """A freeze after vertex growth relays out, and so does the next one
    (its back pair is the view from before the growth); then the graph
    recycles again, and every view equals a fresh freeze."""
    graph = make(kind)
    rng = random.Random(kind)
    graph.csr()
    sides = directions(graph)
    freeze_one_write(graph, rng)
    assert freeze_one_write(graph, rng) == paths(sides, True)
    n = graph.num_vertices
    graph.ensure_vertex(n)
    graph.add_edge(0, n)
    before = csr_paths()
    graph.csr()
    assert csr_paths_since(before) == paths(sides, False)
    assert_view_matches_freeze(graph)
    assert freeze_one_write(graph, rng) == paths(sides, False)
    assert freeze_one_write(graph, rng) == paths(sides, True)
    assert_view_matches_freeze(graph)


def test_a_row_that_outgrows_its_slots_moves_to_the_tail_until_it_fills():
    """Inserting edge after edge at one vertex: its row outgrows its
    slots and moves to the tail of a recycled buffer, and once a
    buffer's tail is full the freeze relays out; every view equals a
    fresh freeze throughout."""
    graph = make("undirected")
    graph.csr().adjacency_lists()
    moved = relaid_after_move = False
    for v in range(1, graph.num_vertices):
        if graph.has_edge(0, v):
            continue
        before = csr_paths()
        graph.add_edge(0, v)
        view = graph.csr()
        path = csr_paths_since(before)
        # A layout places rows in vertex order, so row 0 starts at slot
        # 0 until it moves to the tail.
        if path == paths(1, True) and view.starts[0] > 0:
            moved = True
        elif path == paths(1, False) and moved:
            relaid_after_move = True  # with nothing held: the tail is full
        assert_view_matches_freeze(graph)
    assert moved and relaid_after_move


@pytest.mark.parametrize("kind", KINDS)
def test_a_copy_never_shares_the_back_pair(kind):
    """A clone shares the view but not the back pair: its first freeze
    relays out, and when both graphs then hold the view they shared as
    their back pair, the freeze that would recycle it relays out."""
    original = make(kind)
    rng = random.Random(f"{kind}:copy")
    original.csr()
    freeze_one_write(original, rng)
    clone = original.copy()
    sides = directions(original)
    assert freeze_one_write(clone, rng) == paths(sides, False)
    # Both back pairs now hold the view the two graphs shared.
    assert freeze_one_write(original, rng) == paths(sides, True)
    assert freeze_one_write(original, rng) == paths(sides, False)
    assert freeze_one_write(original, rng) == paths(sides, True)
    assert_view_matches_freeze(original)
    assert_view_matches_freeze(clone)


def test_replaying_past_the_break_even_share_relays_out(monkeypatch):
    """A freeze whose rows to replay pass the break-even share of V
    relays out instead of recycling; below it, it recycles.  A small
    graph keeps recycling (the share's intercept covers it), so the test
    drops the intercept, as on a large graph."""
    from repro.graph import csr_rows

    graph = make("undirected")
    rng = random.Random(8)
    graph.csr()
    freeze_one_write(graph, rng)
    monkeypatch.setattr(csr_rows, "_REPLAY_ROWS", 0)
    # One written edge per freeze: at least 2 rows to replay, past a
    # share of V this small.
    monkeypatch.setattr(csr_rows, "_REPLAY_SHARE", 1.5 / graph.num_vertices)
    assert freeze_one_write(graph, rng) == paths(1, False)
    monkeypatch.undo()
    assert freeze_one_write(graph, rng) == paths(1, True)
    assert_view_matches_freeze(graph)
