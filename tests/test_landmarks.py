"""Landmark selection strategies."""

import pytest

from repro.core.landmarks import select_landmarks
from repro.errors import IndexStateError
from repro.graph import generators


def test_degree_selection_picks_hubs():
    graph = generators.star(20)
    assert select_landmarks(graph, 1)[0] == 0
    graph = generators.barabasi_albert(200, 3, seed=1)
    chosen = select_landmarks(graph, 5)
    degrees = sorted((graph.degree(v) for v in range(200)), reverse=True)
    assert sorted((graph.degree(v) for v in chosen), reverse=True) == degrees[:5]


def test_degree_selection_deterministic_ties():
    graph = generators.cycle(10)  # all degrees equal
    assert select_landmarks(graph, 3) == (0, 1, 2)


def sorted_by_degree(graph, count):
    """The reference ranking: (-degree, vertex) tuples, sorted."""
    order = sorted(
        range(graph.num_vertices), key=lambda v: (-graph.degree(v), v)
    )
    return tuple(order[:count])


@pytest.mark.parametrize(
    "graph",
    [
        generators.barabasi_albert(3000, 3, seed=5),
        generators.grid(30, 40),  # interior degrees all tie at 4
        generators.to_directed(
            generators.erdos_renyi(300, 0.03, seed=2), seed=2
        ),  # a digraph ranks by total degree
        generators.star(12),
    ],
    ids=["ba", "grid", "digraph", "star"],
)
def test_degree_selection_matches_the_tuple_sort(graph):
    n = graph.num_vertices
    for count in (1, 20, n):
        chosen = select_landmarks(graph, min(count, n))
        assert chosen == sorted_by_degree(graph, min(count, n))
        assert all(type(v) is int for v in chosen)


def test_random_selection_seeded():
    graph = generators.erdos_renyi(50, 0.1, seed=0)
    a = select_landmarks(graph, 5, strategy="random", seed=7)
    b = select_landmarks(graph, 5, strategy="random", seed=7)
    assert a == b
    assert len(set(a)) == 5


def test_invalid_requests():
    graph = generators.path(4)
    with pytest.raises(IndexStateError):
        select_landmarks(graph, 0)
    with pytest.raises(IndexStateError):
        select_landmarks(graph, 9)
    with pytest.raises(IndexStateError):
        select_landmarks(graph, 2, strategy="pagerank")
