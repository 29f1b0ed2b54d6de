"""Storage-level tests for HighwayCoverLabelling."""

import numpy as np
import pytest

from repro.constants import INF, NO_LABEL
from repro.core.construction import build_labelling
from repro.core.labelling import HighwayCoverLabelling, decode_distances
from repro.core.lengths import FALSE_KEY, TRUE_KEY
from repro.errors import IndexStateError
from repro.graph import generators
from tests.conftest import assert_reader_matches_reference, landmark_arrays


def small_labelling():
    # Path 0-1-2-3-4 with landmarks {0, 4}.
    graph = generators.path(5)
    return graph, build_labelling(graph, (0, 4))


def test_entry_access_roundtrip():
    _, lab = small_labelling()
    assert lab.r_label(2, 0) == 2
    lab.labels[2, 0] = 7
    assert lab.r_label(2, 0) == 7
    lab.labels[2, 0] = NO_LABEL
    assert lab.r_label(2, 0) is None


def test_label_entries_iteration():
    _, lab = small_labelling()
    entries = dict(lab.label_entries(2))
    assert entries == {0: 2, 4: 2}


def test_size_counts_entries():
    _, lab = small_labelling()
    # Vertices 1,2,3 each have labels to both landmarks; landmarks have none.
    assert lab.size() == 6
    assert lab.size_bytes() > 0


def test_landmark_lengths_reads_landmarks_and_flags():
    _, lab = small_labelling()
    dist, flag = lab.landmark_lengths(0)
    assert list(dist) == [0, 1, 2, 3, 4]
    assert flag[0] == FALSE_KEY  # the root itself
    assert flag[4] == TRUE_KEY  # another landmark: flag always True
    assert flag[2] == FALSE_KEY  # has direct r-label
    assert flag[np.array([0, 4, 2])].tolist() == [FALSE_KEY, TRUE_KEY, FALSE_KEY]


def test_landmark_lengths_uses_highway_detour():
    # Star with centre 0; landmarks 0 and 1.  Vertex 2's label omits
    # landmark 1 iff covered; decode must go through the highway.
    graph = generators.star(4)
    lab = build_labelling(graph, (0, 1))
    dist, flag = lab.landmark_lengths(1)
    assert dist[2] == 2  # 1 -> 0 -> 2 via highway
    assert flag[2] == TRUE_KEY  # covered through landmark 0


def test_landmark_lengths_matches_the_eq2_decode():
    """D from construction equals the Eq. 2 decode of labels + highway,
    and landmark_lengths and decoded_landmark_distances read its columns
    and rows."""
    graph = generators.erdos_renyi(40, 0.1, seed=1)
    graph.ensure_vertex(41)  # two isolated vertices: INF rows
    lab = build_labelling(graph, (0, 1, 2))
    decoded = decode_distances(lab.labels, lab.highway, lab.landmarks)
    assert np.array_equal(lab.dist, decoded)
    for i in range(3):
        dist, _ = lab.landmark_lengths(i)
        assert np.array_equal(dist, decoded[:, i])
    for v in range(graph.num_vertices):
        assert np.array_equal(lab.decoded_landmark_distances(v), decoded[v])
    assert (lab.dist[40:] == INF).all()


def test_upper_bound_is_valid_bound():
    from repro.graph.traversal import bfs_distance_pair

    graph = generators.erdos_renyi(50, 0.08, seed=2)
    lab = build_labelling(graph, (0, 1, 2, 3))
    for s, t in [(5, 9), (10, 30), (4, 44)]:
        bound = lab.upper_bound(s, t)
        true = bfs_distance_pair(graph, s, t)
        assert bound >= true
        # Eq. 3 through the labels themselves: min over r of the decoded
        # s side plus t's raw r-label (the O(R^2) form) gives the same.
        raw_t = np.where(lab.labels[t] == NO_LABEL, INF, lab.labels[t])
        assert bound == min(int((lab.dist[s] + raw_t).min()), INF)


def test_grow_adds_empty_rows():
    _, lab = small_labelling()
    lab.grow(8)
    assert lab.num_vertices == 8
    assert lab.r_label(7, 0) is None
    dist, flag = lab.landmark_lengths(0)
    assert dist[7] >= INF
    assert flag[7] == FALSE_KEY  # grown, unreachable
    assert lab.dist.shape == (8, 2) and (lab.dist[5:] == INF).all()
    # Growing smaller is a no-op.
    lab.grow(3)
    assert lab.num_vertices == 8


def test_copy_independent():
    _, lab = small_labelling()
    clone = lab.copy()
    clone.labels[2, 0] = 9
    assert lab.r_label(2, 0) == 2
    assert not lab.equals(clone)
    assert lab.equals(lab.copy())
    # D is part of the labelling: a D-only difference is a difference.
    clone = lab.copy()
    clone.dist[2, 0] = 9
    assert lab.dist[2, 0] == 2
    assert not lab.equals(clone)


def test_diff_reports_mismatches():
    _, lab = small_labelling()
    clone = lab.copy()
    clone.labels[1, 0] = 5
    clone.set_highway_symmetric(0, 1, 9)
    clone.dist[3, 1] = 0
    problems = clone.diff(lab)
    assert any("label(1" in p for p in problems)
    assert any("highway" in p for p in problems)
    assert "dist(3, r1=4): 0 vs 1" in problems


def test_shape_validation():
    labels = np.full((4, 2), NO_LABEL, dtype=np.int64)
    dist = np.full((4, 2), INF, dtype=np.int64)
    with pytest.raises(IndexStateError):
        HighwayCoverLabelling(
            labels, np.zeros((3, 3), dtype=np.int64), (0, 1), dist
        )
    with pytest.raises(IndexStateError):
        HighwayCoverLabelling(
            labels, np.zeros((2, 2), dtype=np.int64), (0, 1), dist[:3]
        )


def test_landmark_lengths_flags_match_the_reference_everywhere():
    """The reader's flags equal the O(V) reference at the root, the other
    landmarks, labelled and covered vertices, unreachable vertices and
    vertices grown after construction — per vertex and as an array."""
    # Path 0-1-2-3 (landmarks 0 and 2), an isolated pair 4-5, then two
    # grown vertices 6-7 that stay unreachable.
    graph = generators.path(4)
    graph.ensure_vertex(5)
    graph.add_edge(4, 5)
    lab = build_labelling(graph, (0, 2))
    lab.grow(8)
    assert_reader_matches_reference(lab, "path+isolated+grown")
    dist, flag = lab.landmark_lengths(0)
    assert [flag[v] for v in range(8)] == [
        FALSE_KEY,  # the root
        FALSE_KEY,  # labelled: 0-1 avoids landmark 2
        TRUE_KEY,  # the other landmark
        TRUE_KEY,  # covered: its shortest path runs through landmark 2
        FALSE_KEY,  # unreachable
        FALSE_KEY,  # unreachable
        FALSE_KEY,  # grown, unreachable
        FALSE_KEY,  # grown, unreachable
    ]
    want_dist, want_flag = landmark_arrays(lab, 0)
    assert np.array_equal(flag[np.arange(8)], want_flag)
    assert np.array_equal(dist, want_dist)


def test_landmark_lengths_dist_is_a_read_only_view():
    """The reader shares D's column instead of copying it, and a write
    through it raises ValueError; the labelling's own D stays writable."""
    _, lab = small_labelling()
    dist, _ = lab.landmark_lengths(1)
    assert np.shares_memory(dist, lab.dist)
    with pytest.raises(ValueError):
        dist[2] = 0
    with pytest.raises(ValueError):
        dist[np.array([1, 2])] = 0
    assert lab.dist[2, 1] == 2
    lab.dist[2, 1] = 2  # the writer's matrix is untouched by the view
