"""Storage-level tests for HighwayCoverLabelling."""

import random
import sys

import numpy as np
import pytest

from repro import EdgeUpdate, HighwayCoverIndex
from repro.constants import INF, NO_LABEL
from repro.core.construction import build_labelling
from repro.core.labelling import (
    _UNHELD_REFS,
    HighwayCoverLabelling,
    _BackPair,
    decode_distances,
)
from repro.core.lengths import FALSE_KEY, TRUE_KEY
from repro.errors import IndexStateError
from repro.graph import generators
from tests.conftest import (
    assert_reader_matches_reference,
    buffer_paths,
    buffer_paths_since,
    landmark_arrays,
    random_mixed_updates,
)


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


# ----------------------------------------------------------------------
# recycled repair targets
# ----------------------------------------------------------------------


def _flush(index, rng) -> dict[str, float]:
    """One mixed 3+3 batch; returns the repair-target paths it took."""
    before = buffer_paths()
    index.batch_update(random_mixed_updates(index.graph, rng, 3, 3))
    return buffer_paths_since(before)


COPIED = {"recycled": 0.0, "copied": 1.0}
RECYCLED = {"recycled": 1.0, "copied": 0.0}


def test_unheld_back_array_refcount_is_pinned():
    """_UNHELD_REFS is what getrefcount reports, read as repair_target
    reads it, for a back array nothing else holds, and one more holder
    shows; so a later CPython that counts differently fails here instead
    of silently copying on every pass (or recycling held arrays)."""
    pair = _BackPair(
        np.zeros((3, 2), dtype=np.int64),
        np.zeros((3, 2), dtype=np.int64),
        np.empty(0, dtype=np.int64),
    )
    # Counted outside the asserts, whose rewriting holds references.
    unheld = sys.getrefcount(pair.labels)
    view = pair.dist[:, 0]
    viewed = sys.getrefcount(pair.dist)
    del view
    released = sys.getrefcount(pair.dist)
    assert (unheld, viewed, released) == (
        _UNHELD_REFS,
        _UNHELD_REFS + 1,
        _UNHELD_REFS,
    )


def test_second_pass_recycles_and_matches_a_rebuild():
    """After construction the first pass copies; every later pass
    recycles the labelling before last, and stays bit-identical to a
    rebuild."""
    index = HighwayCoverIndex(
        generators.erdos_renyi(60, 0.08, seed=5), num_landmarks=4
    )
    rng = random.Random(1)
    assert _flush(index, rng) == COPIED
    for _ in range(3):
        assert _flush(index, rng) == RECYCLED
        assert index.check_minimality() == []


READERS = {
    "published": lambda lab: lab.published(),
    "landmark_lengths": lambda lab: lab.landmark_lengths(1)[0],
    "label_column": lambda lab: lab.labels[:, 1],
    "memoryview": lambda lab: memoryview(lab.dist),
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_a_held_reader_forces_a_copy_until_released(reader):
    """A reader of a labelling's arrays keeps them from being recycled:
    the pass that would write them copies instead, and the reader's
    bytes never change; once it is released, its arrays are recycled."""
    index = HighwayCoverIndex(
        generators.erdos_renyi(60, 0.08, seed=5), num_landmarks=4
    )
    rng = random.Random(2)

    def held_bytes():
        return bytes(memoryview(held.dist if reader == "published" else held))

    held = READERS[reader](index.labelling)
    before = held_bytes()
    assert _flush(index, rng) == COPIED  # built: nothing to recycle
    assert _flush(index, rng) == COPIED  # its pair is what `held` reads
    assert held_bytes() == before
    held = READERS[reader](index.labelling)  # and the old reader goes
    assert _flush(index, rng) == RECYCLED
    del held
    assert _flush(index, rng) == RECYCLED  # the arrays `held` read
    assert index.check_minimality() == []


def test_grow_drops_the_back_pair():
    """A batch that adds a vertex grows the labelling, whose pair no
    longer fits: that pass copies, and the one after recycles again."""
    index = HighwayCoverIndex(
        generators.erdos_renyi(60, 0.08, seed=5), num_landmarks=4
    )
    rng = random.Random(3)
    _flush(index, rng)
    n = index.graph.num_vertices
    before = buffer_paths()
    index.batch_update([EdgeUpdate.insert(0, n), EdgeUpdate.insert(n, n + 1)])
    assert buffer_paths_since(before) == COPIED
    assert index.graph.num_vertices == n + 2
    assert index.check_minimality() == []
    assert _flush(index, rng) == RECYCLED
    assert index.check_minimality() == []


def test_a_repair_that_raises_part_way_leaves_the_next_pass_copying(
    monkeypatch,
):
    """A pass that fails after writing some of the recycled arrays rolls
    back; its pair is gone, so the next pass copies the published
    labelling, and the result is bit-identical to a rebuild."""
    from repro.core import batchhl

    index = HighwayCoverIndex(
        generators.erdos_renyi(60, 0.08, seed=5), num_landmarks=4
    )
    rng = random.Random(4)
    _flush(index, rng)
    edges = sorted(index.graph.edges())
    real = batchhl.batch_repair_adaptive
    calls = 0

    def repair_then_fail(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls == 3:
            raise RuntimeError("repair failed part-way")
        return real(*args, **kwargs)

    monkeypatch.setattr(batchhl, "batch_repair_adaptive", repair_then_fail)
    before = buffer_paths()
    with pytest.raises(RuntimeError, match="part-way"):
        index.batch_update(random_mixed_updates(index.graph, rng, 3, 3))
    assert buffer_paths_since(before) == RECYCLED  # it wrote two landmarks
    monkeypatch.setattr(batchhl, "batch_repair_adaptive", real)
    assert sorted(index.graph.edges()) == edges
    assert index.check_minimality() == []
    assert _flush(index, rng) == COPIED
    assert index.check_minimality() == []
    assert _flush(index, rng) == RECYCLED
    assert index.check_minimality() == []


def test_a_pass_past_the_copy_share_leaves_the_next_pass_copying(
    monkeypatch,
):
    """A pass that writes more cells than the break-even share of V·R
    records no back pair, since replaying its cells would cost more than
    a copy: the next pass copies, bit-identical to a rebuild.  A small
    labelling keeps recycling (the share's intercept covers it), so the
    test drops the intercept, as on a large labelling."""
    from repro.core import labelling as labelling_module

    index = HighwayCoverIndex(
        generators.erdos_renyi(60, 0.08, seed=5), num_landmarks=4
    )
    rng = random.Random(6)
    assert _flush(index, rng) == COPIED
    monkeypatch.setattr(labelling_module, "_COPY_CELLS", 0)
    size = index.labelling.labels.size
    before = buffer_paths()
    stats = index.batch_update(random_mixed_updates(index.graph, rng, 10, 10))
    assert buffer_paths_since(before) == RECYCLED
    assert stats.total_affected > labelling_module._COPY_SHARE * size
    assert _flush(index, rng) == COPIED
    assert index.check_minimality() == []
    monkeypatch.undo()
    _flush(index, rng)  # this pass records its pair again
    assert _flush(index, rng) == RECYCLED
    assert index.check_minimality() == []


def test_a_labelling_of_views_never_becomes_a_back_pair():
    """A snapshot's labelling wraps read-only views of its writer's
    arrays; batches applied to the snapshot itself copy every time, and
    neither the writer's arrays nor its later passes are touched."""
    index = HighwayCoverIndex(
        generators.erdos_renyi(60, 0.08, seed=5), num_landmarks=4
    )
    rng = random.Random(5)
    frozen = index.snapshot()
    writer_bytes = index.labelling.labels.tobytes()
    before = buffer_paths()
    for _ in range(2):
        frozen.batch_update(random_mixed_updates(frozen.graph, rng, 3, 3))
    assert buffer_paths_since(before) == {"recycled": 0.0, "copied": 2.0}
    assert frozen.check_minimality() == []
    assert index.labelling.labels.tobytes() == writer_bytes
    assert _flush(index, rng) == COPIED
    assert _flush(index, rng) == RECYCLED
    assert index.check_minimality() == []
