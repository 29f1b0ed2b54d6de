"""Landmark selection strategies.

The paper (Section 7.1) selects the highest-degree vertices as landmarks,
following FulFD, with |R| = 20 by default.  Degree selection works because
complex networks route most shortest paths through their hubs, maximising
the number of vertex pairs the highway covers.
"""

from __future__ import annotations

from typing import Any

import random

import numpy as np

from repro.errors import IndexStateError
from repro.utils.rng import make_rng


def select_landmarks(
    graph: Any,
    count: int,
    strategy: str = "degree",
    seed: int | random.Random | None = 0,
) -> tuple[int, ...]:
    """Choose ``count`` landmark vertices from ``graph``.

    Strategies:

    * ``"degree"`` (paper default): the ``count`` highest-degree vertices,
      ties broken by vertex id for determinism;
    * ``"random"``: a uniform sample (ablation baseline).
    """
    n = graph.num_vertices
    if count < 1:
        raise IndexStateError(f"need at least one landmark, got {count}")
    if count > n:
        raise IndexStateError(
            f"cannot select {count} landmarks from {n} vertices"
        )
    if strategy == "degree":
        degrees = np.fromiter(map(graph.degree, range(n)), np.int64, count=n)
        # A stable sort keeps equal degrees in vertex order.
        order = np.argsort(-degrees, kind="stable")
        return tuple(order[:count].tolist())
    if strategy == "random":
        rng = make_rng(seed)
        return tuple(rng.sample(range(n), count))
    raise IndexStateError(f"unknown landmark selection strategy {strategy!r}")
