"""API001 fixture: consumer-layer imports of concrete oracle classes."""

import repro.core.index  # line 3: API001
from repro import HighwayCoverIndex  # line 4: API001
from repro.baselines.pll import PrunedLandmarkLabelling  # line 5: API001
from repro.core.directed import DirectedHighwayCoverIndex  # line 6: API001


def build(graph):
    return HighwayCoverIndex(graph, num_landmarks=4)
