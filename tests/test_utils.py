"""Utility-layer tests: rng plumbing and the INF helpers."""

import random

from repro.constants import INF, externalise, is_inf
from repro.utils.rng import make_rng


def test_make_rng():
    assert make_rng(5).random() == make_rng(5).random()
    shared = random.Random(1)
    assert make_rng(shared) is shared


def test_inf_helpers():
    assert is_inf(INF) and is_inf(INF + 3)
    assert not is_inf(INF - 1)
    assert externalise(7) == 7
    assert externalise(INF) == float("inf")
