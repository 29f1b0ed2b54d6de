"""Small shared utilities: deterministic RNG."""

from repro.utils.rng import make_rng

__all__ = ["make_rng"]
