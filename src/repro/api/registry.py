"""String-keyed oracle registry and the :func:`open_oracle` factory.

Every index and baseline registers itself under a stable name together
with its :class:`~repro.api.protocol.Capabilities` and the constructor
options it accepts.  Downstream layers — the serving engine, the bench
harness, the CLI — construct oracles *only* through :func:`open_oracle`,
which validates the requested workload up front:

* unknown name                      → :class:`~repro.errors.UnknownOracleError`
* graph kind vs directed/weighted   → :class:`~repro.errors.CapabilityError`
* ``require=("dynamic", ...)`` gaps → :class:`~repro.errors.CapabilityError`
* unsupported constructor options   → :class:`~repro.errors.OracleConfigError`
* empty graph                       → :class:`~repro.errors.IndexStateError`

Registration is import-triggered: built-in oracle modules register at
import time and are imported lazily on first registry access, so
``open_oracle("pll", ...)`` works without the caller importing
``repro.baselines``.  Third parties may register their own backends with
:func:`register_oracle`.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.api.protocol import Capabilities
from repro.errors import (
    CapabilityError,
    IndexStateError,
    OracleConfigError,
    OracleError,
    UnknownOracleError,
)
from repro.obs.log import get_logger

_log = get_logger("repro.api.registry")

#: Modules whose import registers the built-in oracles.
_BUILTIN_MODULES: tuple[str, ...] = (
    "repro.core.index",
    "repro.core.directed",
    "repro.core.weighted",
    "repro.baselines.bibfs",
    "repro.baselines.pll",
    "repro.baselines.psl",
    "repro.baselines.fulpll",
    "repro.baselines.fulfd",
)


@dataclass(frozen=True)
class OracleSpec:
    """One registry entry: how to build a named oracle and what it can do."""

    name: str
    factory: Callable
    capabilities: Capabilities
    description: str
    #: Constructor options ``open_oracle`` accepts for this entry.
    config_keys: frozenset[str] = frozenset()
    #: ``loader(path)`` restoring a serialized oracle; None unless
    #: ``capabilities.serializable``.
    loader: Callable | None = None


_REGISTRY: dict[str, OracleSpec] = {}
_builtins_loaded = False


def _load_builtins() -> None:
    global _builtins_loaded
    if _builtins_loaded:
        return
    # Flag only after every import succeeds: a failed builtin import must
    # resurface (with its real cause) on the next registry access, not
    # leave a silently partial registry.
    for module in _BUILTIN_MODULES:
        importlib.import_module(module)
    _builtins_loaded = True


def register_oracle(
    name: str,
    factory: Callable,
    *,
    capabilities: Capabilities,
    description: str,
    config_keys: tuple[str, ...] = (),
    loader: Callable | None = None,
    replace: bool = False,
) -> OracleSpec:
    """Register an oracle backend under ``name``.

    ``factory(graph, **config)`` must return an object satisfying the
    :class:`~repro.api.protocol.DistanceOracle` protocol.  Re-registering
    an existing name is an error unless ``replace=True`` (tests swap in
    doubles that way).
    """
    spec = OracleSpec(
        name=name,
        factory=factory,
        capabilities=capabilities,
        description=description,
        config_keys=frozenset(config_keys),
        loader=loader,
    )
    existing = _REGISTRY.get(name)
    if existing is not None and not replace:
        if existing.factory is factory:
            return existing  # idempotent re-import
        raise OracleError(
            f"oracle name {name!r} is already registered"
            f" (pass replace=True to override)"
        )
    _REGISTRY[name] = spec
    return spec


def unregister_oracle(name: str) -> None:
    """Remove a registry entry (test helper for third-party doubles)."""
    _REGISTRY.pop(name, None)


def available_oracles() -> tuple[str, ...]:
    """Sorted names of every registered oracle."""
    _load_builtins()
    return tuple(sorted(_REGISTRY))


def oracle_spec(name: str) -> OracleSpec:
    """The :class:`OracleSpec` for ``name``; typed error when unknown."""
    _load_builtins()
    spec = _REGISTRY.get(name)
    if spec is None:
        raise UnknownOracleError(
            f"unknown oracle {name!r};"
            f" available: {', '.join(available_oracles())}"
        )
    return spec


def _graph_kind(graph: Any) -> str:
    from repro.graph.digraph import DynamicDiGraph
    from repro.graph.dynamic_graph import DynamicGraph
    from repro.graph.weighted_graph import WeightedDynamicGraph

    if isinstance(graph, DynamicDiGraph):
        return "directed"
    if isinstance(graph, WeightedDynamicGraph):
        return "weighted"
    if isinstance(graph, DynamicGraph):
        return "undirected"
    raise CapabilityError(
        f"cannot open an oracle over a {type(graph).__name__};"
        " expected DynamicGraph, DynamicDiGraph or WeightedDynamicGraph"
    )


def open_oracle(
    name: str,
    graph: Any,
    *,
    require: tuple[str, ...] = (),
    **config: Any,
) -> Any:
    """Build the oracle registered as ``name`` over ``graph``.

    ``require`` names capabilities the caller's workload depends on
    (e.g. ``require=("dynamic",)`` for an update stream); any gap raises
    :class:`~repro.errors.CapabilityError` *before* construction.  The
    graph's kind is always checked against the oracle's directed/weighted
    declaration, and ``config`` against its accepted constructor options.
    """
    spec = oracle_spec(name)
    caps = spec.capabilities

    missing = caps.missing(require)
    if missing:
        raise CapabilityError(
            f"oracle {name!r} does not support:"
            f" {', '.join(missing)}"
            f" (declared capabilities: {caps.describe()})"
        )

    kind = _graph_kind(graph)
    expected = (
        "directed" if caps.directed
        else "weighted" if caps.weighted
        else "undirected"
    )
    if kind != expected:
        raise CapabilityError(
            f"oracle {name!r} indexes {expected} graphs,"
            f" got a {kind} {type(graph).__name__}"
        )

    unknown = set(config) - spec.config_keys
    if unknown:
        accepted = ", ".join(sorted(spec.config_keys)) or "none"
        raise OracleConfigError(
            f"oracle {name!r} does not accept option(s)"
            f" {', '.join(sorted(unknown))}; accepted: {accepted}"
        )

    if graph.num_vertices == 0:
        raise IndexStateError("cannot index an empty graph")

    started = time.perf_counter()
    oracle = spec.factory(graph, **config)
    _log.debug(
        "oracle opened",
        extra={
            "oracle": name,
            "vertices": graph.num_vertices,
            "build_s": round(time.perf_counter() - started, 6),
        },
    )
    return oracle


def load_oracle(name: str, path: Any) -> Any:
    """Restore a serialized oracle; typed error where unsupported."""
    spec = oracle_spec(name)
    if spec.loader is None or not spec.capabilities.serializable:
        raise CapabilityError(
            f"oracle {name!r} does not support serialization"
            f" (capabilities: {spec.capabilities.describe()})"
        )
    return spec.loader(path)


def capability_rows() -> list[OracleSpec]:
    """Every spec in name order — the CLI's ``oracles`` listing."""
    _load_builtins()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]
