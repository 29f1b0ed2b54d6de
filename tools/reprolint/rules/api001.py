"""API001 — concrete oracle classes stay behind the factory.

PR 3 unified every index behind the ``DistanceOracle`` protocol with
construction through :func:`repro.open_oracle`; consumer layers that
import concrete classes anyway re-grow the coupling the factory removed
(capability checks get skipped, registry config validation is bypassed).

Implementation packages may import each other's concrete classes, so
the rule allowlists *paths* (``allowed-paths``), not call sites: ``api/``,
the defining packages, tests and benches.  Everything else must go
through the registry.  ``if TYPE_CHECKING:`` imports are exempt
(annotation-only use does not construct anything).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from reprolint.engine import Finding, ModuleContext, Rule

_DEFAULT_MODULES = (
    "repro.core.index",
    "repro.core.directed",
    "repro.core.weighted",
    "repro.baselines",
)

_DEFAULT_NAMES = (
    "HighwayCoverIndex",
    "DirectedHighwayCoverIndex",
    "WeightedHighwayCoverIndex",
    "BiBFSIndex",
    "FulFDIndex",
    "FullPLLIndex",
    "PrunedLandmarkLabelling",
    "PSLIndex",
)

_DEFAULT_ALLOWED = (
    "src/repro/api/",
    "src/repro/core/",
    "src/repro/parallel/",
    "src/repro/baselines/",
    "tests/",
    "benchmarks/",
    "examples/",
)


class FactoryOnlyRule(Rule):
    id = "API001"
    summary = (
        "concrete oracle classes may not be imported outside api/ and the"
        " defining packages — construct through open_oracle"
    )

    def __init__(self) -> None:
        self.concrete_modules = _DEFAULT_MODULES
        self.concrete_names = frozenset(_DEFAULT_NAMES)
        self.allowed_paths = _DEFAULT_ALLOWED

    def configure(self, options: dict[str, object]) -> None:
        modules = options.get("concrete_modules")
        if isinstance(modules, list):
            self.concrete_modules = tuple(str(m) for m in modules)
        names = options.get("concrete_names")
        if isinstance(names, list):
            self.concrete_names = frozenset(str(n) for n in names)
        allowed = options.get("allowed_paths")
        if isinstance(allowed, list):
            self.allowed_paths = tuple(str(p) for p in allowed)

    def _module_is_concrete(self, module: str) -> bool:
        return any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in self.concrete_modules
        )

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        if any(ctx.relpath.startswith(p) for p in self.allowed_paths):
            return
        yield from self._check_imports(ctx)

    def _check_imports(self, ctx: ModuleContext) -> Iterator[Finding]:
        hint = (
            "construct oracles through repro.open_oracle(name, graph, ...)"
            " (see the registry in repro/api) so capability and config"
            " validation stay on"
        )
        for node in ast.walk(ctx.tree):
            if ctx.in_type_checking_block(node):
                continue
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if self._module_is_concrete(alias.name):
                        yield self.finding(
                            ctx,
                            node,
                            f"import of concrete oracle module"
                            f" '{alias.name}' outside the allowed layers",
                            hint=hint,
                        )
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level == 0 and self._module_is_concrete(module):
                    yield self.finding(
                        ctx,
                        node,
                        f"import from concrete oracle module '{module}'"
                        " outside the allowed layers",
                        hint=hint,
                    )
                    continue
                for alias in node.names:
                    if alias.name in self.concrete_names:
                        yield self.finding(
                            ctx,
                            node,
                            f"import of concrete oracle class"
                            f" '{alias.name}' outside the allowed layers",
                            hint=hint,
                        )
