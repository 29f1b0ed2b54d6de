"""MUT001 — stores into frozen CSR / guarded label arrays.

The CSR structure arrays (``indptr``, ``indices`` and the per-row
``starts``/``ends``) are frozen by contract: every reader — query
kernels, shard workers, epoch snapshots — assumes a view never changes
while it holds it, and the shared-memory backend literally maps them
read-only into workers.  One module writes them: ``repro.graph.csr_rows``
replays rows into the buffers of a view nothing holds any more.  The
``labels``/``highway``
arrays and the landmark-distance matrix ``dist`` (D) *are* mutated, but
only by the designated writer modules (``repro.core`` construction and
repair kernels, ``repro.parallel`` shard state); a store from anywhere
else bypasses the lock/epoch discipline those modules implement, and a
label write without the matching D write breaks the labelling's
invariant that D is the decode of labels + highway.

Flags subscript stores and augmented assignments whose base is one of
the watched attributes, with simple alias tracking through local
assignments (``labels = self.state.labels; labels[v] = d`` is still a
store into the guarded array).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from reprolint.engine import Finding, ModuleContext, Rule


class FrozenArrayWriteRule(Rule):
    id = "MUT001"
    summary = (
        "no stores into frozen CSR arrays (indptr/indices/starts/ends) or"
        " guarded label/highway/dist arrays outside the writer modules"
    )
    rationale = (
        "indptr/indices/starts/ends are frozen while anything holds them —"
        " kernels and the shared-memory layout assume it, and only"
        " repro.graph.csr_rows rewrites the rows of a view nothing holds."
        " labels/highway/dist are mutated under lock/epoch discipline that"
        " lives in repro.core and repro.parallel; a store anywhere else is"
        " either a stale-read race or silent index corruption."
    )
    fix_recipe = (
        "Route the mutation through the owning writer API (repair"
        " kernels / shard state). If a new module legitimately becomes a"
        " writer, add it to writer-modules in [tool.reprolint.MUT001]."
    )

    def __init__(self) -> None:
        self.frozen_attrs = frozenset({"indptr", "indices", "starts", "ends"})
        self.guarded_attrs = frozenset({"labels", "highway", "dist"})
        self.writer_modules: tuple[str, ...] = (
            "repro.core", "repro.parallel", "repro.graph.csr_rows",
        )

    def configure(self, options: dict[str, object]) -> None:
        frozen = options.get("frozen_attrs")
        if isinstance(frozen, list):
            self.frozen_attrs = frozenset(str(a) for a in frozen)
        guarded = options.get("guarded_attrs")
        if isinstance(guarded, list):
            self.guarded_attrs = frozenset(str(a) for a in guarded)
        writers = options.get("writer_modules")
        if isinstance(writers, list):
            self.writer_modules = tuple(str(m) for m in writers)

    def _watched(self) -> frozenset[str]:
        return self.frozen_attrs | self.guarded_attrs

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        module = ctx.module_name
        if any(
            module == w or module.startswith(w + ".")
            for w in self.writer_modules
        ):
            return
        aliases = self._aliases(ctx)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    yield from self._check_store(ctx, aliases, target)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                yield from self._check_store(ctx, aliases, node.target)

    def _aliases(self, ctx: ModuleContext) -> dict[str, str]:
        """Local alias name -> the watched attribute it came from
        (``labels = self.state.labels``).  Flow-insensitive with one
        namespace per module: precise enough for the patterns that occur
        and errs toward reporting."""
        names: dict[str, str] = {}
        for _ in range(2):  # two passes to catch alias-of-alias chains
            for node in ast.walk(ctx.tree):
                if not (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                ):
                    continue
                attr = self._watched_attr_of(node.value, names)
                if attr is not None:
                    names[node.targets[0].id] = attr
        return names

    def _watched_attr_of(
        self, expr: ast.expr, aliases: dict[str, str]
    ) -> str | None:
        """The watched attribute an expression refers to, if any."""
        if isinstance(expr, ast.Attribute):
            return expr.attr if expr.attr in self._watched() else None
        if isinstance(expr, ast.Name):
            return aliases.get(expr.id)
        return None

    def _check_store(
        self,
        ctx: ModuleContext,
        aliases: dict[str, str],
        target: ast.expr,
    ) -> Iterator[Finding]:
        if not isinstance(target, ast.Subscript):
            return
        attr = self._watched_attr_of(target.value, aliases)
        if attr is None:
            return
        if attr in self.frozen_attrs:
            message = (
                f"store into frozen CSR array '{attr}' — CSR row arrays"
                " are frozen while held (kernels and the shm layout"
                " depend on it)"
            )
        else:
            writers = ", ".join(self.writer_modules)
            message = (
                f"store into guarded array '{attr}' outside the writer"
                f" modules ({writers}) — label/highway/D mutation must go"
                " through the locked repair/shard-state APIs"
            )
        yield self.finding(ctx, target, message, hint=self.fix_recipe)
