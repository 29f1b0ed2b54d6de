"""``[tool.reprolint]`` configuration loading.

The config lives in the project's ``pyproject.toml``::

    [tool.reprolint]
    paths = ["src/repro", "tools"]
    exclude = ["tests/lint_fixtures"]

    [tool.reprolint.rules.API001]
    concrete-modules = ["repro.core.index", ...]
    allowed-paths = ["src/repro/api/", ...]

Per-rule tables are handed verbatim to ``Rule.configure`` with keys
normalised to snake_case, so rules document their own options.  Missing
tables fall back to the defaults baked into each rule — the tool runs
usefully on a bare checkout.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class LintConfig:
    root: Path
    paths: list[str] = field(default_factory=lambda: ["src", "tools"])
    exclude: list[str] = field(default_factory=list)
    rule_options: dict[str, dict[str, object]] = field(default_factory=dict)
    #: root-relative path of the findings baseline (None disables it).
    baseline: str | None = None

    @property
    def baseline_path(self) -> Path | None:
        if self.baseline is None:
            return None
        return self.root / self.baseline


def _normalise(table: dict[str, object]) -> dict[str, object]:
    return {key.replace("-", "_"): value for key, value in table.items()}


def find_project_root(start: Path | None = None) -> Path | None:
    """Walk up from ``start`` (default: cwd) to the pyproject.toml dir."""
    current = (start or Path.cwd()).resolve()
    for candidate in (current, *current.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return None


def load_config(root: Path) -> LintConfig:
    config = LintConfig(root=root)
    pyproject = root / "pyproject.toml"
    if not pyproject.is_file():
        return config
    with pyproject.open("rb") as handle:
        data = tomllib.load(handle)
    table = data.get("tool", {}).get("reprolint", {})
    if not isinstance(table, dict):
        return config
    paths = table.get("paths")
    if isinstance(paths, list):
        config.paths = [str(p) for p in paths]
    exclude = table.get("exclude")
    if isinstance(exclude, list):
        config.exclude = [str(p) for p in exclude]
    baseline = table.get("baseline")
    if isinstance(baseline, str):
        config.baseline = baseline
    rules = table.get("rules", {})
    if isinstance(rules, dict):
        config.rule_options = {
            rule_id: _normalise(options)
            for rule_id, options in rules.items()
            if isinstance(options, dict)
        }
    return config
