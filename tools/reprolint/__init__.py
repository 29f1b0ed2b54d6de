"""reprolint — project-invariant static analysis for the BatchHL repro.

An AST-based lint engine whose rules encode invariants this codebase has
already paid for in bugs (see each rule's module docstring for the
history).  Run it as ``repro lint`` (the CLI subcommand), or directly::

    PYTHONPATH=src:tools python -m reprolint [paths...] --format json

Rules ship in :mod:`reprolint.rules`; configuration lives in the
project's ``pyproject.toml`` under ``[tool.reprolint]``.
"""

from __future__ import annotations

from pathlib import Path

from reprolint.baseline import (
    Baseline,
    apply_baseline,
    fingerprint,
    load_baseline,
    write_baseline,
)
from reprolint.config import LintConfig, find_project_root, load_config
from reprolint.engine import (
    Finding,
    LintResult,
    ModuleContext,
    Rule,
    discover_files,
    run_rules,
)
from reprolint.rules import ALL_RULES, MODULE_RULES, make_rules
from reprolint.stats import RunStats

__version__ = "1.2.0"

__all__ = [
    "ALL_RULES",
    "Baseline",
    "Finding",
    "LintConfig",
    "LintResult",
    "MODULE_RULES",
    "ModuleContext",
    "Rule",
    "RunStats",
    "apply_baseline",
    "discover_files",
    "find_project_root",
    "fingerprint",
    "lint_project",
    "load_baseline",
    "load_config",
    "make_rules",
    "run_rules",
    "write_baseline",
]


def lint_project(
    root: Path,
    paths: list[str] | None = None,
    only: frozenset[str] | None = None,
    use_baseline: bool = True,
) -> LintResult:
    """Lint ``root`` with its pyproject config; the one-call entry point.

    The configured baseline (``[tool.reprolint] baseline``) is applied
    by default: matching findings are marked ``baselined`` and drop out
    of :attr:`LintResult.active`, so callers gate on new findings only.
    """
    config = load_config(root)
    files = discover_files(root, paths or config.paths, config.exclude)
    result = run_rules(root, files, make_rules(config.rule_options, only))
    baseline_path = config.baseline_path
    if use_baseline and baseline_path is not None:
        baseline = load_baseline(baseline_path)
        result.findings = apply_baseline(result.findings, baseline)
    return result
