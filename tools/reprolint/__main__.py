"""``python -m reprolint`` — standalone entry point.

The ``repro lint`` CLI subcommand wraps the same :func:`main`; this
module exists so the linter also runs without the repro package on the
path (e.g. pre-commit hooks).

Exit codes: 0 clean, 1 active findings (or, under ``--strict``, stale
baseline entries), 2 operational errors (unreadable files, bad root).
"""

from __future__ import annotations

import argparse
import sys
import textwrap
import time
from pathlib import Path


def main(argv: list[str] | None = None) -> int:
    import reprolint
    from reprolint import (
        ALL_RULES,
        apply_baseline,
        discover_files,
        find_project_root,
        load_baseline,
        load_config,
        make_rules,
        run_rules,
        write_baseline,
    )
    from reprolint.sarif import format_sarif
    from reprolint.stats import RunStats

    parser = argparse.ArgumentParser(
        prog="reprolint",
        description="project-invariant static analysis for the repro stack",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: [tool.reprolint] paths)",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json", "sarif"),
        default="human",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--sarif-out",
        type=Path,
        default=None,
        metavar="PATH",
        help="also write a SARIF 2.1.0 log to PATH (any --format)",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="project root (default: walk up to pyproject.toml)",
    )
    parser.add_argument(
        "--only",
        default=None,
        help="comma-separated rule IDs to run (default: all)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="also fail on stale baseline entries (finding gone, entry"
        " left behind) — keeps the baseline shrink-only",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the configured baseline; report every finding",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the configured baseline from this run's findings"
        " (keeps existing justifications; new entries are stamped"
        " UNJUSTIFIED until a human writes the reason)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print parse, per-pass and total timings (stderr for human"
        " output; embedded under 'stats' for --format json)",
    )
    parser.add_argument(
        "--explain",
        metavar="RULE",
        default=None,
        help="print a rule's rationale and fix recipe, then exit",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list rule IDs with summaries and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_cls in ALL_RULES:
            print(f"{rule_cls.id}  {rule_cls.summary}")
        return 0

    if args.explain is not None:
        return _explain(args.explain.strip().upper())

    root = args.root or find_project_root()
    if root is None:
        print(
            "reprolint: no pyproject.toml found above the working"
            " directory; pass --root",
            file=sys.stderr,
        )
        return 2
    root = root.resolve()
    only = (
        frozenset(part.strip() for part in args.only.split(",") if part.strip())
        if args.only
        else None
    )

    config = load_config(root)
    rules = make_rules(config.rule_options, only)
    files = discover_files(root, args.paths or config.paths, config.exclude)

    stats = RunStats()
    started = time.perf_counter()
    result = run_rules(root, files, rules, stats)
    stats.total_seconds = time.perf_counter() - started

    baseline = None
    baseline_path = config.baseline_path
    if baseline_path is not None and not args.no_baseline:
        baseline = load_baseline(baseline_path)

    if args.update_baseline:
        if baseline_path is None:
            print(
                "reprolint: no baseline configured; set"
                " [tool.reprolint] baseline in pyproject.toml",
                file=sys.stderr,
            )
            return 2
        count = write_baseline(baseline_path, result.findings, baseline)
        print(
            f"reprolint: wrote {count} baseline entr"
            f"{'y' if count == 1 else 'ies'} to"
            f" {baseline_path.relative_to(root)}"
        )
        return 0

    if baseline is not None:
        result.findings = apply_baseline(result.findings, baseline)

    sarif_text = None
    if args.format == "sarif" or args.sarif_out is not None:
        sarif_text = format_sarif(result, rules, reprolint.__version__)
    if args.sarif_out is not None and sarif_text is not None:
        args.sarif_out.parent.mkdir(parents=True, exist_ok=True)
        args.sarif_out.write_text(sarif_text + "\n", encoding="utf-8")

    if args.format == "sarif":
        print(sarif_text)
    elif args.format == "json":
        print(result.to_json(stats=stats if args.stats else None))
    else:
        print(result.format_human())
    if args.stats and args.format != "json":
        print(stats.format_table(), file=sys.stderr)

    stale = baseline.stale if (args.strict and baseline is not None) else []
    for entry in stale:
        print(
            f"reprolint: stale baseline entry for {entry['rule']} at"
            f" {entry['path']} — the finding is gone; remove the entry"
            " (repro lint --update-baseline)",
            file=sys.stderr,
        )
    if result.errors:
        return 2
    return 1 if (result.active or stale) else 0


def _explain(rule_id: str) -> int:
    from reprolint import ALL_RULES

    for rule_cls in ALL_RULES:
        if rule_cls.id != rule_id:
            continue
        print(f"{rule_cls.id} — {rule_cls.summary}")
        if rule_cls.rationale:
            print("\nWhy this rule exists:")
            print(textwrap.indent(textwrap.fill(rule_cls.rationale, 72), "  "))
        if rule_cls.fix_recipe:
            print("\nHow to fix a finding:")
            print(
                textwrap.indent(textwrap.fill(rule_cls.fix_recipe, 72), "  ")
            )
        doc = sys.modules.get(rule_cls.__module__)
        doc_text = getattr(doc, "__doc__", None) if doc else None
        if doc_text:
            print("\nFull write-up:")
            print(textwrap.indent(doc_text.strip(), "  "))
        return 0
    known = ", ".join(rule_cls.id for rule_cls in ALL_RULES)
    print(f"reprolint: unknown rule '{rule_id}' (known: {known})", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
