"""The :class:`Finding` record every reprolint rule emits.

A finding pins one rule violation to a ``path:line:col`` location with a
human message and, when the rule knows one, a concrete fix hint.  Findings
are plain frozen dataclasses so the engine can sort, deduplicate and dump
them to JSON without any rule-specific knowledge.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation (or suppressed would-be violation).

    Sort order is (path, line, col, rule) so reports read top-to-bottom
    per file regardless of which rule fired first.
    """

    path: str  # project-root-relative, POSIX separators
    line: int  # 1-based
    col: int  # 0-based, as in the ast module
    rule: str
    message: str = field(compare=False)
    hint: str = field(compare=False, default="")
    suppressed: bool = field(compare=False, default=False)
    suppress_reason: str = field(compare=False, default="")
    baselined: bool = field(compare=False, default=False)
    baseline_reason: str = field(compare=False, default="")

    def format_human(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
        if self.suppressed:
            reason = self.suppress_reason or "no reason given"
            text += f"  [suppressed: {reason}]"
        elif self.baselined:
            reason = self.baseline_reason or "no justification recorded"
            text += f"  [baselined: {reason}]"
        elif self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def to_dict(self) -> dict[str, object]:
        return asdict(self)

