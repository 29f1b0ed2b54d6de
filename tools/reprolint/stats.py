"""Per-run timings (``--stats``).

The CI static-analysis job runs the whole suite under a 30-second
budget.  A budget regression used to be invisible until the job timed
out; with ``--stats`` every run prints where the time went (parse,
each rule, the program-model build), so a slow pass shows up in the log
the day it lands.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class RunStats:
    """Timings for one lint run."""

    total_seconds: float = 0.0
    parse_seconds: float = 0.0
    #: rule id (or the ``(program-model)`` pseudo-pass) -> seconds spent.
    rule_seconds: dict[str, float] = field(default_factory=dict)

    def add(self, key: str, seconds: float) -> None:
        self.rule_seconds[key] = self.rule_seconds.get(key, 0.0) + seconds

    def to_dict(self) -> dict[str, object]:
        return {
            "total_seconds": round(self.total_seconds, 6),
            "parse_seconds": round(self.parse_seconds, 6),
            "rule_seconds": {
                key: round(value, 6)
                for key, value in sorted(self.rule_seconds.items())
            },
        }

    def format_table(self) -> str:
        lines = [
            "reprolint stats:",
            f"  parse            {self.parse_seconds * 1000:9.1f} ms",
        ]
        for key, seconds in sorted(
            self.rule_seconds.items(), key=lambda kv: -kv[1]
        ):
            lines.append(f"  {key:<16} {seconds * 1000:9.1f} ms")
        lines.append(f"  total            {self.total_seconds * 1000:9.1f} ms")
        return "\n".join(lines)
