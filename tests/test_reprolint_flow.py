"""Flow-sensitive rules (RES001 / EXC001 / MUT001 / flow LOCK001):
each positive fixture fires at exactly the annotated lines, each clean
twin stays silent, and RES001 cites a concrete path witness for the
seeded exception-path lock leak.
"""

from __future__ import annotations

from pathlib import Path

from reprolint.engine import run_rules
from reprolint.rules.exc001 import SwallowedExceptionRule
from reprolint.rules.lock001 import GuardedByRule
from reprolint.rules.mut001 import FrozenArrayWriteRule
from reprolint.rules.res001 import ResourceLeakRule

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"

#: fixtures sit at the scan root, so widen the rules' src/repro/ default.
ANY_PATH = {"paths": [""]}


def run_fixture(name, rule, options=None):
    rule.configure(options or {})
    return run_rules(FIXTURES, [FIXTURES / name], [rule])


def hits(result):
    return sorted((f.rule, f.line) for f in result.active)


# ---------------------------------------------------------------------------
# RES001 — resources released on every path
# ---------------------------------------------------------------------------


def test_res001_catches_path_leaks():
    result = run_fixture("res001_bad.py", ResourceLeakRule(), ANY_PATH)
    assert hits(result) == [
        ("RES001", 13),  # SharedMemory leaked when validate() raises
        ("RES001", 19),  # file handle leaked on the early return
        ("RES001", 28),  # lock leaked when _rebuild() raises
    ]


def test_res001_leak_messages_name_the_resource():
    result = run_fixture("res001_bad.py", ResourceLeakRule(), ANY_PATH)
    by_line = {f.line: f.message for f in result.active}
    assert "shared-memory block 'shm'" in by_line[13]
    assert "exception propagates" in by_line[13]
    assert "file 'handle'" in by_line[19]
    assert "returns" in by_line[19]
    assert "lock 'self._state_lock'" in by_line[28]


def test_res001_exception_path_lock_leak_has_concrete_witness():
    # The seeded exception-path lock leak: acquired at 28, _rebuild() at
    # 29 raises, the exception leaves refresh() with the lock held.
    result = run_fixture("res001_bad.py", ResourceLeakRule(), ANY_PATH)
    leak = next(f for f in result.active if f.line == 28)
    assert "leak path:" in leak.message
    assert "res001_bad.py:28 -> res001_bad.py:29" in leak.message
    assert leak.message.rstrip().endswith("exception leaves the function")


def test_res001_clean_twin():
    result = run_fixture("res001_clean.py", ResourceLeakRule(), ANY_PATH)
    assert hits(result) == []


# ---------------------------------------------------------------------------
# EXC001 — handlers must re-raise, convert, or log on every path
# ---------------------------------------------------------------------------


def test_exc001_catches_swallowing_handlers():
    result = run_fixture("exc001_bad.py", SwallowedExceptionRule(), ANY_PATH)
    assert hits(result) == [
        ("EXC001", 10),  # except OSError: pass
        ("EXC001", 18),  # logs only on the retriable branch
        ("EXC001", 28),  # catch-all counts but never logs
    ]
    by_line = {f.line: f.message for f in result.active}
    assert "OSError" in by_line[10]
    assert "BatchError" in by_line[18]
    assert "catch-all" in by_line[28]


def test_exc001_clean_twin():
    result = run_fixture("exc001_clean.py", SwallowedExceptionRule(), ANY_PATH)
    assert hits(result) == []


# ---------------------------------------------------------------------------
# MUT001 — frozen/guarded array stores outside the writer modules
# ---------------------------------------------------------------------------


def test_mut001_catches_stores_and_aliases():
    result = run_fixture("mut001_bad.py", FrozenArrayWriteRule())
    assert hits(result) == [
        ("MUT001", 12),  # graph.indptr[v] = 0
        ("MUT001", 13),  # graph.indices[v] += 1
        ("MUT001", 14),  # graph.starts[v] = 0
        ("MUT001", 16),  # via the `ends` alias
        ("MUT001", 19),  # state.labels[v] = d
        ("MUT001", 21),  # via the `labels` alias
        ("MUT001", 23),  # via the `hw` alias
        ("MUT001", 24),  # state.dist[v, 0] = d
    ]
    frozen = [f for f in result.active if f.line in (12, 13, 14, 16)]
    assert all("frozen CSR array" in f.message for f in frozen)
    guarded = [f for f in result.active if f.line in (19, 21, 23, 24)]
    assert all("writer" in f.message for f in guarded)


def test_mut001_clean_twin():
    result = run_fixture("mut001_clean.py", FrozenArrayWriteRule())
    assert hits(result) == []


def test_mut001_writer_modules_are_exempt():
    # The same stores are legal from a writer module: simulate by
    # configuring the fixture's own module name as a writer.
    result = run_fixture(
        "mut001_bad.py",
        FrozenArrayWriteRule(),
        {"writer_modules": ["mut001_bad"]},
    )
    assert hits(result) == []


# ---------------------------------------------------------------------------
# LOCK001 — flow-sensitive guarded-by
# ---------------------------------------------------------------------------


def test_lock001_flow_sensitive_positives():
    result = run_fixture("lock001_flow_bad.py", GuardedByRule())
    assert hits(result) == [
        ("LOCK001", 22),  # read after the early release
        ("LOCK001", 29),  # else branch of the conditional acquire
        ("LOCK001", 34),  # join of a locked and an unlocked path
    ]
    for finding in result.active:
        assert "held on every path" in finding.message


def test_lock001_flow_sensitive_clean_twin():
    # Manual acquire/try-finally, with-blocks and correctly-guarded
    # conditional acquires all count as held now.
    result = run_fixture("lock001_flow_clean.py", GuardedByRule())
    assert hits(result) == []
