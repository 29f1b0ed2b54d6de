"""reprolint: every rule catches its fixture (including the three
historical-bug reconstructions), clean twins stay clean, suppressions
work, and the real tree self-checks clean.

Fixture sources live in ``tests/lint_fixtures/`` — excluded from project
scans via ``[tool.reprolint] exclude`` so the deliberate violations never
fail the self-check.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from reprolint import lint_project
from reprolint.baseline import (
    UNJUSTIFIED,
    apply_baseline,
    fingerprint,
    load_baseline,
    write_baseline,
)
from reprolint.engine import run_rules
from reprolint.findings import Finding
from reprolint.passes.arr001 import ArrayContractRule
from reprolint.passes.conc001 import LockOrderRule
from reprolint.passes.conc002 import BlockingUnderLockRule
from reprolint.passes.conc003 import GuardedByInferenceRule
from reprolint.rules import ALL_RULES, make_rules
from reprolint.rules.api001 import FactoryOnlyRule
from reprolint.rules.lock001 import GuardedByRule
from reprolint.rules.np001 import ExplicitDtypeRule
from reprolint.rules.obs001 import ObservabilityRule
from reprolint.rules.shm001 import SharedMemoryRule
from reprolint.rules.upd001 import EdgeUpdateFlagRule

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / "tools" / "reprolint" / "baseline.json"


def run_fixture(name, rule, options=None):
    rule.configure(options or {})
    return run_rules(FIXTURES, [FIXTURES / name], [rule])


def hits(result):
    """(rule, line) pairs of active findings, sorted."""
    return sorted((f.rule, f.line) for f in result.active)


# ---------------------------------------------------------------------------
# LOCK001 — the PR 5 unlocked-_wakeup accept decision
# ---------------------------------------------------------------------------


def test_lock001_catches_unlocked_guarded_access():
    result = run_fixture("lock001_bad.py", GuardedByRule())
    assert hits(result) == [
        ("LOCK001", 20),  # self._closed read outside the lock
        ("LOCK001", 22),  # the stale vertex-count validation (PR 5 bug)
        ("LOCK001", 28),  # unlocked write
    ]
    for finding in result.active:
        assert "_wakeup" in finding.message
        assert finding.hint


def test_lock001_clean_twin():
    result = run_fixture("lock001_clean.py", GuardedByRule())
    assert hits(result) == []


# ---------------------------------------------------------------------------
# SHM001 — the PR 7 worker-side resource_tracker.unregister
# ---------------------------------------------------------------------------


def test_shm001_catches_worker_unregister():
    # The module-level "create needs close()+unlink() somewhere" check
    # moved to RES001's path-sensitive analysis; only the ownership
    # check remains here.
    result = run_fixture("shm001_bad.py", SharedMemoryRule())
    assert hits(result) == [
        ("SHM001", 21),  # attaching worker unregisters (PR 7 bug)
    ]
    unregister = [f for f in result.active if f.line == 21][0]
    assert "cancels the writer's registration" in unregister.message


def test_shm001_clean_twin():
    result = run_fixture("shm001_clean.py", SharedMemoryRule())
    assert hits(result) == []


# ---------------------------------------------------------------------------
# UPD001 — the PR 4 EdgeUpdate field-order bug class
# ---------------------------------------------------------------------------


def test_upd001_catches_positional_flag():
    result = run_fixture("upd001_bad.py", EdgeUpdateFlagRule())
    assert hits(result) == [
        ("UPD001", 12),
        ("UPD001", 16),
        ("UPD001", 20),
    ]


def test_upd001_clean_twin():
    result = run_fixture("upd001_clean.py", EdgeUpdateFlagRule())
    assert hits(result) == []


# ---------------------------------------------------------------------------
# API001 — concrete oracles behind the factory
# ---------------------------------------------------------------------------


def test_api001_catches_concrete_imports():
    result = run_fixture("api001_bad.py", FactoryOnlyRule())
    assert hits(result) == [
        ("API001", 3),
        ("API001", 4),
        ("API001", 5),
        ("API001", 6),
    ]


def test_api001_clean_twin_allows_type_checking_imports():
    result = run_fixture("api001_clean.py", FactoryOnlyRule())
    assert hits(result) == []


def test_api001_allowed_paths_exempt_whole_files():
    rule = FactoryOnlyRule()
    rule.configure({"allowed_paths": ["api001_"]})
    result = run_rules(FIXTURES, [FIXTURES / "api001_bad.py"], [rule])
    assert hits(result) == []


# ---------------------------------------------------------------------------
# NP001 — explicit dtypes on kernel paths
# ---------------------------------------------------------------------------


def test_np001_catches_default_dtypes():
    result = run_fixture("np001_bad.py", ExplicitDtypeRule(), {"paths": [""]})
    assert hits(result) == [
        ("NP001", 7),
        ("NP001", 8),
        ("NP001", 9),
        ("NP001", 10),
    ]


def test_np001_clean_twin_accepts_keyword_and_positional_dtype():
    result = run_fixture(
        "np001_clean.py", ExplicitDtypeRule(), {"paths": [""]}
    )
    assert hits(result) == []


def test_np001_only_applies_on_configured_paths():
    result = run_fixture(
        "np001_bad.py", ExplicitDtypeRule(), {"paths": ["src/repro/"]}
    )
    assert hits(result) == []


# ---------------------------------------------------------------------------
# OBS001 — logger hierarchy + register-once families
# ---------------------------------------------------------------------------


def test_obs001_catches_off_hierarchy_loggers_and_duplicate_family():
    result = run_fixture("obs001_bad.py", ObservabilityRule())
    assert hits(result) == [
        ("OBS001", 7),  # logging.getLogger("batchhl.worker")
        ("OBS001", 8),  # get_logger("myapp.service")
        ("OBS001", 16),  # second registration site of the same family
    ]
    dup = [f for f in result.active if f.line == 16][0]
    assert "obs001_bad.py:12" in dup.message  # cites the original site


def test_obs001_clean_twin():
    result = run_fixture("obs001_clean.py", ObservabilityRule())
    assert hits(result) == []


# ---------------------------------------------------------------------------
# CONC001 — lock-order cycles with a witness path per edge
# ---------------------------------------------------------------------------


def test_conc001_catches_seeded_deadlock_with_both_paths():
    result = run_fixture("conc001_bad.py", LockOrderRule())
    assert hits(result) == [
        ("CONC001", 18),  # the cycle, anchored at flush's held-call
        ("CONC001", 37),  # self-deadlock through _helper
    ]
    cycle = [f for f in result.active if f.line == 18][0]
    # Both acquisition orders of the 2-cycle are named, each with its
    # concrete file:line witness chain.
    assert "'Deadlock._a' then 'Deadlock._b'" in cycle.message
    assert "'Deadlock._b' then 'Deadlock._a'" in cycle.message
    assert "conc001_bad.py:18" in cycle.message  # path 1: via _publish()
    assert "conc001_bad.py:21" in cycle.message
    assert "conc001_bad.py:25" in cycle.message  # path 2: lexical nesting
    assert "conc001_bad.py:26" in cycle.message
    self_dl = [f for f in result.active if f.line == 37][0]
    assert "non-reentrant lock 'SelfDeadlock._lock'" in self_dl.message
    assert "conc001_bad.py:40" in self_dl.message


def test_conc001_clean_twin_order_and_reentrancy():
    # Same shapes as the bad twin, but one global order and an RLock
    # for the re-acquisition — neither may fire.
    result = run_fixture("conc001_clean.py", LockOrderRule())
    assert hits(result) == []


# ---------------------------------------------------------------------------
# CONC002 — blocking calls under a lock, direct and transitive
# ---------------------------------------------------------------------------


def test_conc002_catches_direct_transitive_and_inherited():
    result = run_fixture("conc002_bad.py", BlockingUnderLockRule())
    assert hits(result) == [
        ("CONC002", 18),  # fut.result() under the lock
        ("CONC002", 22),  # time.sleep under the lock
        ("CONC002", 26),  # queue.get() without timeout
        ("CONC002", 30),  # transitive: flush -> _drain -> result()
        ("CONC002", 40),  # sleep in the *_locked helper
    ]
    transitive = [f for f in result.active if f.line == 30][0]
    assert "reaches blocking Future.result()" in transitive.message
    assert "conc002_bad.py:36" in transitive.message  # names the sink
    inherited = [f for f in result.active if f.line == 40][0]
    assert "held by every caller" in inherited.message


def test_conc002_allowlist_disables_matcher_families():
    rule = BlockingUnderLockRule()
    result = run_fixture("conc002_bad.py", rule, {"allow": ["sleep"]})
    assert [line for _, line in hits(result)] == [18, 26, 30]


def test_conc002_clean_twin_bounded_or_off_lock():
    result = run_fixture("conc002_clean.py", BlockingUnderLockRule())
    assert hits(result) == []


# ---------------------------------------------------------------------------
# CONC003 — guarded-by inference
# ---------------------------------------------------------------------------


def test_conc003_infers_guard_and_flags_bare_accesses():
    result = run_fixture("conc003_bad.py", GuardedByInferenceRule())
    # Counter.hits: locked write in record -> bare read + bare write
    # flagged.  Ambiguous.total (two different locks) is skipped: the
    # pass refuses to guess.  Counter.misses (init-only) is config, not
    # shared state.
    assert hits(result) == [
        ("CONC003", 22),  # snapshot reads bare
        ("CONC003", 25),  # reset writes bare
    ]
    read = [f for f in result.active if f.line == 22][0]
    assert "'self.hits' is written under 'Counter._lock'" in read.message
    assert "# guarded-by: _lock" in read.message


def test_conc003_clean_twin_declared_locked_and_inherited():
    result = run_fixture("conc003_clean.py", GuardedByInferenceRule())
    assert hits(result) == []


def test_conc003_respects_inline_suppressions(tmp_path):
    # Program-pass findings route through the same per-file suppression
    # machinery as single-file rules.
    src = FIXTURES.joinpath("conc003_bad.py").read_text(encoding="utf-8")
    src = src.replace(
        "        return self.hits",
        "        return self.hits  # reprolint: disable=CONC003 -- torn"
        " read is benign",
    )
    target = tmp_path / "conc003_suppressed.py"
    target.write_text(src, encoding="utf-8")
    rule = GuardedByInferenceRule()
    rule.configure({})
    result = run_rules(tmp_path, [target], [rule])
    assert hits(result) == [("CONC003", 25)]
    assert [f.line for f in result.suppressed] == [22]
    assert result.suppressed[0].suppress_reason == "torn read is benign"


# ---------------------------------------------------------------------------
# ARR001 — shape/dtype contracts
# ---------------------------------------------------------------------------


def test_arr001_catches_constructor_and_call_violations():
    result = run_fixture("arr001_bad.py", ArrayContractRule(), {"paths": [""]})
    assert hits(result) == [
        ("ARR001", 7),  # zeros defaults to float64, contract says int64
        ("ARR001", 8),  # rank-1 constructor, rank-2 contract
        ("ARR001", 10),  # (R, V) passed where (V, R) declared
        ("ARR001", 10),  # rank-2 flags passed to rank-1 parameter
    ]
    messages = sorted(f.message for f in result.active if f.line == 10)
    assert "dim mismatch ('R' vs 'V')" in messages[1]
    assert "rank mismatch (2 vs 1)" in messages[0]


def test_arr001_clean_twin_and_wildcards():
    result = run_fixture(
        "arr001_clean.py", ArrayContractRule(), {"paths": [""]}
    )
    assert hits(result) == []


def test_arr001_only_applies_on_configured_paths():
    result = run_fixture(
        "arr001_bad.py", ArrayContractRule(), {"paths": ["src/repro/"]}
    )
    assert hits(result) == []


# ---------------------------------------------------------------------------
# baseline: fingerprints, add/expire round-trip
# ---------------------------------------------------------------------------


def _finding(message, line=10, rule="CONC002", path="src/x.py"):
    return Finding(
        path=path, line=line, col=0, rule=rule, message=message, hint=""
    )


def test_fingerprint_survives_line_drift_inside_messages():
    a = _finding("call path via src/x.py:120 while holding 'P._lock'")
    b = _finding(
        "call path via src/x.py:355 while holding 'P._lock'", line=99
    )
    assert fingerprint(a) == fingerprint(b)
    # ...but a different rule, file, or wording is a different identity.
    assert fingerprint(a) != fingerprint(
        _finding("call path via src/x.py:120 while holding 'P._other'")
    )
    assert fingerprint(a) != fingerprint(a.__class__(
        path="src/y.py", line=10, col=0, rule="CONC002",
        message=a.message, hint="",
    ))


def test_baseline_round_trip_add_then_expire(tmp_path):
    baseline_path = tmp_path / "baseline.json"
    found = [_finding("blocking under 'P._lock'")]
    # 1. A new finding lands in the baseline stamped UNJUSTIFIED.
    count = write_baseline(baseline_path, found)
    assert count == 1
    raw = json.loads(baseline_path.read_text(encoding="utf-8"))
    assert raw["entries"][0]["justification"] == UNJUSTIFIED
    # 2. A human writes the reason; apply_baseline marks the finding.
    raw["entries"][0]["justification"] = "the lock serialises this"
    baseline_path.write_text(json.dumps(raw), encoding="utf-8")
    baseline = load_baseline(baseline_path)
    applied = apply_baseline(list(found), baseline)
    assert applied[0].baselined
    assert applied[0].baseline_reason == "the lock serialises this"
    # 3. Rewriting with the finding still present keeps the reason.
    write_baseline(baseline_path, found, baseline)
    again = load_baseline(baseline_path)
    assert [e["justification"] for e in again.entries.values()] == [
        "the lock serialises this"
    ]
    # 4. The finding is fixed: the entry is stale and expires on rewrite.
    gone = load_baseline(baseline_path)
    apply_baseline([], gone)
    assert [e["rule"] for e in gone.stale] == ["CONC002"]
    assert write_baseline(baseline_path, [], gone) == 0
    assert json.loads(baseline_path.read_text(encoding="utf-8"))[
        "entries"
    ] == []


def test_cli_baseline_gates_new_findings_only(tmp_path):
    # End-to-end through the standalone CLI: seed a project with one
    # violation, baseline it, verify clean exit, then check --strict
    # flags the entry as stale once the violation is fixed.
    from reprolint.__main__ import main

    (tmp_path / "pyproject.toml").write_text(
        '[tool.reprolint]\npaths = ["."]\nbaseline = "baseline.json"\n',
        encoding="utf-8",
    )
    bad = FIXTURES.joinpath("conc003_bad.py").read_text(encoding="utf-8")
    (tmp_path / "racy.py").write_text(bad, encoding="utf-8")
    root = ["--root", str(tmp_path), "--only", "CONC003"]
    assert main(root) == 1  # findings, no baseline yet
    assert main([*root, "--update-baseline"]) == 0
    assert main(root) == 0  # baselined -> clean
    assert main([*root, "--no-baseline"]) == 1  # still visible on demand
    clean = FIXTURES.joinpath("conc003_clean.py").read_text(encoding="utf-8")
    (tmp_path / "racy.py").write_text(clean, encoding="utf-8")
    assert main(root) == 0  # stale entries don't fail a plain run...
    assert main([*root, "--strict"]) == 1  # ...but --strict expires them
    assert main([*root, "--update-baseline"]) == 0
    assert main([*root, "--strict"]) == 0


def test_lint_run_leaves_the_project_untouched(tmp_path):
    # A lint run is read-only: no cache directory, no state files.
    from reprolint.__main__ import main

    (tmp_path / "pyproject.toml").write_text(
        '[tool.reprolint]\npaths = ["."]\n', encoding="utf-8"
    )
    bad = FIXTURES.joinpath("conc003_bad.py").read_text(encoding="utf-8")
    (tmp_path / "racy.py").write_text(bad, encoding="utf-8")
    before = set(tmp_path.rglob("*"))
    assert main(["--root", str(tmp_path), "--strict", "--stats"]) == 1
    assert set(tmp_path.rglob("*")) == before


# ---------------------------------------------------------------------------
# SARIF 2.1.0 output
# ---------------------------------------------------------------------------


def test_sarif_structure_and_suppressions():
    import reprolint
    from reprolint.sarif import format_sarif

    rule = GuardedByInferenceRule()
    rule.configure({})
    result = run_rules(FIXTURES, [FIXTURES / "conc003_bad.py"], [rule])
    log = json.loads(format_sarif(result, [rule], reprolint.__version__))
    assert log["version"] == "2.1.0"
    assert log["$schema"].endswith("sarif-schema-2.1.0.json")
    (run,) = log["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "reprolint"
    (descriptor,) = driver["rules"]
    assert descriptor["id"] == "CONC003"
    assert descriptor["fullDescription"]["text"]  # the rationale
    assert descriptor["help"]["text"]  # the fix recipe
    assert [r["ruleId"] for r in run["results"]] == ["CONC003", "CONC003"]
    first = run["results"][0]
    assert first["level"] == "warning"
    location = first["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "conc003_bad.py"
    assert location["region"]["startLine"] == 22
    assert location["region"]["startColumn"] >= 1  # SARIF is 1-based
    (invocation,) = run["invocations"]
    assert invocation["executionSuccessful"] is True


def test_sarif_marks_baselined_findings_as_external_suppressions():
    import reprolint
    from reprolint.sarif import format_sarif

    finding = _finding("accepted by design")
    baselined = Finding(
        path=finding.path,
        line=finding.line,
        col=finding.col,
        rule=finding.rule,
        message=finding.message,
        hint="",
        baselined=True,
        baseline_reason="the lock serialises exactly this",
    )
    result = run_rules(FIXTURES, [], [])
    result.findings = [baselined]
    log = json.loads(format_sarif(result, [], reprolint.__version__))
    (entry,) = log["runs"][0]["results"][0]["suppressions"]
    assert entry["kind"] == "external"
    assert entry["justification"] == "the lock serialises exactly this"


def test_cli_sarif_out_writes_log_file(tmp_path):
    from reprolint.__main__ import main

    (tmp_path / "pyproject.toml").write_text(
        '[tool.reprolint]\npaths = ["."]\n', encoding="utf-8"
    )
    (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
    out = tmp_path / "artifacts" / "reprolint.sarif"
    assert (
        main(["--root", str(tmp_path), "--sarif-out", str(out)]) == 0
    )
    log = json.loads(out.read_text(encoding="utf-8"))
    assert log["version"] == "2.1.0"
    assert log["runs"][0]["results"] == []


# ---------------------------------------------------------------------------
# --explain
# ---------------------------------------------------------------------------


def test_explain_prints_rationale_and_recipe(capsys):
    from reprolint.__main__ import main

    assert main(["--explain", "conc001"]) == 0  # case-insensitive
    out = capsys.readouterr().out
    assert "CONC001" in out
    assert "Why this rule exists:" in out
    assert "How to fix a finding:" in out
    assert "deadlock" in out


def test_explain_unknown_rule_exits_2(capsys):
    from reprolint.__main__ import main

    assert main(["--explain", "NOPE999"]) == 2
    err = capsys.readouterr().err
    assert "unknown rule" in err
    assert "CONC001" in err  # lists the known IDs


# ---------------------------------------------------------------------------
# engine: suppressions, output formats, discovery
# ---------------------------------------------------------------------------


def test_inline_suppressions_cover_only_named_rules():
    result = run_fixture(
        "suppress_fixture.py", ExplicitDtypeRule(), {"paths": [""]}
    )
    assert hits(result) == [("NP001", 9)]  # the wrong-rule suppression
    suppressed = {f.line: f for f in result.suppressed}
    assert set(suppressed) == {7, 8}
    assert (
        suppressed[7].suppress_reason == "fixture demonstrates suppression"
    )
    assert suppressed[8].suppress_reason == ""  # disable=all, reasonless


def test_json_output_shape():
    rule = ExplicitDtypeRule()
    rule.configure({"paths": [""]})
    result = run_rules(FIXTURES, [FIXTURES / "np001_bad.py"], [rule])
    payload = json.loads(result.to_json())
    assert payload["tool"] == "reprolint"
    assert payload["files_checked"] == 1
    assert [f["line"] for f in payload["findings"]] == [7, 8, 9, 10]
    first = payload["findings"][0]
    assert first["rule"] == "NP001"
    assert first["path"] == "np001_bad.py"
    assert first["hint"]


def test_human_output_has_location_and_summary():
    rule = ExplicitDtypeRule()
    rule.configure({"paths": [""]})
    result = run_rules(FIXTURES, [FIXTURES / "np001_bad.py"], [rule])
    text = result.format_human()
    assert "np001_bad.py:7:" in text
    assert "4 findings" in text


def test_rule_ids_are_unique_and_documented():
    ids = [rule.id for rule in ALL_RULES]
    assert len(ids) == len(set(ids))
    for rule_cls in ALL_RULES:
        assert rule_cls.summary
        assert (rule_cls.__module__ or "").startswith(
            ("reprolint.rules", "reprolint.passes")
        )


def test_make_rules_only_filter():
    rules = make_rules(only=frozenset({"NP001", "UPD001"}))
    assert sorted(rule.id for rule in rules) == ["NP001", "UPD001"]


# ---------------------------------------------------------------------------
# self-check: the real tree is clean (or explicitly suppressed)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tree_lint():
    """One full-tree run shared by the self-checks, before any baseline
    is applied (``apply_baseline`` records matches on the Baseline it is
    given, so each test loads its own)."""
    return lint_project(REPO_ROOT, use_baseline=False)


def test_repro_tree_self_check_is_clean(tree_lint):
    result = dataclasses.replace(
        tree_lint,
        findings=apply_baseline(tree_lint.findings, load_baseline(BASELINE)),
    )
    assert result.errors == []
    assert result.files_checked > 50  # src/repro + tools + benches
    offending = [f.format_human() for f in result.active]
    assert offending == [], "\n".join(offending)
    # The known, documented suppressions stay visible — every one carries
    # a reason.
    for finding in result.suppressed:
        assert finding.suppress_reason, finding.format_human()
    # Baselined findings likewise carry their (human-written) reason.
    for finding in result.baselined:
        assert finding.baseline_reason, finding.format_human()


def test_repro_baseline_is_justified_and_not_stale(tree_lint):
    baseline = load_baseline(BASELINE)
    assert baseline.entries, "expected the by-design pool entries"
    for entry in baseline.entries.values():
        assert entry["justification"], entry
        assert UNJUSTIFIED not in entry["justification"], entry
    live = {fingerprint(f) for f in tree_lint.findings if not f.suppressed}
    stale = [fp for fp in baseline.entries if fp not in live]
    assert stale == [], f"stale baseline entries: {stale}"


def test_lint_cli_strict_self_check_is_clean():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--strict"],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 findings" in proc.stdout


def test_lint_cli_subcommand_json_roundtrip():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--format", "json"],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["findings"] == []
    assert payload["files_checked"] > 50


def test_lint_cli_hands_help_to_reprolint(capsys, monkeypatch):
    from repro.cli import main as repro_main

    monkeypatch.chdir(REPO_ROOT)
    with pytest.raises(SystemExit) as exit_info:
        repro_main(["lint", "-h"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: reprolint")


def test_lint_cli_list_rules():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--list-rules"],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    for rule_cls in ALL_RULES:
        assert rule_cls.id in proc.stdout


# ---------------------------------------------------------------------------
# optional external gates (run when the tools are installed, e.g. in CI)
# ---------------------------------------------------------------------------


def _have(module: str) -> bool:
    try:
        __import__(module)
        return True
    except ImportError:
        return False


@pytest.mark.skipif(not _have("mypy"), reason="mypy not installed")
def test_mypy_strict_gate():
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", "--strict", "src/repro", "tools/reprolint"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.skipif(not _have("ruff"), reason="ruff not installed")
def test_ruff_gate():
    proc = subprocess.run(
        [sys.executable, "-m", "ruff", "check", "."],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
