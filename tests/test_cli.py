"""CLI entry points."""

import pytest

from repro.cli import main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "youtube" in out and "uk" in out and "temporal" in out


def test_oracles_command_lists_registry(capsys):
    assert main(["oracles"]) == 0
    out = capsys.readouterr().out
    for name in ("hcl", "hcl-directed", "hcl-weighted", "bibfs", "pll",
                 "fulfd", "fulpll", "psl", "hcl-sharded"):
        assert name in out
    assert "description" in out
    # capability columns render
    assert "directed" in out and "serial" in out


def test_run_unknown_experiment(capsys):
    assert main(["run", "table99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_run_experiment_with_subset(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "0.12")
    monkeypatch.setenv("REPRO_RESULTS", str(tmp_path))
    assert main(["run", "fig5", "--datasets", "youtube", "--csv", "f.csv"]) == 0
    out = capsys.readouterr().out
    assert "Figure 5" in out
    assert (tmp_path / "f.csv").exists()


def test_quickcheck_passes(capsys):
    assert main(["quickcheck", "--trials", "4"]) == 0
    assert "4/4 trials clean" in capsys.readouterr().out


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


LOADTEST_ARGS = [
    "loadtest",
    "--random", "120", "0.05",
    "--landmarks", "5",
    "--queries", "150",
    "--batches", "2",
    "--batch-size", "10",
    "--flush-batch", "8",
    "--flush-delay", "0",
]


def test_loadtest_validated_replay(capsys):
    assert main(LOADTEST_ARGS + ["--validate"]) == 0
    out = capsys.readouterr().out
    assert "150/150 answers exact" in out
    assert "query latency" in out
    assert "staleness" in out
    assert "epochs published" in out


def test_loadtest_closed_loop(capsys):
    assert main(LOADTEST_ARGS + ["--clients", "3"]) == 0
    out = capsys.readouterr().out
    assert "closed loop" in out
    assert "3 clients" in out
    assert "queries            150" in out


def test_serve_session(capsys, monkeypatch):
    import io

    script = "\n".join(
        [
            "help",
            "q 0 1",
            "+ 0 1",   # likely a no-op insert; exercises coalescing anyway
            "flush",
            "epoch",
            "stats",
            "bogus command",
            "q 0",     # malformed -> error line, service keeps running
            "quit",
        ]
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(script))
    assert (
        main(
            [
                "serve",
                "--random", "30", "0.2",
                "--landmarks", "3",
                "--flush-delay", "0",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "commands:" in out
    assert "d(0, 1) =" in out
    assert "epoch" in out
    assert "error: unrecognised command" in out


def test_loadtest_with_registry_oracle(capsys):
    assert main(LOADTEST_ARGS + ["--oracle", "bibfs", "--validate"]) == 0
    out = capsys.readouterr().out
    assert "150/150 answers exact" in out


def test_loadtest_clean_error_on_unknown_oracle(capsys):
    assert main(LOADTEST_ARGS + ["--oracle", "nosuch"]) == 2
    assert "unknown oracle" in capsys.readouterr().err


def test_loadtest_rejects_validate_with_background(capsys):
    assert main(LOADTEST_ARGS + ["--validate", "--background"]) == 2
    assert "foreground" in capsys.readouterr().err


def test_loadtest_clean_error_on_unknown_dataset(capsys):
    assert main(["loadtest", "--dataset", "nosuch", "--queries", "5"]) == 2
    assert "unknown dataset" in capsys.readouterr().err


def test_loadtest_observability_exports(capsys, tmp_path):
    """--metrics-out/--trace-out/--report-interval: the prom file must
    parse and cover query/flush/cache/epoch families; the trace JSONL
    must parse line-by-line with nested flush spans."""
    import json

    from repro.obs.metrics import parse_prometheus
    from repro.obs.trace import get_tracer

    metrics_path = tmp_path / "m.prom"
    trace_path = tmp_path / "trace.jsonl"
    try:
        assert (
            main(
                LOADTEST_ARGS
                + [
                    "--metrics-out", str(metrics_path),
                    "--trace-out", str(trace_path),
                    "--report-interval", "0.05",
                    "--log-level", "info",
                ]
            )
            == 0
        )
    finally:
        get_tracer().disable()
        get_tracer().clear()
    err = capsys.readouterr().err
    assert str(metrics_path) in err
    assert str(trace_path) in err

    samples = parse_prometheus(metrics_path.read_text())
    for family in (
        'repro_queries_total{cache="miss"}',
        "repro_epochs_published_total",
        "repro_cache_misses_total",
        "repro_scheduler_offered_total",
        'repro_query_latency_seconds_count{cache="miss"}',
    ):
        assert family in samples, f"missing {family}"
    assert any(k.startswith("repro_flushes_total{") for k in samples)

    events = [
        json.loads(line)
        for line in trace_path.read_text().splitlines()
    ]
    assert events, "trace export is empty"
    names = {e["name"] for e in events}
    assert {"flush", "batch_update", "publish_epoch"} <= names
    flushes = [e for e in events if e["name"] == "flush"]
    children = [
        e
        for e in events
        if any(
            e["args"]["parent_id"] == f["args"]["span_id"] for f in flushes
        )
    ]
    assert children, "flush spans have no nested children"


def test_loadtest_metrics_out_json(tmp_path, capsys):
    metrics_path = tmp_path / "m.json"
    import json

    assert main(LOADTEST_ARGS + ["--metrics-out", str(metrics_path)]) == 0
    capsys.readouterr()
    payload = json.loads(metrics_path.read_text())
    assert 'repro_queries_total{cache="miss"}' in payload["metrics"]
