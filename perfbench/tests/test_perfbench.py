"""Smoke-scale tests of the benchmark itself."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import run, shims
from perfbench.layers import PER_LAYER
from perfbench.loop import (
    END_TO_END,
    at_least,
    bfs_distance,
    full_speed,
    full_speed_limit,
    percentile,
)
from perfbench.workloads import SMOKE, make_inputs
from repro.graph import generators
from repro.service import DistanceService


def _run(capsys, out_dir, workload, trace, factory=None):
    code = run.main(
        [
            "--workload", workload, "--seed", "3", "--seconds", "2",
            "--trace", str(trace), "--smoke", "--out", str(out_dir),
        ],
        factory=factory,
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace, expected", [(0, END_TO_END), (1, PER_LAYER)])
def test_workload_prints_every_metric_with_its_unit(
    capsys, tmp_path, workload, trace, expected
):
    code, lines, result = _run(capsys, tmp_path, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == dict(expected)
    for name, unit in expected:
        assert any(
            line.split()[:1] == [name] and line.split()[-1] == unit
            for line in lines
        ), name
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert any(line.split()[:2] == ["failed_ops_ratio", "0"] for line in lines)
    else:
        assert (tmp_path / f"{workload}-seed3.spans.jsonl.gz").is_file()
        assert result["metrics"]["service.engine.flush_calls"]["value"] > 0


def test_traced_run_reports_overhead_against_the_untraced_run(
    capsys, tmp_path
):
    _run(capsys, tmp_path, "ba-b10-mixed", 0)
    _, lines, _ = _run(capsys, tmp_path, "ba-b10-mixed", 1)
    assert any(line.startswith("tracing overhead (traced minus") for line in lines)
    summary = json.loads((tmp_path / "ba-b10-mixed-seed3-trace1.json").read_text())
    assert set(summary["tracing_overhead"]) == {name for name, _ in END_TO_END}
    assert "unattributed" in summary["flush_breakdown"]


class OffByOneService(DistanceService):
    """A service double that serves a wrong distance on every third call."""

    calls = 0

    def distance(self, s: int, t: int) -> float:
        value = super().distance(s, t)
        self.calls += 1
        return value + 1 if self.calls % 3 == 0 else value


def test_gate_catches_a_wrong_answer(capsys, tmp_path):
    code, lines, result = _run(
        capsys, tmp_path, "ba-b10-mixed", 0, factory=OffByOneService
    )
    assert code != 0
    assert not result["correct"]
    assert result["failed"] > 0
    assert any("BFS says" in line for line in lines)


def test_same_seed_gives_the_same_inputs():
    workload = SMOKE["ba-read-hot"]
    assert make_inputs(workload, 5).digest == make_inputs(workload, 5).digest
    assert make_inputs(workload, 5).digest != make_inputs(workload, 6).digest


def test_shims_restore_originals_and_compute_self_time():
    import repro.core.queries as queries
    from repro.graph.csr import CSRGraph, bidirectional_distance

    original_from_graph = vars(CSRGraph)["from_graph"]
    recorder = shims.Recorder()
    with shims.installed(recorder):
        assert queries.bidirectional_distance is not bidirectional_distance
        recorder.set_phase("measure")
        CSRGraph.from_graph(generators.path(4))
        recorder.set_phase("paused")
    assert queries.bidirectional_distance is bidirectional_distance
    assert vars(CSRGraph)["from_graph"] is original_from_graph
    assert recorder.names[recorder.name[0]] == "graph.csr.freeze"
    assert len(recorder) == 1
    columns = {
        "start": np.array([0, 10, 20]), "end": np.array([100, 40, 30]),
        "parent": np.array([0, 1, 2]),
    }
    assert shims.self_times(columns).tolist() == [70, 20, 10]


def test_bfs_and_percentile_helpers():
    graph = generators.path(5)
    assert bfs_distance(graph, 0, 4) == 4
    graph.remove_edge(1, 2)
    assert bfs_distance(graph, 0, 4) == float("inf")
    samples = [float(v) for v in range(1, 101)]
    assert percentile(samples, 50) == 50.0
    assert percentile(samples, 99) == 99.0


def test_full_speed_keeps_samples_near_the_fastest_probes():
    probes = [1.0] * 99 + [2.0] * 101
    limit = full_speed_limit(probes)
    assert limit == pytest.approx(1.2)
    assert full_speed([5.0, 9.0, 6.0], [1.0, 2.0, 1.1], limit) == [5.0, 6.0]
    # Fewer than 5 full-speed samples: the 5 with the fastest probes count.
    assert at_least(limit, [2.0, 1.0, 3.0, 2.5, 4.0, 2.2, 5.0], 5) == 3.0
    assert at_least(limit, [1.0] * 5 + [2.0], 5) == limit


def test_exits_nonzero_without_the_program(tmp_path):
    here = Path(run.__file__).resolve().parent
    shutil.copytree(
        here, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", "ba-read-hot",
            "--seed", "1", "--seconds", "1", "--trace", "0",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
