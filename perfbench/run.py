"""Run one benchmark workload and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload ba-b10-mixed --seed 1 --seconds 36 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps each
layer with timing shims and prints the per-layer metrics instead, and
writes the spans to ``perfbench/out/``.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every checked answer was right.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("ba-b10-mixed", "grid-b1000-writes", "ba-read-hot")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny graphs with every answer checked (for tests)",
    )
    parser.add_argument(
        "--out", default=str(HERE / "out"),
        help="directory for result summaries and span files",
    )
    return parser.parse_args(argv)


def host_fingerprint() -> dict[str, Any]:
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _line(name: str, value: float, unit: str) -> str:
    return f"  {name:<36} {value:>16.6g} {unit}"


def main(
    argv: list[str] | None = None,
    factory: Callable[..., Any] | None = None,
) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no {SRC / 'repro'}; run from a checkout that holds"
            " the program's sources",
            file=sys.stderr,
        )
        return 2
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)

    from repro.obs.trace import get_tracer
    from repro.service import DistanceService

    from perfbench import layers, loop, shims, workloads

    table = workloads.SMOKE if args.smoke else workloads.WORKLOADS
    workload = table[args.workload]
    inputs = workloads.make_inputs(workload, args.seed)
    host = host_fingerprint()
    print(
        f"perfbench: workload={workload.name} seed={args.seed}"
        f" seconds={args.seconds:g} trace={args.trace}"
        f"{' smoke' if args.smoke else ''}"
    )
    print(
        f"host: nproc={host['nproc']} cpu={host['cpu']!r}"
        f" python={host['python']} numpy={host['numpy']}"
    )
    print(
        f"inputs: sha256={inputs.digest} vertices={inputs.graph.num_vertices}"
        f" edges={inputs.graph.num_edges} updates={len(inputs.updates)}"
        f" query_pairs={len(inputs.pairs)}"
    )

    recorder = None
    missing: list[str] = []
    run_factory = factory or DistanceService
    if args.trace:
        tracer = get_tracer()
        tracer.clear()
        recorder = shims.Recorder(tracer)
        with shims.installed(recorder) as missing:
            window = loop.run_workload(
                workload, inputs, args.seconds, recorder, run_factory
            )
        tracer.disable()
    else:
        window = loop.run_workload(
            workload, inputs, args.seconds, None, run_factory
        )

    end_to_end = loop.end_to_end(window)
    failed = len(window.failures)
    print(
        f"window: {window.seconds:.3f} s, {len(window.query_s)} queries"
        f" ({len(window.miss_s)} cache misses), {window.updates} updates"
        f" submitted, {window.applied} applied,"
        f" {window.checks} answers checked by BFS"
    )
    kept = {
        name: len(samples)
        for name, samples in loop.full_speed_samples(window).items()
    }
    print(
        f"host speed: {len(window.probes)} probes, p1"
        f" {loop.percentile(window.probes, 1) * 1e3:.3f} ms, median"
        f" {loop.percentile(window.probes, 50) * 1e3:.3f} ms; samples used"
        f" (probe within {loop.FULL_SPEED:g}x of p1, else the fastest):"
        f" {kept['queries']} queries, {kept['misses']} misses,"
        f" {kept['epoch_rates']} of {len(window.cycle_s)} epochs,"
        f" {kept['setups']} of {len(window.setup_s)} set-ups"
    )
    factor = loop.host_factor(window)
    print(
        f"times below are scaled to a {loop.PROBE_REFERENCE_S * 1e3:g} ms"
        f" probe: divided by {factor:.4f} (rates multiplied)"
    )
    units = dict(loop.END_TO_END)
    for name, unit in loop.END_TO_END:
        print(_line(name, end_to_end[name], unit))
    if kept["queries"] < 100 or kept["misses"] < 100:
        print(
            "  note: fewer than 100 samples, so p90 has fewer than 10"
            " samples beyond it"
        )
    print(
        f"  {'failed_ops_ratio':<36} {failed / window.attempted:>16.6g}"
        f" ({failed} failed / {window.attempted} attempted)"
    )
    for failure in window.failures[:10]:
        print(f"  FAILED: {failure}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}"
    summary: dict[str, Any] = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "trace": args.trace,
        "host": host,
        "inputs_sha256": inputs.digest,
        "host_probes_s": window.probes,
        "samples_used": kept,
        "host_factor": factor,
        "setups": {"s": window.setup_s, "probe_s": window.setup_probe},
        "epochs": {
            "applied": window.cycle_applied, "s": window.cycle_s,
            "probe_s": window.cycle_probe,
        },
        "end_to_end": end_to_end,
        "attempted": window.attempted,
        "failed": failed,
        "failures": window.failures[:20],
    }
    reported = {name: (end_to_end[name], unit) for name, unit in units.items()}

    if recorder is not None:
        obs_search_s = layers.obs_search_seconds(get_tracer().events())
        per_layer = layers.per_layer(recorder, window, obs_search_s)
        reported = {
            name: (per_layer[name], unit) for name, unit in layers.PER_LAYER
        }
        print("per layer (self time; write path per flush, read path per query):")
        for name, unit in layers.PER_LAYER:
            print(_line(name, per_layer[name], unit))
        for target in missing:
            print(f"  not traced (target missing): {target}")
        breakdown = layers.flush_breakdown(recorder)
        print("flush wall time by layer (self time, share of flush):")
        for name, share in breakdown:
            print(f"  {name:<36} {share:>16.2%}")
        decode_plus_search = (
            per_layer["core.labelling.decode_s"]
            + per_layer["core.batch_kernels.search_s"]
            + per_layer["core.batch_search.search_s"]
        )
        print(
            f"  repro.obs 'search' span: {per_layer['obs.trace.search_s']:.6g}"
            f" s/flush; decode + search kernels: {decode_plus_search:.6g}"
            " s/flush"
        )
        spans_path = out / f"{stem}.spans.jsonl.gz"
        count = recorder.write(
            str(spans_path),
            {"workload": workload.name, "seed": args.seed,
             "inputs_sha256": inputs.digest},
        )
        print(f"spans: {count} written to {spans_path}")
        summary["per_layer"] = per_layer
        summary["flush_breakdown"] = dict(breakdown)
        untraced_path = out / f"{stem}-trace0.json"
        if untraced_path.is_file():
            untraced = json.loads(untraced_path.read_text())
            if untraced.get("inputs_sha256") == inputs.digest:
                overhead = {
                    name: end_to_end[name] - untraced["end_to_end"][name]
                    for name in units
                }
                summary["tracing_overhead"] = overhead
                print(f"tracing overhead (traced minus {untraced_path.name}):")
                for name, unit in units.items():
                    print(_line(name, overhead[name], unit))
        else:
            print(
                f"tracing overhead: run --trace 0 with --seed {args.seed}"
                " first to compare"
            )

    (out / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": window.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in reported.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
