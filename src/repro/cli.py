"""Command-line interface: ``repro-bench`` / ``python -m repro``.

Subcommands:

* ``list``        — the 14 dataset replicas and their original statistics;
* ``oracles``     — the oracle registry: every backend name with its
                    declared capabilities;
* ``run NAME``    — run one experiment driver and print its table
                    (fig2, fig5, fig6, fig7, fig8, table1, table3, table4,
                    table5, table6, ablation);
* ``quickcheck``  — fast end-to-end correctness sweep (minimality +
                    query oracle) on random graphs; exits non-zero on any
                    violation;
* ``serve``       — interactive online service: distance queries and edge
                    updates over stdin, batch-coalesced epochs underneath;
* ``loadtest``    — drive a mixed query/update scenario through the
                    service and report throughput, latency percentiles
                    and epoch staleness (optionally oracle-validated);
* ``lint``        — the reprolint project-invariant static analysis
                    suite (``tools/reprolint``; see README "Static
                    analysis").

``serve``/``loadtest`` take ``--oracle NAME`` to pick the serving backend
from the registry; all index construction goes through
:func:`repro.open_oracle`.
"""

from __future__ import annotations

import argparse
import random
import sys
import threading
from typing import TYPE_CHECKING

from repro.bench import experiments
from repro.workloads.datasets import PAPER_DATASETS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.digraph import DynamicDiGraph
    from repro.graph.dynamic_graph import DynamicGraph
    from repro.graph.weighted_graph import WeightedDynamicGraph
    from repro.service.engine import DistanceService
    from repro.service.metrics import ServiceMetrics

EXPERIMENTS = {
    "fig2": experiments.experiment_fig2,
    "fig5": experiments.experiment_fig5,
    "fig6": experiments.experiment_fig6,
    "fig7": experiments.experiment_fig7,
    "fig8": experiments.experiment_fig8,
    "table1": experiments.experiment_table1_scaling,
    "table3": experiments.experiment_table3,
    "table4": experiments.experiment_table4,
    "table5": experiments.experiment_table5,
    "table6": experiments.experiment_table6,
    "ablation": experiments.experiment_ablation_landmarks,
}


def _cmd_list(_args: argparse.Namespace) -> int:
    header = (
        f"{'name':<14}{'kind':<8}{'replica |V|':>12}{'paper |V|':>12}"
        f"{'paper |E|':>12}  temporal"
    )
    print(header)
    print("-" * len(header))
    for spec in PAPER_DATASETS.values():
        print(
            f"{spec.name:<14}{spec.kind:<8}{spec.num_vertices:>12}"
            f"{spec.paper_vertices:>12.2g}{spec.paper_edges:>12.2g}"
            f"  {'yes' if spec.temporal else 'no'}"
        )
    return 0


def _cmd_oracles(_args: argparse.Namespace) -> int:
    from repro.api import capability_rows

    header = (
        f"{'name':<14}{'directed':>9}{'weighted':>9}{'dynamic':>8}"
        f"{'parallel':>9}{'serial':>7}  description"
    )
    print(header)
    print("-" * len(header))
    for spec in capability_rows():
        caps = spec.capabilities
        flags = [caps.directed, caps.weighted, caps.dynamic, caps.parallel]
        cells = "".join(
            f"{'yes' if flag else '-':>{width}}"
            for flag, width in zip(flags, (9, 9, 8, 9))
        )
        serial = f"{'yes' if caps.serializable else '-':>7}"
        print(f"{spec.name:<14}{cells}{serial}  {spec.description}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    driver = EXPERIMENTS.get(args.experiment)
    if driver is None:
        print(
            f"unknown experiment {args.experiment!r};"
            f" choose from {', '.join(sorted(EXPERIMENTS))}",
            file=sys.stderr,
        )
        return 2
    kwargs: dict[str, tuple[str, ...]] = {}
    if args.datasets:
        kwargs["datasets"] = tuple(args.datasets.split(","))
    table = driver(**kwargs)
    print(table.to_text())
    if args.csv:
        path = table.save_csv(args.csv)
        print(f"saved {path}")
    return 0


def _cmd_quickcheck(args: argparse.Namespace) -> int:
    from repro import EdgeUpdate, open_oracle
    from repro.constants import INF
    from repro.graph import generators
    from repro.graph.csr import bidirectional_distance
    from repro.graph.traversal import bfs_distance_pair, bidirectional_bfs

    rng = random.Random(args.seed)
    failures = 0
    for trial in range(args.trials):
        n = rng.randint(20, 120)
        graph = generators.erdos_renyi(n, rng.uniform(0.03, 0.15), seed=trial)
        index = open_oracle("hcl", graph, num_landmarks=min(5, n))
        edges = list(graph.edges())
        rng.shuffle(edges)
        updates = [EdgeUpdate.delete(a, b) for a, b in edges[:5]]
        for _ in range(5):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                updates.append(EdgeUpdate.insert(a, b))
        if rng.random() < 0.5:
            updates.append(EdgeUpdate.insert(rng.randrange(n), n))  # growth
        index.batch_update(updates, variant=rng.choice(["bhl", "bhl+"]))
        problems = index.check_minimality()
        if problems:
            failures += 1
            print(f"trial {trial}: labelling diverged: {problems[:3]}")
            continue
        n = index.graph.num_vertices
        for _ in range(20):
            s, t = rng.randrange(n), rng.randrange(n)
            expected = bfs_distance_pair(graph, s, t)
            expected = float("inf") if expected >= INF else expected
            if index.distance(s, t) != expected:
                failures += 1
                print(f"trial {trial}: query ({s},{t}) wrong")
                break
        # The two bounded-search kernels (pure-Python traversal vs the
        # frozen-CSR frontier kernel) must agree on the sparsified graph.
        csr = index.ensure_csr()
        landmark_set = frozenset(index.landmarks)
        for _ in range(10):
            s, t = rng.randrange(n), rng.randrange(n)
            bound = rng.choice([INF, rng.randint(0, 10)])
            want = bidirectional_bfs(
                graph, s, t, excluded=landmark_set, bound=bound
            )
            got = bidirectional_distance(
                csr, s, t, excluded=landmark_set, bound=bound
            )
            if got != want:
                failures += 1
                print(
                    f"trial {trial}: kernels disagree on ({s},{t})"
                    f" bound={bound}: python={want} csr={got}"
                )
                break
    print(f"quickcheck: {args.trials - failures}/{args.trials} trials clean")
    return 1 if failures else 0


def _service_graph(args: argparse.Namespace) -> "DynamicGraph":
    """Build the graph a service command operates on."""
    if args.dataset:
        from repro.workloads.datasets import load_dataset

        return load_dataset(args.dataset, scale=args.scale)
    from repro.graph import generators

    n, p = args.random
    return generators.erdos_renyi(int(n), float(p), seed=args.seed)


def _adapt_graph_for_oracle(
    graph: "DynamicGraph", oracle_name: str
) -> "DynamicGraph | DynamicDiGraph | WeightedDynamicGraph":
    """Re-kind a generated undirected graph for the oracle's graph model.

    Dataset loaders and generators produce :class:`DynamicGraph`; directed
    and weighted oracles validate their input kind in ``open_oracle``, so
    serve/loadtest convert here — each undirected edge becomes the arc
    pair (directed) or a unit-weight edge (weighted)."""
    from repro.api.registry import oracle_spec

    caps = oracle_spec(oracle_name).capabilities
    if caps.directed:
        from repro.graph.digraph import DynamicDiGraph

        out = DynamicDiGraph(graph.num_vertices)
        for u, v in graph.edges():
            out.add_edge(u, v)
            out.add_edge(v, u)
        return out
    if caps.weighted:
        from repro.graph.weighted_graph import WeightedDynamicGraph

        out = WeightedDynamicGraph(graph.num_vertices)
        for u, v in graph.edges():
            out.set_weight(u, v, 1)
        return out
    return graph


def _make_service(
    args: argparse.Namespace,
    graph: "DynamicGraph | DynamicDiGraph | WeightedDynamicGraph",
    background: bool,
) -> "DistanceService":
    from repro.service import DistanceService, FlushPolicy

    policy = FlushPolicy(
        max_batch=args.flush_batch,
        max_delay=args.flush_delay if args.flush_delay > 0 else None,
    )
    return DistanceService(
        _adapt_graph_for_oracle(graph, args.oracle),
        oracle=args.oracle,
        oracle_config=(
            None if args.shards is None else {"num_shards": args.shards}
        ),
        num_landmarks=args.landmarks,
        variant=args.variant,
        policy=policy,
        cache_capacity=args.cache,
        background=background,
        max_vertex_growth=None if args.max_growth < 0 else args.max_growth,
    )


def _setup_obs(args: argparse.Namespace) -> None:
    """Arm the observability sinks the flags asked for (before service
    construction, so startup logs and the first flush are captured)."""
    from repro.obs import configure_logging, enable_profiling, get_tracer

    configure_logging(level=args.log_level, fmt=args.log_format)
    if args.trace_out:
        get_tracer().enable()
    if args.profile:
        enable_profiling()


def _finish_obs(
    args: argparse.Namespace, service: "DistanceService"
) -> None:
    """Drain every armed sink to its file; confirmations go to stderr so
    stdout stays the command's report/protocol stream."""
    from repro.obs import (
        get_registry,
        get_tracer,
        profile_sections,
        profile_summary,
        write_metrics,
    )

    if args.metrics_out:
        fmt = write_metrics(
            args.metrics_out, service.metrics.registry, get_registry()
        )
        print(f"metrics ({fmt}) -> {args.metrics_out}", file=sys.stderr)
    if args.trace_out:
        count = get_tracer().export_jsonl(args.trace_out)
        print(f"trace ({count} events) -> {args.trace_out}", file=sys.stderr)
    if args.profile:
        for name in profile_sections():
            print(profile_summary(name), file=sys.stderr)


class _IntervalReporter:
    """Daemon thread printing a windowed stats line every ``interval`` s.

    Uses :meth:`ServiceMetrics.format_interval_line`, so each line covers
    only the window since the previous one (rates, not lifetime means).
    Writes to stderr: stdout carries the serve protocol / report tables.
    """

    def __init__(self, metrics: "ServiceMetrics", interval: float) -> None:
        self._metrics = metrics
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-reporter", daemon=True
        )

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            print(self._metrics.format_interval_line(), file=sys.stderr)

    def __enter__(self) -> "_IntervalReporter":
        if self._interval > 0:
            self._metrics.interval_summary()  # reset the window to now
            self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=1.0)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.errors import ReproError

    _setup_obs(args)
    try:
        service = _make_service(args, _service_graph(args), background=True)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"# serving {service!r}; 'help' lists commands", flush=True)
    stream = sys.stdin
    with service, _IntervalReporter(service.metrics, args.report_interval):
        for line in stream:
            words = line.split()
            if not words or words[0].startswith("#"):
                continue
            command, rest = words[0].lower(), words[1:]
            try:
                if command in ("q", "query") and len(rest) == 2:
                    s, t = int(rest[0]), int(rest[1])
                    print(f"d({s}, {t}) = {service.distance(s, t)}")
                elif command in ("+", "insert") and len(rest) == 2:
                    service.insert_edge(int(rest[0]), int(rest[1]))
                    print(f"ok +({rest[0]}, {rest[1]})")
                elif command in ("-", "delete") and len(rest) == 2:
                    service.delete_edge(int(rest[0]), int(rest[1]))
                    print(f"ok -({rest[0]}, {rest[1]})")
                elif command == "flush":
                    stats = service.flush()
                    applied = stats.n_applied if stats else 0
                    print(f"flushed {applied} updates; epoch {service.epoch}")
                elif command == "epoch":
                    print(f"epoch {service.epoch}")
                elif command == "stats":
                    print(service.metrics.format_report())
                elif command == "help":
                    print(
                        "commands: q S T | + U V | - U V | flush | epoch"
                        " | stats | quit"
                    )
                elif command in ("quit", "exit"):
                    break
                else:
                    print(f"error: unrecognised command {line.strip()!r}")
            except Exception as exc:  # keep serving after a bad request
                print(f"error: {exc}")
            sys.stdout.flush()
    _finish_obs(args, service)
    return 0


def _cmd_loadtest(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.service import ClosedLoopGenerator, mixed_scenario, replay

    _setup_obs(args)
    if args.validate and args.background:
        # The oracle check is only exact for a single-threaded foreground
        # service (the snapshot must not flip between answer and check).
        print(
            "error: --validate requires foreground flushing;"
            " drop --background",
            file=sys.stderr,
        )
        return 2
    try:
        graph = _service_graph(args)
        scenario = mixed_scenario(
            graph,
            num_queries=args.queries,
            num_batches=args.batches,
            batch_size=args.batch_size,
            setting=args.setting,
            seed=args.seed,
            query_skew=args.skew,
        )
        service = _make_service(args, scenario.graph, background=args.background)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"loadtest: |V|={scenario.graph.num_vertices}"
        f" |E|={scenario.graph.num_edges}"
        f" queries={scenario.num_queries} updates={scenario.num_updates}"
        f" setting={scenario.setting}"
        f" mode={'validated replay' if args.validate else 'closed-loop'}"
    )
    mismatches = 0
    with service, _IntervalReporter(service.metrics, args.report_interval):
        if args.validate:
            outcome = replay(service, scenario.ops, validate=True)
            mismatches = outcome["mismatches"]
        else:
            outcome = ClosedLoopGenerator(args.clients).run(
                service, scenario.ops
            )
        service.flush()
        print(service.metrics.format_report())
        print(f"final epoch        {service.epoch}")
    _finish_obs(args, service)
    if args.validate:
        verdict = "all exact" if not mismatches else "MISMATCHES"
        print(
            f"oracle validation  {outcome['queries'] - mismatches}/"
            f"{outcome['queries']} answers exact ({verdict})"
        )
        for failure in outcome["failures"]:
            print(f"  {failure}", file=sys.stderr)
    else:
        print(
            f"closed loop        {outcome['clients']} clients,"
            f" {outcome['throughput_ops']:.0f} ops/s overall"
        )
    return 1 if mismatches else 0


def _add_service_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--oracle", default="hcl",
        help="serving backend from the oracle registry"
        " (see 'repro oracles'; default: hcl)",
    )
    parser.add_argument("--dataset", help="serve a dataset replica by name")
    parser.add_argument(
        "--random",
        nargs=2,
        metavar=("N", "P"),
        default=(500, 0.02),
        help="serve an Erdos-Renyi G(N, P) graph (default: 500 0.02)",
    )
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--landmarks", type=int, default=20)
    parser.add_argument("--variant", default="bhl+")
    parser.add_argument(
        "--flush-batch", type=int, default=512,
        help="flush when this many updates are buffered",
    )
    parser.add_argument(
        "--flush-delay", type=float, default=0.05,
        help="flush when the oldest update waited this long (s); 0 disables",
    )
    parser.add_argument("--cache", type=int, default=4096)
    parser.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="landmark shard count of --oracle hcl-sharded, whose flushes"
        " run on a persistent worker-process pool (default: one per core)",
    )
    parser.add_argument(
        "--max-growth", type=int, default=1024, metavar="N",
        help="accept updates that grow the vertex set by at most N ids"
        " beyond the current count per flush (dynamic writers only;"
        " -1 removes the bound; default: 1024)",
    )
    parser.add_argument("--seed", type=int, default=0)
    _add_obs_options(parser)


def _add_obs_options(parser: argparse.ArgumentParser) -> None:
    obs = parser.add_argument_group("observability")
    obs.add_argument(
        "--log-level", metavar="LEVEL",
        help="level for the repro.* loggers (debug/info/warning/error;"
        " overrides REPRO_LOG)",
    )
    obs.add_argument(
        "--log-format", choices=("human", "json"),
        help="log line format (default: human, or REPRO_LOG's"
        " level:format suffix)",
    )
    obs.add_argument(
        "--metrics-out", metavar="PATH",
        help="write final metrics to PATH on exit (.json suffix = flat"
        " JSON, anything else = Prometheus text exposition)",
    )
    obs.add_argument(
        "--trace-out", metavar="PATH",
        help="enable span tracing; write Chrome/Perfetto trace-event"
        " JSONL to PATH on exit",
    )
    obs.add_argument(
        "--profile", action="store_true",
        help="cProfile the flush/kernel phases; print per-section"
        " summaries to stderr on exit",
    )
    obs.add_argument(
        "--report-interval", type=float, default=0.0, metavar="SECONDS",
        help="print a windowed live-stats line to stderr every SECONDS"
        " while running (0 disables)",
    )


def _cmd_lint(argv: list[str]) -> int:
    """Run the reprolint static analysis suite over this checkout.

    ``tools/reprolint`` ships in the repository, not the installed
    package: the rules encode invariants of *this* source tree, so the
    command locates the checkout (pyproject.toml next to
    ``tools/reprolint``) by walking up from the working directory, puts
    its ``tools/`` directory on the path, and hands ``argv`` unchanged to
    reprolint's own parser (``repro lint -h`` prints reprolint's help).
    """
    from pathlib import Path

    current = Path.cwd().resolve()
    root = None
    for candidate in (current, *current.parents):
        if (candidate / "pyproject.toml").is_file() and (
            candidate / "tools" / "reprolint"
        ).is_dir():
            root = candidate
            break
    if root is None:
        print(
            "repro lint: no checkout with tools/reprolint found above"
            f" {current}; run from the repository",
            file=sys.stderr,
        )
        return 2
    tools_dir = str(root / "tools")
    if tools_dir not in sys.path:
        sys.path.insert(0, tools_dir)
    from reprolint.__main__ import main as reprolint_main

    return reprolint_main(argv)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="BatchHL reproduction: datasets, experiments, checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list dataset replicas").set_defaults(
        func=_cmd_list
    )

    sub.add_parser(
        "oracles", help="list registered distance oracles and capabilities"
    ).set_defaults(func=_cmd_oracles)

    run = sub.add_parser("run", help="run one experiment driver")
    run.add_argument("experiment", help=", ".join(sorted(EXPERIMENTS)))
    run.add_argument("--datasets", help="comma-separated dataset subset")
    run.add_argument("--csv", help="also save the table to results/<csv>")
    run.set_defaults(func=_cmd_run)

    check = sub.add_parser("quickcheck", help="fast correctness sweep")
    check.add_argument("--trials", type=int, default=20)
    check.add_argument("--seed", type=int, default=0)
    check.set_defaults(func=_cmd_quickcheck)

    serve = sub.add_parser(
        "serve", help="online query/update service over stdin"
    )
    _add_service_options(serve)
    serve.set_defaults(func=_cmd_serve)

    loadtest = sub.add_parser(
        "loadtest", help="mixed query/update load test with a latency report"
    )
    _add_service_options(loadtest)
    loadtest.add_argument("--queries", type=int, default=2000)
    loadtest.add_argument("--batches", type=int, default=4)
    loadtest.add_argument("--batch-size", type=int, default=50)
    loadtest.add_argument(
        "--setting",
        choices=("decremental", "incremental", "fully-dynamic"),
        default="fully-dynamic",
    )
    loadtest.add_argument("--clients", type=int, default=4)
    loadtest.add_argument(
        "--skew", type=float, default=0.0,
        help="query popularity skew (0 = uniform; try 3 for cacheable"
        " hot-tier traffic)",
    )
    loadtest.add_argument(
        "--background", action="store_true",
        help="flush on a background writer thread instead of inline",
    )
    loadtest.add_argument(
        "--validate", action="store_true",
        help="single-threaded replay; BFS-check every served answer",
    )
    loadtest.set_defaults(func=_cmd_loadtest)

    # Every argument after ``lint`` belongs to reprolint's own parser.
    sub.add_parser(
        "lint",
        help="run the reprolint project-invariant static analysis",
        add_help=False,
    )

    args, rest = parser.parse_known_args(argv)
    if args.command == "lint":
        return _cmd_lint(rest)
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
