"""Command-line interface.

Six subcommands::

    python -m repro.cli join --algorithm s3j --workload UN1-UN2
    python -m repro.cli report run.json [--html out.html]
    python -m repro.cli table3 [--scale 0.2]
    python -m repro.cli table4 [--scale 0.2] [--only TR,CFD] [--json]
    python -m repro.cli verify [--quick] [--json]
    python -m repro.cli serve [--entities 500] [--port 7077]

`join` runs one algorithm on one of the paper's evaluation workloads
and prints the phase breakdown; `--report PATH` additionally writes a
machine-readable :class:`~repro.obs.report.RunReport` (``-`` prints the
JSON to stdout instead of the human-readable summary),
`--trace PATH` writes a Chrome ``chrome://tracing`` trace-event file,
and `--events PATH` streams the structured execution event log to a
JSONL file live (``tail -f`` it while the run is in flight).  All
artifact paths are validated up front — a bad combination (``--trace
-``, a missing parent directory, two flags writing the same file)
exits 2 with a clear message *before* the join runs.

`report` renders a saved RunReport: the terminal view (phase table,
event counts) and, with ``--html``, a self-contained HTML report.
`table3` and `table4` regenerate the paper's tables; ``table4 --json``
emits the rows as JSON.  `verify` runs the differential correctness
harness (:mod:`repro.verify`) — every registered algorithm and the
memory-mode engine, cross-checked against the brute-force oracle under
metamorphic transforms and ledger invariants, and S3J's refined sets
held equal across the two modes — and exits non-zero on any
divergence.

Storage faults (DESIGN.md section 11): ``verify --chaos --cases N``
runs N sampled joins on the durable store with one errno fault or
corrupt read injected at the file-I/O seam, and asserts that every run
ends correct with no fault fired, or loud (``OSError`` or
``DurableStoreError``) with one fired.

The long-lived service (DESIGN.md section 15): `serve` starts the
JSON-lines TCP front-end over a resident :class:`PersistentIndex`
(incremental inserts/deletes, background compaction, rate limiting,
circuit breaker), and ``verify --service`` replays interleaved
queries/mutations against an independent model of the live set at every
index epoch.  The ``verify`` mode flags (``--chaos``, ``--service``,
``--crash``, ``--serve-roundtrip``) are mutually exclusive.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import TYPE_CHECKING

from repro.datagen.paper import default_scale, table3_rows
from repro.experiments.runner import run_algorithm
from repro.experiments.table4 import format_table4, table4_rows
from repro.experiments.workloads import WORKLOADS, workload_by_name
from repro.join.api import available_algorithms
from repro.obs import Observability

if TYPE_CHECKING:
    from repro.verify import Report


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be at least 1 (got {value})"
        )
    return value


def _positive_float(text: str) -> float:
    """argparse type: a finite number > 0 (argparse reports a non-number)."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and above 0 (got {value})")
    return value


def _port(text: str) -> int:
    """argparse type: a TCP port, 0 (pick one) through 65535."""
    value = int(text)
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(f"must be 0-65535 (got {value})")
    return value


def _add_scale(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        type=_positive_float,
        default=None,
        help="entity-count scale factor (default: REPRO_SCALE env or 0.2)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for the six subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Size Separation Spatial Join (SIGMOD 1997) reproduction",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    join = commands.add_parser("join", help="run one join experiment")
    join.add_argument(
        "--algorithm",
        choices=available_algorithms(),
        default="s3j",
    )
    join.add_argument(
        "--workload",
        choices=[w.name for w in WORKLOADS],
        default="UN1-UN2",
    )
    join.add_argument(
        "--tiles", type=_positive_int, default=None, help="PBSM tiles per dimension"
    )
    join.add_argument(
        "--mode",
        choices=("ledger", "memory"),
        default="ledger",
        help="execution engine: the simulated-I/O ledger model (default) "
        "or the vectorized in-memory fast path (s3j only)",
    )
    join.add_argument(
        "--backend",
        choices=("memory", "durable"),
        default="memory",
        help="physical page store of ledger mode: in-process (default) "
        "or the WAL-backed crash-consistent store in real files; the "
        "simulated ledger is byte-identical across both",
    )
    join.add_argument(
        "--data-dir",
        default=None,
        metavar="DIR",
        help="directory for the durable backend's files "
        "(default: a temporary directory)",
    )
    join.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="write a machine-readable RunReport JSON ('-' for stdout)",
    )
    join.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a Chrome trace-event file (open in chrome://tracing)",
    )
    join.add_argument(
        "--events",
        default=None,
        metavar="PATH",
        help="stream the structured event log to a JSONL file live "
        "(tail -f it to watch the run's phases while it is in flight)",
    )
    _add_scale(join)

    report = commands.add_parser(
        "report", help="render a saved RunReport (terminal and/or HTML)"
    )
    report.add_argument("path", help="RunReport JSON written by join --report")
    report.add_argument(
        "--html",
        default=None,
        metavar="PATH",
        help="additionally write a self-contained HTML report",
    )
    report.add_argument(
        "--json",
        action="store_true",
        help="emit a compact machine-readable summary instead of the "
        "terminal view",
    )

    table3 = commands.add_parser("table3", help="regenerate Table 3")
    _add_scale(table3)

    verify = commands.add_parser(
        "verify", help="run the differential correctness harness"
    )
    verify.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke configuration: 3 workloads, 4 transforms",
    )
    # The gates are alternatives: naming two of them is an error (exit
    # 2), not a silent pick of whichever comes first.
    mode = verify.add_mutually_exclusive_group()
    mode.add_argument(
        "--chaos",
        action="store_true",
        help="chaos mode: run sampled joins on the durable store with one "
        "seam fault each (EIO/ENOSPC on a read, write or fsync, or a "
        "corrupt read) and assert every fired fault ends loud and every "
        "other run correct",
    )
    mode.add_argument(
        "--service",
        action="store_true",
        help="service mode: replay interleaved queries/inserts/deletes "
        "through the long-lived join service on a durable index and "
        "require oracle-equal answers at every index epoch (with a "
        "burst of EIO reads at the file-I/O seam)",
    )
    mode.add_argument(
        "--crash",
        action="store_true",
        help="crash mode: replay --cases seeded schedules on a recording "
        "disk, reopen the durable store from every state a power cut "
        "could leave at every fsync, and require oracle-exact recovered "
        "answers (default 3 schedules)",
    )
    mode.add_argument(
        "--serve-roundtrip",
        action="store_true",
        help="kill a real `repro serve` on a durable data dir with SIGKILL "
        "and require the restarted one to answer the same window query",
    )
    verify.add_argument(
        "--cases",
        type=_positive_int,
        default=None,
        metavar="N",
        help="number of sampled fault scenarios in chaos mode (default 25), "
        "of seeded schedules in crash mode (default 3)",
    )
    verify.add_argument(
        "--ops",
        type=_positive_int,
        default=60,
        metavar="N",
        help="number of replayed operations in service mode (default 60)",
    )
    verify.add_argument(
        "--workloads",
        default=None,
        help="comma-separated workload names (default: the mode's roster)",
    )
    verify.add_argument(
        "--algorithms",
        default=None,
        help="comma-separated algorithm names (default: all registered)",
    )
    verify.add_argument(
        "--transforms",
        default=None,
        help="comma-separated metamorphic transform names",
    )
    verify.add_argument(
        "--seed", type=int, default=0, help="workload generation seed"
    )
    verify.add_argument(
        "--no-minimize",
        action="store_true",
        help="report raw divergences without shrinking counterexamples",
    )
    verify.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON instead of the summary",
    )

    serve = commands.add_parser(
        "serve", help="run the long-lived join service (JSON-lines TCP)"
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve.add_argument(
        "--port",
        type=_port,
        default=0,
        help="bind port (default 0: pick an ephemeral port and print it)",
    )
    serve.add_argument(
        "--entities",
        type=_positive_int,
        default=500,
        help="size of the uniform bootstrap dataset (default 500)",
    )
    serve.add_argument(
        "--seed", type=int, default=0, help="bootstrap dataset seed"
    )
    serve.add_argument(
        "--rate",
        type=float,
        default=None,
        metavar="QPS",
        help="token-bucket admission rate in queries/second "
        "(default: unlimited)",
    )
    serve.add_argument(
        "--compaction-threshold",
        type=_positive_int,
        default=None,
        metavar="N",
        help="the fewest mutations since the last fold that trigger "
        "background compaction; a fold is due at max(N, live entities / 8) "
        "(default 256)",
    )
    serve.add_argument(
        "--data-dir",
        default=None,
        metavar="DIR",
        help="durable index directory: created and bootstrapped on "
        "first use, reopened (bootstrap dataset ignored) when it "
        "already holds an index — the service survives restarts",
    )

    table4 = commands.add_parser("table4", help="regenerate Table 4")
    table4.add_argument(
        "--only",
        default=None,
        help="comma-separated workload names (default: all six)",
    )
    table4.add_argument(
        "--json",
        action="store_true",
        help="emit the rows as JSON instead of the formatted table",
    )
    _add_scale(table4)

    return parser


def _validate_output_paths(args: argparse.Namespace) -> str | None:
    """Check join's artifact flags before running anything.

    ``--report -`` means "JSON to stdout", but a trace or event stream
    has nowhere sensible to go on stdout next to it; and a typo'd
    directory should fail *before* minutes of join work, not after.
    Returns an error message, or None when the combination is valid.
    """
    seen: dict[str, str] = {}
    for flag, path in (
        ("--report", args.report),
        ("--trace", args.trace),
        ("--events", args.events),
    ):
        if path is None:
            continue
        if path == "-":
            if flag != "--report":
                return (
                    f"{flag} cannot write to stdout ('-'); give it a file path"
                )
            continue
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            return (
                f"{flag}: parent directory {parent!r} does not exist "
                f"(create it first)"
            )
        if os.path.isdir(path):
            return f"{flag}: {path!r} is a directory"
        resolved = os.path.abspath(path)
        if resolved in seen:
            return (
                f"{seen[resolved]} and {flag} both write to {path!r}; "
                f"give them distinct paths"
            )
        seen[resolved] = flag
    return None


def cmd_join(args: argparse.Namespace) -> int:
    """Run one algorithm on one evaluation workload."""
    error = _validate_output_paths(args)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    scale = args.scale
    workload = workload_by_name(args.workload)
    dataset_a, dataset_b = workload.datasets(scale)
    params = {}
    if args.tiles is not None:
        if args.algorithm != "pbsm":
            print("--tiles only applies to pbsm", file=sys.stderr)
            return 2
        params["tiles_per_dim"] = args.tiles
    if args.mode == "memory":
        if args.algorithm != "s3j":
            print("--mode memory implements s3j only", file=sys.stderr)
            return 2
        if args.backend != "memory" or args.data_dir is not None:
            print(
                "--backend/--data-dir are storage-layer knobs; "
                "--mode memory has no storage to configure",
                file=sys.stderr,
            )
            return 2
    if args.data_dir is not None and args.backend == "memory":
        print("--data-dir needs --backend durable", file=sys.stderr)
        return 2
    obs = None
    event_log = None
    if args.report or args.trace or args.events:
        from repro.obs.events import EventLog

        event_log = EventLog(stream_path=args.events)
        obs = Observability(events=event_log)
    try:
        run = run_algorithm(
            dataset_a,
            dataset_b,
            args.algorithm,
            predicate=workload.predicate(),
            scale=scale,
            obs=obs,
            mode=args.mode,
            backend=args.backend,
            data_dir=args.data_dir,
            **params,
        )
    finally:
        if event_log is not None:
            event_log.close()
            if args.events:
                print(f"events    : {args.events}", file=sys.stderr)
    metrics = run.result.metrics
    if args.report == "-":
        # Pure JSON on stdout: no human-readable summary mixed in.
        print(run.report.to_json())
    else:
        print(f"workload  : {workload.name} (figure {workload.figure}, scale {scale})")
        print(f"algorithm : {args.algorithm}")
        if args.mode != "ledger":
            print(f"mode      : {args.mode}")
        if args.backend != "memory":
            print(f"backend   : {args.backend}")
        print(f"pairs     : {len(run.result):,}")
        print(f"page I/Os : {metrics.total_ios:,}")
        print(f"r_A / r_B : {metrics.replication_a:.2f} / {metrics.replication_b:.2f}")
        print("phases    :")
        for phase, seconds in metrics.breakdown().items():
            print(f"  {phase:<10} {seconds:8.2f} s")
        print(f"total     : {metrics.response_time:8.2f} s (simulated)")
        if args.report:
            run.report.save(args.report)
            print(f"report    : {args.report}", file=sys.stderr)
    if args.trace:
        from repro.obs.fileio import atomic_write_json

        atomic_write_json(args.trace, obs.tracer.to_chrome_trace(), indent=None)
        print(f"trace     : {args.trace}", file=sys.stderr)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Render a saved RunReport as terminal timeline and/or HTML."""
    from repro.obs.render import render_report, summary_dict
    from repro.obs.report import RunReport

    try:
        report = RunReport.load(args.path)
    except FileNotFoundError:
        print(f"error: no such report: {args.path}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, json.JSONDecodeError) as error:
        print(
            f"error: {args.path} is not a RunReport JSON: {error}",
            file=sys.stderr,
        )
        return 2
    if args.html is not None:
        parent = os.path.dirname(args.html) or "."
        if not os.path.isdir(parent):
            print(
                f"error: --html: parent directory {parent!r} does not exist",
                file=sys.stderr,
            )
            return 2
    if args.json:
        print(json.dumps(summary_dict(report), indent=2, sort_keys=True))
    else:
        print(render_report(report), end="")
    if args.html is not None:
        from repro.obs.html import write_html_report

        write_html_report(report, args.html)
        print(f"html      : {args.html}", file=sys.stderr)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Run one correctness gate; exit 1 on any violation, 2 on a bad
    argument."""
    from functools import partial

    from repro import verify

    def progress(message: str) -> None:
        print(message, file=sys.stderr)

    try:
        cases = (
            verify.cases_by_name(tuple(args.workloads.split(",")), seed=args.seed)
            if args.workloads
            else None
        )
        counted = {} if args.cases is None else {"cases": args.cases}
        if args.crash:
            gate = partial(verify.run_crash_verify, **counted)
        elif args.serve_roundtrip:
            gate = verify.run_serve_roundtrip
        elif args.service:
            gate = partial(verify.run_service_verify, ops=args.ops)
        elif args.chaos:
            gate = partial(verify.run_chaos, **counted)
        else:
            gate = partial(
                verify.run_verify,
                quick=args.quick,
                cases=cases,
                transforms=(
                    verify.transforms_by_name(tuple(args.transforms.split(",")))
                    if args.transforms
                    else None
                ),
                executors=verify.default_executors(
                    algorithms=(
                        tuple(args.algorithms.split(",")) if args.algorithms else None
                    ),
                ),
                minimize=not args.no_minimize,
            )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return _emit(gate(seed=args.seed, progress=progress), args.json)


def _emit(report: Report, as_json: bool) -> int:
    """Print a verify report; its exit code is its verdict."""
    if as_json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
    return 0 if report.ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-lived join service until interrupted."""
    import asyncio

    from repro.datagen.uniform import uniform_squares
    from repro.service import (
        IndexExistsError,
        JoinService,
        PersistentIndex,
        ServiceConfig,
        ServiceServer,
    )

    try:
        config = ServiceConfig(rate=args.rate)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    dataset = uniform_squares(
        args.entities, 0.04, seed=args.seed, name="SERVE"
    )
    index_params = {}
    if args.compaction_threshold is not None:
        index_params["compaction_threshold"] = args.compaction_threshold
    if args.data_dir is not None:
        index_params["data_dir"] = args.data_dir

    def open_index() -> PersistentIndex:
        # The opened store decides: the bootstrap dataset is for a first
        # boot only — one that committed nothing counts as never booted.
        try:
            return PersistentIndex(dataset.entities, **index_params)
        except IndexExistsError:
            return PersistentIndex(**index_params)

    async def run() -> None:
        with open_index() as index:
            server = ServiceServer(JoinService(index, config), args.host, args.port)
            host, port = await server.start()
            origin = "bootstrapped"
            if index.recovered:
                mapped = index._backend().last_recovery.mapped_pages
                origin = (
                    f"recovered ({index.notes_replayed} notes replayed, "
                    f"{mapped} pages mapped from the log, "
                    f"{index.debris_dropped} debris files dropped)"
                )
            print(
                f"serving {len(index)} entities on {host}:{port} {origin} "
                f"(JSON-lines; ops: point window join insert delete stats)",
                file=sys.stderr,
            )
            try:
                await server.serve_forever()
            finally:
                await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("interrupted; service stopped", file=sys.stderr)
    return 0


def cmd_table3(args: argparse.Namespace) -> int:
    """Print the regenerated Table 3."""
    rows = table3_rows(args.scale)
    print(f"{'Name':<6}{'Size':>9}{'Coverage':>10}{'Paper':>8}  Type")
    for row in rows:
        print(
            f"{row['name']:<6}{row['size']:>9,}{row['coverage']:>10.3f}"
            f"{row['paper_coverage']:>8}  {row['type']}"
        )
    return 0


def cmd_table4(args: argparse.Namespace) -> int:
    """Print the regenerated Table 4."""
    only = tuple(args.only.split(",")) if args.only else None
    rows = table4_rows(args.scale, only=only)
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
    else:
        print(format_table4(rows))
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("join", "table3", "table4") and args.scale is None:
        try:
            args.scale = default_scale()
        except ValueError as error:
            parser.error(str(error))
    handlers = {
        "join": cmd_join,
        "report": cmd_report,
        "table3": cmd_table3,
        "table4": cmd_table4,
        "verify": cmd_verify,
        "serve": cmd_serve,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
