"""The whole benchmark: every workload, both passes, one artifact.

    PYTHONPATH=src python -m benchmarks.layered [--seed N] [--workload NAME ...]
                                                [--seconds S] [--out DIR]

For each workload: one untraced run (end-to-end metrics), then one
traced run (per-layer metrics).  Prints every metric as
``workload/name value unit``, writes the schema-versioned
``BENCH_layers.json`` and one ``TRACE_<workload>.json`` per traced
slice into ``--out`` (default ``bench-artifacts/``), and exits non-zero
when any op failed or any answer was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any

import numpy as np

from benchmarks.layered import harness, inputs, spec, workloads


def filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (``/proc/mounts``)."""
    target = str(path.resolve())
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                _, mount, fstype = line.split()[:3]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=spec.ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(seed: int) -> dict[str, Any]:
    return {
        "schema_version": spec.SCHEMA_VERSION,
        "seed": seed,
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "data_root": str(harness.TMP_ROOT),
        "data_root_filesystem": filesystem_of(spec.ROOT),
        "loadavg_1min_start": os.getloadavg()[0],
    }


def trace_file(dump: dict[str, Any]) -> dict[str, Any]:
    """``TRACE_*.json``: per-name totals, counters, and the kept spans
    as ``[name, start_ns, end_ns, parent, op]`` rows (``parent`` is a
    row index, -1 for a root)."""
    return {
        "schema_version": spec.SCHEMA_VERSION,
        "ops": dump["ops"],
        "totals": dump["spans"],
        "counters": dump["counters"],
        "span_columns": ["name", "start_ns", "end_ns", "parent", "op"],
        "spans": [
            [dump["names"][name], start, end, parent, op]
            for name, start, end, parent, op in dump["rows"]
        ],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=list(spec.WORKLOADS))
    parser.add_argument(
        "--seconds", type=float, default=spec.load_benchmark_json()["run_seconds"]
    )
    parser.add_argument("--size", choices=sorted(inputs.SIZES), default="full")
    parser.add_argument("--out", default=str(spec.ROOT / "bench-artifacts"))
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    env = environment(args.seed)
    if env["loadavg_1min_start"] > env["nproc"]:
        print(
            f"warning: 1-min load average {env['loadavg_1min_start']:.2f} exceeds "
            f"nproc={env['nproc']}; timings will be noisy",
            file=sys.stderr,
        )
    unit = harness.units()
    report: dict[str, Any] = {
        "environment": env,
        "seconds": args.seconds,
        "size": args.size,
        "workloads": {},
    }
    failed = 0
    for workload in args.workload or list(spec.WORKLOADS):
        entry: dict[str, Any] = {"why": spec.WORKLOADS[workload]}
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            run = workloads.run_workload(workload, args.seed, args.seconds, trace, args.size)
            harness.print_metrics(run)
            failed += run.failed
            entry[key] = {
                name: {"value": value, "unit": unit[name]}
                for name, value in run.values.items()
            }
            entry[key + "_ops"] = {
                "attempted": run.attempted,
                "failed": run.failed,
                "problems": run.problems,
            }
            entry.setdefault("detail", {}).update(run.detail)
            for name, dump in run.traces.items():
                path = out / f"TRACE_{name}.json"
                path.write_text(json.dumps(trace_file(dump)) + "\n", encoding="utf-8")
        report["workloads"][workload] = entry
    env["loadavg_1min_end"] = os.getloadavg()[0]
    path = out / "BENCH_layers.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
