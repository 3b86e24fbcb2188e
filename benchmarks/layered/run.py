"""One run of one workload: the command ``BENCHMARK.json`` names.

    python3 benchmarks/layered/run.py --workload NAME --seed N --seconds S --trace 0|1

Prints every metric as ``workload/name value unit`` and, as the last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Exits non-zero when an op failed or an answer was wrong.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.layered import harness, inputs, spec, workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(inputs.SIZES), default="full")
    args = parser.parse_args(argv)

    run = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), size=args.size
    )
    harness.print_metrics(run)
    print(json.dumps(harness.result_json(run)))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
