"""A/A check: do two sets of runs of the same code agree?

    python -m benchmarks.layered.aa [--sets 2] [--runs 10] [--out AA_RESULTS.md]

Runs the benchmark command of ``BENCHMARK.json`` exactly as the driver
does — one process per run, ``--seed`` 1..runs — in interleaved sets
(set 1 run 1, set 2 run 1, set 1 run 2, ...), and holds every
(end-to-end metric, workload) pair to the driver's own acceptance rule:

* **spread** — the distance between the first and third quartile of a
  set's values (``statistics.quantiles(values, n=4)``) as a share of
  their median — stays within the metric's bound (``setup_s`` is
  exempt), and should stay below a third of it;
* the **median** of a later set is not worse than the first set's by
  more than the bound.

Prints a markdown report (``--out`` also writes it to a file) and exits
non-zero when a rule is broken or any run reported a failed op.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from benchmarks.layered import spec


def one_run(command: list[str], workload: str, seed: int, seconds: int, size: str) -> dict:
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    if size != "full":
        argv += ["--size", size]
    done = subprocess.run(argv, cwd=spec.ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited with code {done.returncode}")
    return json.loads(lines[-1])


def judge(metric: dict, sets: list[list[float]]) -> tuple[list[str], str]:
    """Table cells and the verdict for one (metric, workload) pair."""
    bound = metric["bound"]
    cells: list[str] = []
    verdict = "steady"
    for values in sets:
        q1, median, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / median
        cells.append(f"{median:.5g} [{q1:.5g}, {q3:.5g}] {100 * share:.1f}%")
        if metric["name"] != "setup_s":
            if share > bound:
                verdict = "FAIL spread"
            elif share > bound / 3 and verdict == "steady":
                verdict = "within bound"
    # Every end-to-end metric of this benchmark is lower-is-better.
    first = statistics.median(sets[0])
    drift = max(
        ((statistics.median(values) - first) / first for values in sets[1:]), default=0.0
    )
    cells.append(f"{100 * drift:+.1f}%")
    if drift > bound:
        verdict = "FAIL median"
    highest = max(max(values) for values in sets)
    lowest = min(min(values) for values in sets)
    cells.append(f"{highest / lowest:.3f}")
    return cells, verdict


def main(argv: list[str] | None = None) -> int:
    config = spec.load_benchmark_json()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--size", default="full")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("quartiles need at least two runs per set")
    workloads = args.workload or [w["name"] for w in config["workloads"]]

    # values[workload][metric][set] -> one value per run
    values: dict[str, dict[str, list[list[float]]]] = {
        w: {m["name"]: [[] for _ in range(args.sets)] for m in config["end_to_end"]}
        for w in workloads
    }
    failed_ops = 0
    started = time.time()
    for run in range(args.runs):
        for which in range(args.sets):
            for workload in workloads:
                result = one_run(
                    config["command"], workload, 1 + run, args.seconds, args.size
                )
                failed_ops += result["failed"]
                for name, reading in result["metrics"].items():
                    values[workload][name][which].append(reading["value"])
                print(
                    f"run {run + 1}/{args.runs} set {which + 1} {workload}: "
                    + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                    file=sys.stderr,
                )

    header = ["workload", "metric", "bound"]
    header += [f"set {i + 1}: median [Q1, Q3] spread" for i in range(args.sets)]
    header += ["median drift", "max/min"]
    lines = [
        "# A/A results",
        "",
        f"`python -m benchmarks.layered.aa --sets {args.sets} --runs {args.runs}` "
        f"({args.seconds} s windows, size `{args.size}`, seeds 1..{args.runs}, "
        f"{(time.time() - started) / 60:.0f} min).",
        "",
        "| " + " | ".join(header) + " |",
        "|" + "---|" * len(header),
    ]
    broken = 0
    for workload in workloads:
        for metric in config["end_to_end"]:
            cells, verdict = judge(metric, values[workload][metric["name"]])
            broken += verdict.startswith("FAIL")
            row = [workload, metric["name"], f"{100 * metric['bound']:.0f}%", *cells]
            lines.append("| " + " | ".join(row) + f" | {verdict} |")
    lines[4] = lines[4] + " verdict |"
    lines[5] = lines[5] + "---|"
    lines += ["", f"failed ops over all runs: {failed_ops}", ""]
    passed = not broken and not failed_ops
    lines.append("PASS" if passed else f"FAIL ({broken} pairs, {failed_ops} failed ops)")
    report = "\n".join(lines) + "\n"
    print(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
