"""The harness: generates inputs, drives the worker, times, checks.

One call of :func:`run_workload` is one run of one workload, untraced
(end-to-end metrics) or traced (per-layer metrics).  The system under
test lives in a fresh worker process (:mod:`benchmarks.layered.worker`),
which runs each chunk of ops in one go; this process tells it when,
calibrates it between chunks, regenerates the inputs from the seed and
checks the answers against them outside every timed window.

**Reference speed.**  On a shared two-core box the CPU time of
identical work drifts by 10-20% between runs, minutes apart, with the
box's other tenants.  Between ops the worker therefore runs a fixed
reference kernel (``calib``: ~20 ms of pure-Python plane sweep that no
change to the repository can touch) and every gated time is reported
as ``REF_MS x op time / kernel time`` measured side by side in the same
process: the time the op would have taken had the box run the kernel
in exactly ``REF_MS``.  Every per-layer time is reported as measured.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from benchmarks.layered import inputs, spec
from benchmarks.layered.inputs import Sizes

ROOT = spec.ROOT
TMP_ROOT = ROOT / ".bench_tmp"
SETUP_REPEATS = 3
REF_MS = 25.0
"""CPU milliseconds the reference kernel takes at reference speed."""
REF_IO_MS = 7.5
"""What the kernel's file rewrites (``service_write_durable`` only, see
``worker.calibrate``) add to that: fifty at 0.15 ms."""
FSYNC_MS = 1.0
"""Nominal price of one flush.  ``service_write_durable`` counts its
``os.fsync`` calls instead of performing them (see the worker) and adds
this much to an ack's latency for each, the way the ledger prices a
simulated page I/O: a change in flushes per ack moves ``op_p50_ms`` by
a fixed, repeatable amount.  About what one costs on the sandbox's disk
(``os.fsync.disk_ms`` is the measured figure)."""

Tamper = Callable[[str, Any], Any]
"""Test hook: ``tamper(kind, answer) -> answer`` may corrupt an answer
on its way to the checker, which must then report a failed op."""


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


# -- the worker process ---------------------------------------------------------


class WorkerProcess:
    """One worker: spawn, JSON-lines commands, orderly or violent end."""

    def __init__(
        self, workload: str, seed: int, size: str, data_dir: Path | None = None
    ) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        # Every worker hashes strings alike, so that dicts and sets
        # collide, and therefore cost, the same from one run to the next.
        env["PYTHONHASHSEED"] = "0"
        command = [
            sys.executable, "-m", "benchmarks.layered.worker",
            "--workload", workload, "--seed", str(seed), "--size", size,
        ]
        if data_dir is not None:
            command += ["--data-dir", str(data_dir)]
        self.data_dir = data_dir
        self.process = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env=env,
            text=True,
        )
        self.ready = self._read()

    def _read(self) -> dict[str, Any]:
        assert self.process.stdout is not None
        line = self.process.stdout.readline()
        if not line:
            code = self.process.wait()
            raise RuntimeError(f"worker exited with code {code} before replying")
        return json.loads(line)

    def call(self, cmd: str, **fields: Any) -> dict[str, Any]:
        assert self.process.stdin is not None
        self.process.stdin.write(json.dumps({"cmd": cmd, **fields}) + "\n")
        self.process.stdin.flush()
        return self._read()

    def close(self) -> None:
        """Ask the worker to exit and wait for it."""
        if self.process.poll() is None:
            try:
                assert self.process.stdin is not None
                self.process.stdin.write('{"cmd": "exit"}\n')
                self.process.stdin.flush()
            except (BrokenPipeError, OSError):
                pass
        self._reap()

    def kill(self) -> None:
        """SIGKILL: no flush, no close, no atexit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
        self._reap()

    def _reap(self) -> None:
        for stream in (self.process.stdin, self.process.stdout):
            if stream is not None:
                try:
                    stream.close()
                except (BrokenPipeError, OSError):
                    pass
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


# -- one run ---------------------------------------------------------------------


@dataclass
class Run:
    """State and results of one run of one workload."""

    workload: str
    seed: int
    seconds: float
    size: str
    tamper: Tamper | None = None
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    values: dict[str, float] = field(default_factory=dict)
    detail: dict[str, Any] = field(default_factory=dict)
    traces: dict[str, Any] = field(default_factory=dict)
    # service_read: the (request, reply) pairs set aside for the
    # brute-force check after the window.
    samples: list[tuple[dict, dict]] = field(default_factory=list)
    _dirs: int = 0

    @property
    def sizes(self) -> Sizes:
        return inputs.SIZES[self.size]

    @property
    def ref_ms(self) -> float:
        """CPU ms this workload's kernel takes at reference speed."""
        return REF_MS + (REF_IO_MS if self.workload == "service_write_durable" else 0.0)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)

    def tampered(self, kind: str, answer: Any) -> Any:
        return self.tamper(kind, answer) if self.tamper is not None else answer

    def scratch(self) -> Path:
        """A fresh directory inside the checkout, under this run's own."""
        self._dirs += 1
        path = TMP_ROOT / f"{self.workload}-{os.getpid()}" / str(self._dirs)
        path.mkdir(parents=True)
        return path

    def cleanup(self) -> None:
        """Remove this run's directories (and the shared parent, once
        no other run is using it)."""
        shutil.rmtree(TMP_ROOT / f"{self.workload}-{os.getpid()}", ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass

    # -- set-up ------------------------------------------------------------

    def start(self) -> tuple[WorkerProcess, float]:
        """Start one worker, which brings itself to its first timed op
        (imports, inputs, construction, warm-up ops); returns it and
        the set-up seconds at reference speed.

        Set-up is the CPU time (user+sys) the worker process has used
        when it reports ready: nothing in it waits on a device, and on a
        shared box the CPU clock leaves out what the wall clock would
        add for other processes' turns.  The worker calibrates once as
        it starts (after its imports) and once more here, after the
        warm-up; the first one's own time is taken out."""
        data_dir = self.scratch() if self.workload == "service_write_durable" else None
        worker = WorkerProcess(self.workload, self.seed, self.size, data_dir)
        ready = worker.ready
        cpu_s = ready["cpu_s"] - ready["calib_ms"] / 1000
        calib_ms = (ready["calib_ms"] + worker.call("calib")["ms"]) / 2
        return worker, cpu_s * self.ref_ms / calib_ms

    def start_measured(self) -> WorkerProcess:
        """Set up :data:`SETUP_REPEATS` times, keep the last worker, and
        record the median as ``setup_s``."""
        seconds: list[float] = []
        worker = None
        for repeat in range(SETUP_REPEATS):
            if worker is not None:
                worker.close()
            worker, elapsed = self.start()
            seconds.append(elapsed)
        assert worker is not None
        self.values["setup_s"] = statistics.median(seconds)
        self.detail["setup_samples_s"] = seconds
        return worker


def paced(
    run: Run,
    worker: WorkerProcess,
    count: int | None,
    step: Callable[[int], dict],
    size: int = 1,
    at_least: int = 0,
    between: Callable[[int, int], bool] | None = None,
) -> list[dict]:
    """Call ``step(n)`` again and again with a calibration between
    every two calls, until ``count`` ops are done — or, with ``count``
    None, until ``run.seconds`` have passed and ``at_least`` ops are
    done.  Each reply says how many ops it did under ``"ops"`` and is
    given the mean of the calibrations on either side as
    ``"calib_ms"`` (CPU) and ``"calib_wall_ms"`` (wall).
    ``between(done_before, done_after)`` may do work that is not part
    of the slice; it returns whether it did.  In a
    timed window ``peak_rss_mb`` is read once ``Sizes.rss_after`` ops
    are done (or at the end, if the window was shorter): at a fixed
    amount of work, however many ops the box fits into the window."""

    def calibrate() -> tuple[float, float]:
        reply = worker.call("calib")
        return reply["ms"], reply["wall_ms"]

    def read_rss() -> None:
        if count is None and "peak_rss_mb" not in run.values:
            run.values["peak_rss_mb"] = worker.call("stats")["peak_rss_kb"] / 1024

    rss_after = run.sizes.rss_after[run.workload]

    replies: list[dict] = []
    done = 0
    before = calibrate()
    deadline = time.perf_counter() + run.seconds
    while (
        done < count
        if count is not None
        else done < at_least or time.perf_counter() < deadline
    ):
        reply = step(size if count is None else min(size, count - done))
        after = calibrate()
        reply["calib_ms"] = (before[0] + after[0]) / 2
        reply["calib_wall_ms"] = (before[1] + after[1]) / 2
        replies.append(reply)
        before = after
        done += reply["ops"]
        if between is not None and between(done - reply["ops"], done):
            before = calibrate()
        if done >= rss_after:
            read_rss()
    read_rss()
    return replies


def ops_of(replies: list[dict]) -> int:
    return sum(reply["ops"] for reply in replies)


def cpu_at_reference(run: Run, replies: list[dict]) -> float:
    """CPU ms per op over a slice, each reply scaled by its own
    calibration before the sum."""
    scaled = sum(r["cpu_s"] * 1000 / r["calib_ms"] for r in replies)
    return run.ref_ms * scaled / ops_of(replies)


def cpu_raw(replies: list[dict]) -> float:
    """CPU ms per op over a slice, as measured."""
    return sum(r["cpu_s"] for r in replies) * 1000 / ops_of(replies)


# -- reading a trace dump ------------------------------------------------------------


def layer_values(dump: dict[str, Any], ops: int) -> dict[str, float]:
    """Every per-layer metric the spans and counters of ``dump`` give,
    per op over a traced slice of ``ops`` operations."""
    spans, counters = dump["spans"], dump["counters"]
    zero = {"calls": 0, "total_ns": 0, "self_ns": 0}
    values: dict[str, float] = {}
    for layer in spec.LAYERS:
        if layer.source is None:
            continue
        kind, key = layer.source
        if kind == "counter":
            values[layer.name] = counters.get(key, 0) / ops
            continue
        picked = [spans.get(name, zero) for name in key]
        calls = sum(span["calls"] for span in picked)
        if kind == "self":
            values[layer.name] = sum(span["self_ns"] for span in picked) / ops / 1e6
        elif kind == "calls":
            values[layer.name] = calls / ops
        elif kind == "per_call":
            total = sum(span["total_ns"] for span in picked)
            values[layer.name] = total / calls / 1e6 if calls else 0.0
        elif kind == "per_self":
            own = sum(span["self_ns"] for span in picked)
            values[layer.name] = own / calls / 1e6 if calls else 0.0
        else:
            raise ValueError(f"unknown source kind {kind!r}")
    root_ns = sum(dump["root_ns"])
    values["bench.unattributed_pct"] = (
        100.0 * dump["root_self_ns"] / root_ns if root_ns else 0.0
    )
    return values


# -- reporting ---------------------------------------------------------------------------


def units() -> dict[str, str]:
    """Metric name -> unit, for both kinds of metric."""
    table = {metric.name: metric.unit for metric in spec.END_TO_END}
    table.update({layer.name: layer.unit for layer in spec.LAYERS})
    return table


def result_json(run: Run) -> dict[str, Any]:
    """The driver's result object for one run."""
    unit = units()
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit[name]}
            for name, value in run.values.items()
        },
    }


def print_metrics(run: Run, stream: Any = None) -> None:
    """Every metric as ``workload/name value unit``, then the problems."""
    stream = stream or sys.stdout
    unit = units()
    for name, value in run.values.items():
        print(f"{run.workload}/{name} {value:.6g} {unit[name]}", file=stream)
    for name, value in run.detail.items():
        if isinstance(value, (int, float)):
            print(f"{run.workload}/info.{name} {value:.6g}", file=stream)
    print(f"{run.workload}/attempted_ops {run.attempted} count", file=stream)
    print(f"{run.workload}/failed_ops {run.failed} count", file=stream)
    for problem in run.problems:
        print(f"{run.workload}: FAILED: {problem}", file=stream)
