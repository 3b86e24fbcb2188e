"""The kill-and-reopen crash gate for the durable storage stack.

The scenario class the in-process replay cannot model: a real child
process (:mod:`repro.verify.crash_worker`) runs the ops of
:func:`repro.verify.scenario.op_schedule` against a durable
:class:`~repro.service.index.PersistentIndex`, with a sampled
:class:`~repro.storage.durable.CrashPoint` planted in its environment —
the durable backend ``SIGKILL``s its own process mid-log-append,
between a log fsync and its record taking effect, mid-slot-write,
between a barrier's data fsync and its map records, just before a
bulk-load or compaction commit, or mid-checkpoint.  The parent counts
the operations the child *acknowledged* (one ``ack`` line per completed operation),
reopens the store in its own process, and holds it to the model:

- the recovered live-entity set equals the
  :class:`~repro.verify.scenario.LiveModel` after ``k`` or ``k + 1``
  acknowledged operations (the op in flight at the kill either fully
  survived or never happened — nothing in between);
- :func:`~repro.verify.scenario.check_index` against that model passes:
  self-join and window answers are exact;
- reopening a second time changes nothing (recovery is idempotent).

A fault-free ledger-parity check rides along: the same batch join run
on the ``memory`` and ``durable`` backends must produce
byte-identical simulated metrics, proving the durable machinery is
invisible to the paper's cost model.

Wired into ``repro verify --crash`` and the CI crash-smoke job; the
``--serve-roundtrip`` entry point additionally kills and restarts a
real ``repro serve`` process and requires the restarted service to
answer from the recovered index.
"""

from __future__ import annotations

import json
import os
import random
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

from repro.datagen.uniform import uniform_squares
from repro.service.index import PersistentIndex
from repro.storage.durable import CRASH_ENV, CRASH_POINTS, CrashPoint
from repro.verify.report import Report
from repro.verify.scenario import LiveModel, Op, Progress, check_index, op_schedule

WORKER_COMPACTION_THRESHOLD = 12
"""Small on purpose: the schedule must cross several compactions so
commit/checkpoint crash points have occurrences to land on."""

DEFAULT_OPS = 72

# How many occurrences of each point one schedule plausibly produces;
# sampling indexes beyond the high end yields "ran to completion"
# cases, which are kept — surviving with zero crashes is also a result.
_INDEX_RANGES = {
    "wal-append": 40,
    "wal-synced": 40,
    "data-write": 30,
    "data-synced": 6,
    "commit": 6,
    "checkpoint": 3,
}


def sample_crash_point(rng: random.Random) -> CrashPoint:
    """One deterministic crash-point sample."""
    point = rng.choice(CRASH_POINTS)
    return CrashPoint(
        point=point,
        index=rng.randrange(_INDEX_RANGES[point]),
        fraction=rng.uniform(0.05, 0.95),
        action="kill",
    )


def _worker_env(crash: CrashPoint | None) -> dict[str, str]:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else f"{src}{os.pathsep}{existing}"
    if crash is not None:
        env[CRASH_ENV] = crash.to_env()
    else:
        env.pop(CRASH_ENV, None)
    return env


def _run_worker(
    data_dir: str, seed: int, ops: int, crash: CrashPoint | None
) -> tuple[int, int]:
    """Run one schedule in a child process; (acked ops, return code)."""
    process = subprocess.run(
        [
            sys.executable,
            "-u",
            "-m",
            "repro.verify.crash_worker",
            "--data-dir",
            data_dir,
            "--seed",
            str(seed),
            "--ops",
            str(ops),
        ],
        env=_worker_env(crash),
        capture_output=True,
        text=True,
        timeout=240,
    )
    acked = 0
    for line in process.stdout.splitlines():
        if line.startswith("ack "):
            acked = int(line.split()[1]) + 1
    return acked, process.returncode


def run_crash_case(case_no: int, seed: int, ops: int = DEFAULT_OPS) -> Report:
    """One sampled SIGKILL point: run, kill, reopen twice, check."""
    crash = sample_crash_point(random.Random((seed << 16) ^ case_no))
    _, schedule = op_schedule(seed, ops)
    where = f"case {case_no}: {crash.point}[{crash.index}] f={crash.fraction:.2f}"
    with tempfile.TemporaryDirectory(prefix="repro-crash-") as data_dir:
        acked, returncode = _run_worker(data_dir, seed, ops, crash)
        killed = returncode == -signal.SIGKILL
        report = Report(
            gate=where,
            counts={
                "case": case_no,
                "point": crash.point,
                "index": crash.index,
                "fraction": crash.fraction,
                "killed": killed,
                "acked": acked,
                "recovered": 0,
                "recovery": None,
            },
        )
        if not killed and returncode != 0:
            report.fail("worker", where, f"exited {returncode} without being killed")
        elif not killed and acked != ops:
            report.fail("worker", where, f"completed but acked {acked}/{ops}")
        if not report.ok:
            return report
        for reopen in range(2):  # the second pass proves idempotence
            try:
                index = PersistentIndex.open(
                    data_dir, compaction_threshold=WORKER_COMPACTION_THRESHOLD
                )
            except Exception as error:  # noqa: BLE001 - verdict, not control flow
                report.fail(
                    "reopen", where, f"reopen {reopen} raised {type(error).__name__}: {error}"
                )
                break
            with index:
                recovery = index._backend().last_recovery
                if reopen == 0 and recovery is not None:
                    report.counts["recovery"] = recovery.to_dict()
                model, report.counts["recovered"] = _acked_model(index, schedule, acked)
                for problem in check_index(index, model):
                    report.fail("model", where, f"reopen {reopen}: {problem}")
    return report


def _acked_model(
    index: PersistentIndex, schedule: list[Op], acked: int
) -> tuple[LiveModel, int]:
    """The model the recovered index must equal: the one after ``acked``
    ops, or after ``acked + 1`` if the op in flight at the kill landed.
    When the live set matches neither, the acknowledged prefix is the
    contract (and ``check_index`` will say how it differs)."""
    recovered = {entity.eid: entity for entity in index.live_entities()}
    candidates = []
    for count in (acked, acked + 1):
        model = LiveModel()
        for op, payload in schedule[:count]:
            model.apply(op, payload)
        if model.live == recovered:
            return model, count
        candidates.append(model)
    return candidates[0], 0


def check_ledger_parity(seed: int = 0) -> str:
    """Fault-free runs must price identically on every backend; returns
    what differs (empty = byte-identical)."""
    from repro.experiments.runner import run_algorithm

    a = uniform_squares(300, 0.01, seed=seed + 1, name="CRA")
    b = uniform_squares(300, 0.01, seed=seed + 2, name="CRB")
    baseline = None
    for backend in ("memory", "durable"):
        run = run_algorithm(a, b, "s3j", scale=0.02, backend=backend)
        probe = (sorted(run.result.pairs), run.result.metrics.to_dict())
        if baseline is None:
            baseline = probe
        elif probe != baseline:
            return f"{backend} differs from memory baseline"
    return ""


def run_crash_verify(
    cases: int = 25,
    seed: int = 0,
    ops: int = DEFAULT_OPS,
    progress: Progress | None = None,
) -> Report:
    """The full gate: ledger parity plus ``cases`` sampled kills."""
    say = progress or (lambda message: None)
    report = Report(gate="crash verify", counts={"kills": 0, "ledger_parity_ok": True})
    differs = check_ledger_parity(seed)
    if differs:
        report.counts["ledger_parity_ok"] = False
        report.fail("ledger-parity", "memory/durable", differs)
    say("ledger parity: " + ("DIVERGED" if differs else "ok"))
    for case_no in range(cases):
        result = run_crash_case(case_no, seed=seed + case_no, ops=ops)
        report.absorb("cases", result)
        report.counts["kills"] += result.counts["killed"]
        say(
            f"{result.gate} "
            + ("killed" if result.counts["killed"] else "completed")
            + f" acked={result.counts['acked']} recovered={result.counts['recovered']} "
            + ("ok" if result.ok else "FAIL")
        )
    return report


# -- the serve kill-and-restart round-trip ------------------------------


def _read_port(process: subprocess.Popen, deadline: float = 30.0) -> int:
    """Parse the bound port from the serve banner on stderr."""
    assert process.stderr is not None
    start = time.monotonic()
    while time.monotonic() - start < deadline:
        line = process.stderr.readline()
        if not line:
            if process.poll() is not None:
                raise RuntimeError(
                    f"serve exited {process.returncode} before binding"
                )
            continue
        if "serving" in line and " on " in line:
            address = line.split(" on ")[1].split()[0]
            return int(address.rsplit(":", 1)[1])
    raise RuntimeError("serve did not print its banner in time")


def _request(port: int, payload: dict[str, Any]) -> dict[str, Any]:
    with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
        conn.sendall((json.dumps(payload) + "\n").encode())
        data = b""
        while not data.endswith(b"\n"):
            chunk = conn.recv(65536)
            if not chunk:
                break
            data += chunk
    return json.loads(data.decode())


def run_serve_roundtrip(
    seed: int = 0, entities: int = 80, progress: Progress | None = None
) -> bool:
    """Kill ``repro serve`` with SIGKILL and require the restarted
    process to answer from the recovered on-disk index."""

    def say(message: str) -> None:
        if progress:
            progress(message)

    with tempfile.TemporaryDirectory(prefix="repro-serve-crash-") as data_dir:
        command = [
            sys.executable,
            "-u",
            "-m",
            "repro.cli",
            "serve",
            "--data-dir",
            data_dir,
            "--entities",
            str(entities),
            "--seed",
            str(seed),
            "--compaction-threshold",
            "16",
        ]
        env = _worker_env(None)
        first = subprocess.Popen(
            command, env=env, stderr=subprocess.PIPE, text=True
        )
        try:
            port = _read_port(first)
            say(f"first serve up on port {port}")
            for eid, (x, y) in enumerate(
                [(0.11, 0.2), (0.5, 0.52), (0.82, 0.3), (0.4, 0.77)],
                start=10_000,
            ):
                response = _request(
                    port,
                    {
                        "op": "insert",
                        "eid": eid,
                        "xlo": x,
                        "ylo": y,
                        "xhi": x + 0.06,
                        "yhi": y + 0.06,
                    },
                )
                if not response.get("ok"):
                    raise RuntimeError(f"insert failed: {response}")
            window = {"op": "window", "xlo": 0, "ylo": 0, "xhi": 1, "yhi": 1}
            before = _request(port, window)
            stats = _request(port, {"op": "stats"})
            say(
                f"before kill: {len(before.get('eids', []))} live, "
                f"epoch {stats.get('epoch')}"
            )
        finally:
            first.kill()  # SIGKILL: no goodbye, no flush
            first.wait(timeout=30)
        say("first serve killed (SIGKILL)")

        second = subprocess.Popen(
            command, env=env, stderr=subprocess.PIPE, text=True
        )
        try:
            port = _read_port(second)
            say(f"second serve up on port {port}")
            after = _request(
                port, {"op": "window", "xlo": 0, "ylo": 0, "xhi": 1, "yhi": 1}
            )
            stats = _request(port, {"op": "stats"})
            if after.get("eids") != before.get("eids"):
                say(
                    f"MISMATCH: {len(before.get('eids', []))} live before, "
                    f"{len(after.get('eids', []))} after restart"
                )
                return False
            say(
                f"after restart: {len(after.get('eids', []))} live, "
                f"epoch {stats.get('epoch')} — answers identical"
            )
            return True
        finally:
            second.terminate()
            try:
                second.wait(timeout=30)
            except subprocess.TimeoutExpired:
                second.kill()
                second.wait(timeout=30)


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.verify.crash", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--cases", type=int, default=25)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ops", type=int, default=DEFAULT_OPS)
    parser.add_argument(
        "--serve-roundtrip",
        action="store_true",
        help="kill-and-restart a real `repro serve` process instead of "
        "running the sampled crash cases",
    )
    args = parser.parse_args(argv)
    if args.serve_roundtrip:
        ok = run_serve_roundtrip(seed=args.seed, progress=print)
        print("serve round-trip: " + ("OK" if ok else "FAILED"))
        return 0 if ok else 1
    report = run_crash_verify(
        cases=args.cases, seed=args.seed, ops=args.ops, progress=print
    )
    print(report.summary())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
