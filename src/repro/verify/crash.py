"""The crash gate for the durable storage stack: power loss at every fsync.

``repro verify --crash`` replays :func:`repro.verify.scenario.op_schedule`
in process against a durable :class:`~repro.service.index.PersistentIndex`
whose files live on a :class:`~repro.verify.recorder.Recorder`, installed
through the file-I/O seam.  At every fsync and directory-fsync boundary
each distinct disk image a power cut could leave is reopened and held to
the :class:`~repro.verify.scenario.LiveModel` after the ``k`` acked ops
or ``k + 1`` (the op in flight fully survived or never happened) by
:func:`~repro.verify.scenario.check_index` — and so is a second reopen,
of what a power cut right after the first leaves.  The store runs on a
small checkpoint budget, so a schedule crosses automatic checkpoints
and compaction commits; half-way through, the
schedule itself loses power at a torn log tail and runs on from the
recovered store, whose recovery boundaries are enumerated too.

A ledger-parity check rides along (memory and durable backends must
price a join byte-identically).  :func:`run_crash_schedule` takes
``noop_sites``, fsync call sites that make nothing durable, so a test
can show the gate notices a missing fsync.  ``repro verify
--serve-roundtrip`` kills and restarts a real ``repro serve`` process,
the one check that needs one.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

from repro.datagen.uniform import uniform_squares
from repro.obs import fileio
from repro.service.index import PersistentIndex
from repro.storage.durable import LOG_FILE
from repro.verify.recorder import Recorder, State
from repro.verify.report import Report
from repro.verify.scenario import LiveModel, Op, Progress, apply_op, check_index, op_schedule

COMPACTION_THRESHOLD = 12
"""Small on purpose: the schedule must cross several compaction commits."""

CHECKPOINT_BYTES = 2048
"""The store's log budget during a schedule: an automatic checkpoint
every ~28 notes, where the default would take a thousand."""

STORE = "/repro-crash-store"
"""The data directory's name on the recorder; nothing touches the disk."""

DEFAULT_OPS = 72
DEFAULT_SCHEDULES = 3


def open_index(disk: Recorder) -> PersistentIndex:
    """Open the durable index on ``disk`` (the recorder binds for life)."""
    with fileio.using(disk):
        return PersistentIndex.open(STORE, compaction_threshold=COMPACTION_THRESHOLD)


def check_crash_state(
    state: State, schedule: list[Op], acked: int, report: Report, where: str
) -> int | None:
    """Reopen one disk image twice and hold both to the acked prefix;
    returns how many ops the recovered index holds (None: it did not
    reopen)."""
    expected: LiveModel | None = None
    recovered = None
    for reopen in range(2):
        disk = Recorder(state)
        try:
            index = open_index(disk)
        except Exception as error:  # noqa: BLE001 - verdict, not control flow
            report.fail("reopen", where, f"reopen {reopen} raised {type(error).__name__}: {error}")
            return None
        if expected is None:
            expected, recovered = _acked_model(index, schedule, acked)
        for problem in check_index(index, expected):
            report.fail("model", where, f"reopen {reopen}: {problem}")
        state = disk.durable_state()  # power lost right after the reopen
    return recovered


def run_crash_schedule(
    seed: int, ops: int = DEFAULT_OPS, noop_sites: frozenset[str] = frozenset()
) -> Report:
    """Replay one schedule on the recorder and check every crash state
    at every fsync boundary; stops at the first violation."""
    _, schedule = op_schedule(seed, ops)
    report = Report(gate=f"schedule seed={seed}", counts={"boundaries": 0})
    sites: dict[str, int] = {}
    seen: set[tuple[int, int]] = set()  # (image hash, acked)
    run = {"acked": 0, "armed": False, "captured": None}

    def on_boundary(disk: Recorder, site: str) -> None:
        report.counts["boundaries"] += 1
        sites[site] = sites.get(site, 0) + 1
        for label, state in disk.crash_states():
            if report.violations:
                return  # later states would only repeat the finding
            key = (hash(tuple(sorted(state.items()))), run["acked"])
            if key not in seen:
                seen.add(key)
                where = f"seed {seed}, {run['acked']} acked, {site} {label}"
                check_crash_state(state, schedule, run["acked"], report, where)
            if run["armed"] and label.startswith(LOG_FILE) and label.endswith("/torn"):
                run.update(armed=False, captured=(state, run["acked"]))

    def reopen(disk: Recorder) -> PersistentIndex:
        index = open_index(disk)
        index._backend().checkpoint_bytes = CHECKPOINT_BYTES
        return index

    try:
        index = reopen(Recorder(on_boundary=on_boundary, noop_sites=noop_sites))
        position = 0
        while position < len(schedule) and not report.violations:
            run["armed"] = position >= len(schedule) // 2 and "recovered_at" not in report.counts
            apply_op(index, *schedule[position])
            position = run["acked"] = position + 1
            if index.needs_compaction:
                index.compact()
            if run["captured"] is not None:
                # The power cut: this op never returned to its caller.
                state, acked = run["captured"]
                run.update(captured=None, acked=acked)
                index = reopen(Recorder(state, on_boundary=on_boundary, noop_sites=noop_sites))
                model, position = _acked_model(index, schedule, acked)
                for problem in check_index(index, model):
                    report.fail("model", f"seed {seed}, reopened at {acked} acked", problem)
                report.counts["recovered_at"] = acked
                run["acked"] = position
        report.counts["compactions"] = index.compactions
        index.close()
    except Exception as error:  # noqa: BLE001 - verdict, not control flow
        report.fail("run", f"seed {seed}, {run['acked']} acked", f"{type(error).__name__}: {error}")
    report.counts.update(crash_states=len(seen), sites=dict(sorted(sites.items())))
    return report


def _acked_model(
    index: PersistentIndex, schedule: list[Op], acked: int
) -> tuple[LiveModel, int]:
    """The model the recovered index must equal: the one after ``acked``
    ops, or after ``acked + 1`` if the op in flight at the crash landed.
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
    cases: int = DEFAULT_SCHEDULES, seed: int = 0, ops: int = DEFAULT_OPS,
    progress: Progress | None = None,
) -> Report:
    """The full gate: ledger parity plus ``cases`` seeded schedules,
    every crash state at every fsync boundary of each."""
    say = progress or (lambda message: None)
    report = Report(gate="crash verify", counts={"crash_states": 0, "ledger_parity_ok": True})
    differs = check_ledger_parity(seed)
    if differs:
        report.counts["ledger_parity_ok"] = False
        report.fail("ledger-parity", "memory/durable", differs)
    say("ledger parity: " + ("DIVERGED" if differs else "ok"))
    for case_no in range(cases):
        result = run_crash_schedule(seed + case_no, ops)
        report.absorb("cases", result)
        report.counts["crash_states"] += result.counts["crash_states"]
        counts = result.counts
        say(f"{result.gate}: {counts['boundaries']} fsync boundaries, {counts['crash_states']} "
            f"crash states, power lost mid-run at {counts.get('recovered_at')} acked: "
            + ("ok" if result.ok else "FAIL"))
    return report


# -- the serve kill-and-restart round-trip ------------------------------


def serve_env() -> dict[str, str]:
    """The environment a child ``repro serve`` runs in: this source tree
    first on its path."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def _read_port(process: subprocess.Popen, deadline: float = 30.0) -> int:
    """Parse the bound port from the serve banner on stderr."""
    assert process.stderr is not None
    start = time.monotonic()
    while time.monotonic() - start < deadline:
        line = process.stderr.readline()
        if not line and process.poll() is not None:
            raise RuntimeError(f"serve exited {process.returncode} before binding")
        if "serving" in line and " on " in line:
            return int(line.split(" on ")[1].split()[0].rsplit(":", 1)[1])
    raise RuntimeError("serve did not print its banner in time")


def _request(port: int, payload: dict[str, Any]) -> dict[str, Any]:
    with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
        conn.sendall((json.dumps(payload) + "\n").encode())
        data = b""
        while not data.endswith(b"\n") and (chunk := conn.recv(65536)):
            data += chunk
    return json.loads(data.decode())


def run_serve_roundtrip(
    seed: int = 0, entities: int = 80, progress: Progress | None = None
) -> Report:
    """Kill ``repro serve`` with SIGKILL and require the restarted
    process to answer from the recovered on-disk index."""
    say = progress or (lambda message: None)
    report = Report(gate="serve round-trip", counts={"entities": entities})
    window = {"op": "window", "xlo": 0, "ylo": 0, "xhi": 1, "yhi": 1}
    with tempfile.TemporaryDirectory(prefix="repro-serve-crash-") as data_dir:
        command = [sys.executable, "-u", "-m", "repro.cli", "serve", "--data-dir", data_dir]
        command += ["--entities", str(entities), "--seed", str(seed), "--compaction-threshold", "16"]
        first = subprocess.Popen(command, env=serve_env(), stderr=subprocess.PIPE, text=True)
        try:
            port = _read_port(first)
            for eid, (x, y) in enumerate([(0.11, 0.2), (0.5, 0.52), (0.82, 0.3), (0.4, 0.77)], 10_000):
                box = {"xlo": x, "ylo": y, "xhi": x + 0.06, "yhi": y + 0.06}
                response = _request(port, {"op": "insert", "eid": eid, **box})
                if not response.get("ok"):
                    raise RuntimeError(f"insert failed: {response}")
            before = _request(port, window)
            say(f"first serve on port {port}: {len(before.get('eids', []))} live")
        finally:
            first.kill()  # SIGKILL: no goodbye, no flush
            first.wait(timeout=30)
        second = subprocess.Popen(command, env=serve_env(), stderr=subprocess.PIPE, text=True)
        try:
            after = _request(_read_port(second), window)
            say(f"killed and restarted: {len(after.get('eids', []))} live")
            report.counts["live"] = len(after.get("eids", []))
            if after.get("eids") != before.get("eids"):
                report.fail("reopen", "window 0 0 1 1", "the restarted serve answers other eids")
        finally:
            second.terminate()
            try:
                second.wait(timeout=30)
            except subprocess.TimeoutExpired:
                second.kill()
                second.wait(timeout=30)
    return report
