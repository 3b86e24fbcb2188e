"""The kill-and-reopen crash gate (``repro verify --crash``).

These tests keep the subprocess count small — CI's crash-smoke job
runs the full 25-case sweep; here we check the harness machinery
(deterministic schedules, the model's acked prefixes, sampled crash
points) and a couple of real SIGKILL round-trips.
"""

import random
import signal
import subprocess
import sys

from repro.service.index import PersistentIndex
from repro.storage.durable import CRASH_POINTS, CrashPoint
from repro.verify.crash import (
    DEFAULT_OPS,
    _acked_model,
    _worker_env,
    run_crash_case,
    sample_crash_point,
)
from repro.verify.scenario import LiveModel, apply_op, op_schedule


class TestSchedule:
    def test_deterministic(self):
        assert op_schedule(7, 48) == op_schedule(7, 48)
        assert op_schedule(7, 48) != op_schedule(8, 48)
        loaded, schedule = op_schedule(7, 48, bootstrap=20)
        assert len(loaded) == 20 and len(schedule) == 48

    def test_mix_and_validity(self):
        loaded, schedule = op_schedule(3, ops=300, bootstrap=5)
        assert len(schedule) == 300
        ops = {op for op, _ in schedule}
        assert ops == {"insert", "delete", "compact", "point", "window", "join"}
        live = {entity.eid: entity for entity in loaded}
        seen = set(live)
        reinserts = 0
        for op, payload in schedule:
            if op == "insert":
                # Re-inserts reuse an eid, but never one still live.
                assert payload.eid not in live
                reinserts += payload.eid in seen
                seen.add(payload.eid)
                live[payload.eid] = payload
                rect = payload.mbr
                assert 0.0 <= rect.xlo <= rect.xhi <= 1.0
                assert 0.0 <= rect.ylo <= rect.yhi <= 1.0
            elif op == "delete":
                # Deletes only name still-live entities.
                assert payload in live
                del live[payload]
        assert reinserts > 0
        assert schedule[0][0] != "compact"

    def test_apply_prefix_matches_replay(self):
        """The model after k ops is exactly the live set an index holds
        after executing the same k ops."""
        _, schedule = op_schedule(11, ops=60)
        model = LiveModel()
        with PersistentIndex(compaction_threshold=8) as index:
            for op, payload in schedule:
                apply_op(index, op, payload)
                model.apply(op, payload)
                assert {e.eid: e for e in index.live_entities()} == model.live

    def test_sampled_crash_points_cover_every_point(self):
        points = {
            sample_crash_point(random.Random(seed)).point for seed in range(60)
        }
        assert points == set(CRASH_POINTS) and len(CRASH_POINTS) == 6


class TestCrashCases:
    def test_two_sampled_kill_cases_recover_exactly(self):
        for case_no in (0, 1):
            result = run_crash_case(case_no, seed=0)
            assert result.ok, result.summary()
            if result.counts["killed"]:
                assert result.counts["acked"] < DEFAULT_OPS
                assert result.counts["recovery"] is not None
            else:
                assert result.counts["acked"] == DEFAULT_OPS
            # The op in flight at the kill landed, or it did not.
            assert result.counts["recovered"] - result.counts["acked"] in (0, 1)

    def test_kill_inside_an_insert_recovers_the_unacked_note(self):
        """The WAL is the only log, so a mutation passes the store's
        crash points: killed between the note's fsync and its ack, the
        insert is on the medium and the reopen is the k + 1 model."""
        result = run_crash_case(22, seed=22)
        assert result.ok and result.counts["killed"], result.summary()
        assert result.counts["point"] == "wal-synced"
        assert result.counts["recovered"] == result.counts["acked"] + 1
        assert result.counts["recovery"]["journal_notes"] > 0

    def test_acked_prefix_is_k_or_k_plus_one(self, tmp_path):
        """The recovered live set must be the model after the acked ops
        or one more; anything else is held to the acked prefix."""
        _, schedule = op_schedule(5, ops=30)
        mutation = next(
            position
            for position, (op, _) in enumerate(schedule)
            if position > 10 and op in ("insert", "delete")
        )
        with PersistentIndex.open(str(tmp_path)) as index:
            for op, payload in schedule[: mutation + 1]:
                apply_op(index, op, payload)
            done = mutation + 1
            assert _acked_model(index, schedule, done)[1] == done
            # The last mutation ran but was never acknowledged.
            assert _acked_model(index, schedule, done - 1)[1] == done
            # Two unacknowledged ops deep is not a legal recovery.
            model, matched = _acked_model(index, schedule, done - 5)
            assert matched == 0
            assert model.live != {e.eid: e for e in index.live_entities()}


class TestServeFirstBoot:
    """``repro serve`` decides bootstrap-vs-reopen from the opened store:
    a first boot killed mid-bulk-load committed nothing, so the restart
    bootstraps again (the parent crashed with FileExistsError until the
    directory was deleted by hand)."""

    def boot(self, data_dir, crash=None):
        command = [sys.executable, "-u", "-m", "repro.cli", "serve"]
        command += ["--data-dir", str(data_dir), "--entities", "300"]
        return subprocess.Popen(
            command, env=_worker_env(crash), stderr=subprocess.PIPE, text=True
        )

    def banner(self, process):
        try:
            return next(line for line in process.stderr if "serving" in line)
        finally:
            process.terminate()
            process.wait(timeout=30)

    def test_killed_first_boot_then_bootstrap_then_reopen(self, tmp_path):
        first = self.boot(tmp_path, CrashPoint("data-write", index=2))
        assert first.wait(timeout=60) == -signal.SIGKILL
        assert "serving" not in first.stderr.read()
        second = self.banner(self.boot(tmp_path))
        assert "serving 300 entities" in second and "bootstrapped" in second
        third = self.banner(self.boot(tmp_path))
        assert "serving 300 entities" in third
        # The second boot shut down cleanly: its checkpoint left the log
        # nothing to add — no notes, no page mappings, no debris.
        assert (
            "recovered (0 notes replayed, 0 pages mapped from the log, "
            "0 debris files dropped)"
        ) in third
