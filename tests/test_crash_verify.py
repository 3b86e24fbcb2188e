"""The power-loss crash gate (``repro verify --crash``) and its recording disk.

CI's crash-smoke job runs the full gate and the mutation check over
every fsync call site; here: the deterministic schedules, the model's
acked prefixes, the recorder's crash-state model, two schedules end to
end, the mutation check on the log commit and a directory fsync, and
the one real-process case left (``repro serve``'s killed first boot).
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.datagen.uniform import uniform_squares
from repro.obs import fileio
from repro.service.index import PersistentIndex
from repro.verify.crash import (
    _acked_model,
    check_crash_state,
    open_index,
    run_crash_schedule,
    serve_env,
)
from repro.verify.recorder import Recorder
from repro.verify.report import Report
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

    def test_crash_states_cover_every_kind(self):
        """Durable bytes, each prefix of a file's later writes (the last
        torn at a sector boundary when it spans one), name changes in
        order or with one left out, and everything."""
        disk = Recorder()
        with disk.open("/d/f", "wb") as handle:
            handle.write(b"a" * 100)
            disk.fsync(handle)
            disk.fsync_dir("/d")
            handle.write(b"b" * 1000)
        disk.replace("/d/f", "/d/g")
        states = dict(disk.crash_states())
        assert states["durable"] == {"/d/f": b"a" * 100}
        assert states["f+1/torn"] == {"/d/f": b"a" * 100 + b"b" * 924}  # cut at 1024
        assert states["f+1"] == {"/d/f": b"a" * 100 + b"b" * 1000}
        assert states["d:ns+1"] == {}  # the unlink half of the rename
        assert states["d:ns-1"] == {"/d/f": b"a" * 100, "/d/g": b"a" * 100}
        assert states["live"] == {"/d/g": b"a" * 100 + b"b" * 1000}

    def test_fsync_makes_bytes_durable_but_not_names(self):
        disk = Recorder()
        with disk.open("/d/f", "wb") as handle:
            handle.write(b"x")
            disk.fsync(handle)
        assert disk.durable_state() == {}  # a create needs its directory fsync
        disk.fsync_dir("/d")
        assert disk.durable_state() == {"/d/f": b"x"}


@pytest.fixture(scope="module")
def schedule_zero():
    return run_crash_schedule(0)


class TestCrashCases:
    def test_two_schedules_recover_at_every_boundary(self, schedule_zero):
        for result in (schedule_zero, run_crash_schedule(1)):
            assert result.ok, result.summary()
            assert result.counts["crash_states"] >= 150
            assert result.counts["recovered_at"] >= 36  # lost power half-way
        sites = {site.split(" ")[1]: 0 for site in schedule_zero.counts["sites"]}
        for site, count in schedule_zero.counts["sites"].items():
            sites[site.split(" ")[1]] += count
        assert set(sites) == {"(atomic_replace)", "(_log)", "(_start)", "(sync)", "(scan_segments)"}
        # Two fsyncs per atomic replace: the data file's creation, the
        # checkpoints of both opens and of close() make four replaces,
        # so the rest are automatic checkpoints, each resetting the log.
        assert sites["(atomic_replace)"] // 2 > 4
        assert schedule_zero.counts["compactions"] >= 2

    def test_kill_inside_an_insert_recovers_the_unacked_note(self):
        """The WAL is the only log, so power lost after an insert's note
        was fsynced but before its ack lands on the k + 1 model."""
        _, schedule = op_schedule(5, ops=30)
        position = next(n for n, (op, _) in enumerate(schedule) if n > 10 and op == "insert")
        disk = Recorder()
        index = open_index(disk)
        for op, payload in schedule[: position + 1]:
            apply_op(index, op, payload)
        report = Report(gate="insert")
        state = disk.durable_state()  # the note is on the medium, its ack is not
        assert check_crash_state(state, schedule, position, report, "insert") == position + 1
        assert report.ok, report.summary()
        reopened = open_index(Recorder(state))
        assert reopened._backend().last_recovery.journal_notes > 0

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


class TestFsyncMutations:
    """The gate fails when an fsync goes missing: the site is made a
    no-op on the recorder by its code location, with no source edit
    (CI runs this for every site)."""

    def mutant(self, schedule_zero, function):
        (site,) = [site for site in schedule_zero.counts["sites"] if site.endswith(function)]
        return run_crash_schedule(0, noop_sites=frozenset({site}))

    def test_missing_log_commit_fsync_is_caught(self, schedule_zero):
        report = self.mutant(schedule_zero, "(sync)")
        assert not report.ok
        assert report.violations[0].check == "model"
        assert "lost [" in report.violations[0].message

    def test_missing_segment_directory_fsync_is_caught(self, schedule_zero):
        """Without it, a log segment started by a checkpoint's reset may
        vanish with the acked notes fsynced into it."""
        report = self.mutant(schedule_zero, "(_start)")
        assert not report.ok
        assert "lost [" in report.violations[0].message


class TestServeFirstBoot:
    """``repro serve`` decides bootstrap-vs-reopen from the opened store:
    a first boot that lost power mid-bulk-load committed nothing, so the
    restart bootstraps again (the parent crashed with FileExistsError
    until the directory was deleted by hand)."""

    def boot(self, data_dir):
        command = [sys.executable, "-u", "-m", "repro.cli", "serve"]
        command += ["--data-dir", str(data_dir), "--entities", "300"]
        return subprocess.Popen(
            command, env=serve_env(), stderr=subprocess.PIPE, text=True
        )

    def banner(self, process):
        try:
            return next(line for line in process.stderr if "serving" in line)
        finally:
            process.terminate()
            process.wait(timeout=30)

    def test_killed_first_boot_then_bootstrap_then_reopen(self, tmp_path):
        # The first boot, in process on the recording disk: power lost
        # in the bulk load's data fsync, a page torn mid-write.
        states = []
        disk = Recorder(on_boundary=lambda d, site: states.append((site, dict(d.crash_states()))))
        entities = uniform_squares(300, 0.04, seed=0, name="SERVE").entities
        with fileio.using(disk):
            PersistentIndex(entities, data_dir="/store")
        data_sync = next(images for site, images in states if site.endswith("(_log)"))
        torn = [image for label, image in data_sync.items() if label.endswith("/torn")]
        for path, data in torn[-1].items():
            (tmp_path / Path(path).name).write_bytes(data)
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
