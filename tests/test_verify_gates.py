"""The gates can fail: seeded bugs, the trichotomy, one report shape.

A gate that never fails proves nothing, so each check of the scenario
harness is shown a bug it exists to catch — the index's ack-and-forget
insert (which both service gates *passed* before the model was made
independent of the index), the PR-9 tombstone filter, a compaction
commit that forgets to reset the journal, an untyped compaction failure,
a WAL that retries a failed append (a swallowed fault), a storage error
before the fault fired — and every ``repro verify`` mode is held to one
report contract.
"""

import heapq
import json

import pytest

from repro.service.api import BreakerState, QueryOutcome, ShardFailure
from repro.service.index import PersistentIndex, _sort_key
from repro.storage import wal
from repro.storage.durable import DurableBackend
from repro.storage.records import EID, EntityDescriptorCodec
from repro.verify import (
    Report,
    cases_by_name,
    run_chaos,
    run_crash_verify,
    run_service_chaos,
    run_service_verify,
    run_verify,
    transforms_by_name,
)
from repro.verify.crash import run_crash_schedule, run_serve_roundtrip
from repro.verify.executors import ExecutorSpec
from repro.verify.recorder import Fault
from repro.verify.scenario import Scenario, classify, run_scenario

DESCRIPTORS = EntityDescriptorCodec()


def lose_every_third_insert(monkeypatch):
    real = PersistentIndex.insert
    calls = []

    def lossy(self, entity):
        calls.append(entity.eid)
        if len(calls) % 3:
            return real(self, entity)
        self.epoch += 1  # acknowledged, never stored
        return self.epoch

    monkeypatch.setattr(PersistentIndex, "insert", lossy)


def filter_tombstones_after_the_merge(monkeypatch):
    """PR 9's bug: tombstones name *base* records, but the filter ran
    over the merged base + delta stream, so re-inserting a deleted base
    id vanished from every self-join (and from the next compaction)."""

    def level_rows(self, level):
        handle = self._base.get(level)
        base = handle.scan() if handle is not None else ()
        merged = heapq.merge(base, self._delta.get(level, ()), key=_sort_key)
        dead = self._tombstones.get(level, ())
        return DESCRIPTORS.page([record for record in merged if record[EID] not in dead])

    monkeypatch.setattr(PersistentIndex, "level_rows", level_rows)


def commit_without_reset(monkeypatch):
    """The one-log design's own bug: a manifest note that commits the
    new level files but forgets to *reset* the journal, so the notes it
    folded are replayed on top of the files they are already in.  The
    patch sits where a live append and recovery's replay meet, so the
    live run and every reopen of a crash state carry it."""

    def apply_note(self, body):
        note, _reset = wal.unpack_note(body)
        self._journal.append(note)

    monkeypatch.setattr(DurableBackend, "_apply_note", apply_note)


def retry_failed_wal_appends(monkeypatch):
    """The retry layer's bug class: an append that fails once is tried
    again, so the caller never hears of the fault."""
    real = wal.WriteAheadLog.append

    def retrying(self, record):
        try:
            real(self, record)
        except OSError:
            real(self, record)

    monkeypatch.setattr(wal.WriteAheadLog, "append", retrying)


class TestSeededBugs:
    def test_acked_but_lost_insert_fails_both_service_gates(self, monkeypatch):
        lose_every_third_insert(monkeypatch)
        for report in (
            run_service_verify(seed=0),
            run_service_verify(seed=0, faults=False),
            run_service_chaos(cases=4, seed=0),
        ):
            assert not report.ok
            assert report.violations[0].check == "model"
            assert "lost [" in report.violations[0].message

    def test_tombstone_filter_bug_fails_the_service_gate(self, monkeypatch):
        filter_tombstones_after_the_merge(monkeypatch)
        report = run_service_verify(seed=0, faults=False)
        assert not report.ok
        assert any("self_join diverged" in v.message for v in report.violations)
        assert not run_service_chaos(cases=4, seed=0).ok

    def test_commit_without_reset_fails_the_crash_check(self, monkeypatch):
        healthy = run_crash_schedule(17, ops=40)
        assert healthy.ok and healthy.counts["compactions"] >= 2, healthy.summary()
        commit_without_reset(monkeypatch)
        broken = run_crash_schedule(17, ops=40)
        assert not broken.ok
        assert broken.violations[0].check in ("reopen", "model")

    def test_untyped_compaction_failure_is_a_violation(self, monkeypatch):
        def compact(self):
            raise RuntimeError("fold died without a type")

        monkeypatch.setattr(PersistentIndex, "compact", compact)
        report = run_service_verify(seed=0, faults=False)
        (violation,) = report.violations
        assert violation.check == "trichotomy" and "[compact]" in violation.where
        assert "untyped RuntimeError" in violation.message

    def test_retrying_wal_fails_both_chaos_sweeps(self, monkeypatch):
        """A fired fault that nothing reports is swallowed, in the
        service replay as in batch chaos."""
        assert run_service_chaos(cases=16, seed=0).ok
        retry_failed_wal_appends(monkeypatch)
        report = run_service_chaos(cases=16, seed=0)
        assert "swallowed" in {violation.check for violation in report.violations}
        assert run_chaos(cases=200, seed=0).counts["tally"].get("swallowed")

    def test_storage_error_before_the_fault_fires_is_spurious(self, monkeypatch):
        """An armed fault excuses a loud error only once it has fired."""
        real, calls = PersistentIndex.insert, []

        def fails_first(self, entity):
            calls.append(entity.eid)
            if len(calls) == 1:
                raise OSError(5, "injected before the fault")
            return real(self, entity)

        monkeypatch.setattr(PersistentIndex, "insert", fails_first)
        late = Fault("write", "wal-", nth=12)
        report = run_scenario(Scenario(0, 0, "write-failure", late, ops=30, entities=80))
        violation = report.violations[0]
        assert violation.check == "spurious" and "[insert]" in violation.where
        assert "OSError" in violation.message


def outcome(status, **fields):
    return QueryOutcome(op="join", status=status, epoch=3, **fields)


OPEN_BREAKER = ShardFailure(
    shard_id="service", kind="breaker", error_type="CircuitOpen", message="open",
    attempts=0,
)


class TestTrichotomy:
    def test_ok_is_never_a_problem(self):
        assert classify(outcome("ok"), BreakerState.CLOSED, False) == []

    def test_loud_needs_a_typed_error(self):
        loud = outcome("failed", error="OSError: [Errno 5] Input/output error")
        assert classify(loud, BreakerState.CLOSED, True) == []
        assert classify(outcome("failed"), BreakerState.OPEN, True) == [
            "failed without a typed error (silent failure)"
        ]

    def test_partial_must_declare_the_open_breaker(self):
        declared = outcome("partial", failures=(OPEN_BREAKER,))
        assert classify(declared, BreakerState.OPEN, True) == []
        assert classify(declared, BreakerState.HALF_OPEN, True) == []
        assert classify(declared, BreakerState.CLOSED, True) == [
            "partial served with the breaker closed"
        ]
        assert classify(outcome("partial"), BreakerState.OPEN, True) == [
            "partial without a CircuitOpen failure"
        ]

    def test_quiet_profile_admits_only_ok(self):
        """Until the fault fires — and in a quiet profile it never
        does — a non-ok outcome is spurious."""
        loud = outcome("failed", error="OSError: [Errno 5] Input/output error")
        assert classify(loud, BreakerState.CLOSED, False) == [
            "spurious failed outcome: no fault has fired"
        ]
        declared = outcome("partial", failures=(OPEN_BREAKER,))
        assert "spurious partial outcome: no fault has fired" in classify(
            declared, BreakerState.OPEN, False
        )

    def test_unknown_status_is_a_problem(self):
        assert classify(outcome("rejected"), BreakerState.CLOSED, True) == [
            "unexpected status 'rejected'"
        ]


GATES = {
    "default": lambda: run_verify(
        cases=cases_by_name(("uniform",)),
        transforms=transforms_by_name(("swap-ab",)),
        executors=[ExecutorSpec("sweep")],
    ),
    "chaos": lambda: run_chaos(cases=3, seed=1),
    "service": lambda: run_service_verify(seed=1, ops=30, entities=60),
    "service-chaos": lambda: run_service_chaos(cases=2, seed=5, ops=15, entities=40),
    "crash": lambda: run_crash_verify(cases=2, seed=1, ops=32),
    "serve-roundtrip": lambda: run_serve_roundtrip(seed=1, entities=40),
}
"""Every gate, small.  What each must still carry in its JSON is what
tests, CI and the README read."""

KEYS = {
    "default": {"cases", "executors", "transforms", "runs", "pairs_checked"},
    "chaos": {"seed", "cases", "tally", "outcomes"},
    "service": {
        "ops", "epochs_checked", "ok_queries", "failed_queries",
        "partial_queries", "compactions", "breaker_opened", "faults",
    },
    "service-chaos": {"scenarios", "outcomes"},
    "crash": {"crash_states", "ledger_parity_ok", "cases"},
    "serve-roundtrip": {"entities", "live"},
}


@pytest.mark.parametrize("mode", sorted(GATES))
def test_every_gate_returns_the_one_report(mode, capsys):
    from repro.cli import _emit

    report = GATES[mode]()
    assert isinstance(report, Report)
    assert report.ok, report.summary()
    assert report.summary().splitlines()[0].endswith("PASS")
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["ok"] is True and payload["violations"] == []
    assert KEYS[mode] <= set(payload)
    assert _emit(report, as_json=False) == 0
    assert capsys.readouterr().out.strip() == report.summary()

    report.fail("seeded", "a test", "one violation\nover two lines")
    assert not report.ok
    assert "FAIL" in report.summary() and "[seeded] a test" in report.summary()
    assert _emit(report, as_json=True) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["violations"] == [
        {"check": "seeded", "where": "a test", "message": "one violation\nover two lines"}
    ]


def test_sweeps_fold_one_sub_report_per_case():
    chaos = GATES["service-chaos"]()
    assert chaos.counts["scenarios"] == len(chaos.counts["outcomes"]) == 2
    assert all(
        {"gate", "ok", "ok_queries", "breaker_opened", "violations"} <= set(o)
        for o in chaos.counts["outcomes"]
    )
