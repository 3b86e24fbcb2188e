"""Tests for the structured event log (repro.obs.events)."""

from __future__ import annotations

import json

import pytest

from repro.obs import NULL_OBS, Observability
from repro.obs.events import (
    EVENT_SCHEMA_VERSION,
    EVENT_TYPES,
    HEARTBEAT_INTERVAL_S,
    NULL_EVENTS,
    EventLog,
    EventSink,
    events_from_jsonl,
    progress_emitter,
)

from tests.conftest import make_squares


class TestSchema:
    def test_events_carry_version_type_and_timestamp(self):
        log = EventLog()
        log.emit("shard_progress", phase="sort", done=1, total=2)
        (event,) = log.to_dicts()
        assert event["v"] == EVENT_SCHEMA_VERSION
        assert event["type"] == "shard_progress"
        assert event["ts"] > 0
        assert event["phase"] == "sort"

    def test_unknown_type_raises(self):
        log = EventLog()
        with pytest.raises(ValueError, match="unknown event type"):
            log.emit("shard_exploded")
        assert len(log) == 0

    def test_every_declared_type_is_accepted(self):
        log = EventLog()
        for type_ in sorted(EVENT_TYPES):
            log.emit(type_)
        assert len(log) == len(EVENT_TYPES)

    @pytest.mark.parametrize(
        "type_",
        ["shard_dispatched", "shard_retry", "shard_completed",
         "shard_timed_out", "shard_failed"],
    )
    def test_sharded_executor_types_are_gone(self, type_):
        assert type_ not in EVENT_TYPES
        with pytest.raises(ValueError, match="unknown event type"):
            EventLog().emit(type_)


class TestNullSink:
    def test_disabled_and_inert(self):
        assert not NULL_EVENTS.enabled
        NULL_EVENTS.emit("shard_progress", done=1)  # no-op, no error
        NULL_EVENTS.heartbeat("join")

    def test_null_sink_accepts_even_unknown_types(self):
        # The null path must cost nothing — no validation either.
        EventSink().emit("anything")

    def test_null_obs_has_null_events(self):
        assert NULL_OBS.events is NULL_EVENTS
        assert not NULL_OBS.enabled

    def test_observability_with_events_is_enabled(self):
        obs = Observability(events=EventLog())
        assert obs.enabled
        assert obs.events.enabled


class TestRoundTrip:
    def test_jsonl_round_trip(self):
        log = EventLog()
        log.emit("run_started", algorithm="s3j", workers=1)
        log.emit("run_completed", algorithm="s3j", pairs=7, wall_s=0.5)
        parsed = events_from_jsonl(log.to_jsonl())
        assert parsed == log.to_dicts()

    def test_jsonl_rejects_out_of_schema(self):
        with pytest.raises(ValueError, match="unknown event type"):
            events_from_jsonl('{"type": "bogus", "ts": 1.0, "v": 1}\n')

    def test_stream_file_follows_emission(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLog(stream_path=str(path)) as log:
            log.emit("run_started", algorithm="s3j")
            # Visible before close: the stream flushes per event.
            assert len(path.read_text().splitlines()) == 1
            log.emit("run_completed", pairs=7)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["pairs"] == 7

    def test_close_is_idempotent(self, tmp_path):
        log = EventLog(stream_path=str(tmp_path / "e.jsonl"))
        log.close()
        log.close()


class TestHeartbeat:
    def test_heartbeat_is_rate_limited(self):
        log = EventLog()
        log.emit("run_started")
        for _ in range(100):
            log.heartbeat("join")  # all inside the quiet interval
        assert len(log) == 1

    def test_heartbeat_fires_after_quiet_interval(self, monkeypatch):
        log = EventLog()
        log.emit("run_started")
        import repro.obs.events as events_mod

        real_time = events_mod.time.time()
        monkeypatch.setattr(
            events_mod.time,
            "time",
            lambda: real_time + HEARTBEAT_INTERVAL_S + 0.01,
        )
        log.heartbeat("join")
        assert len(log) == 2
        assert log.to_dicts()[1]["type"] == "shard_heartbeat"


class TestProgressEmitter:
    def test_disabled_sink_returns_none(self):
        assert progress_emitter(NULL_EVENTS, "join", total=10) is None

    def test_emits_every_nth_and_always_the_last(self):
        log = EventLog()
        on_progress = progress_emitter(log, "join", total=10, every=4)
        for done in range(1, 11):
            on_progress(done, f"step-{done}")
        progress = [e for e in log.to_dicts() if e["type"] == "shard_progress"]
        assert [e["done"] for e in progress] == [4, 8, 10]
        assert progress[-1]["detail"] == "step-10"
        assert all(e["total"] == 10 for e in progress)


class TestLedgerParity:
    """Events are observation only: a run's ledger is byte-identical
    with the event log on or off."""

    @pytest.mark.parametrize("algorithm", ["s3j", "pbsm", "shj"])
    def test_serial_ledger_identical_with_events_on_and_off(self, algorithm):
        from repro.experiments.runner import run_algorithm

        dataset_a = make_squares(120, side=0.01, seed=1, name="A")
        dataset_b = make_squares(150, side=0.02, seed=2, name="B")
        plain = run_algorithm(dataset_a, dataset_b, algorithm)
        obs = Observability(events=EventLog())
        observed = run_algorithm(dataset_a, dataset_b, algorithm, obs=obs)
        assert plain.result.metrics.to_dict() == observed.result.metrics.to_dict()
        assert plain.result.pairs == observed.result.pairs
        types = [event["type"] for event in obs.events.to_dicts()]
        assert types[0] == "run_started"
        assert types[-1] == "run_completed"
        assert "shard_progress" in types

    def test_events_only_obs_skips_span_and_metric_instrumentation(self):
        from repro.join.api import spatial_join
        from repro.obs import NULL_METRICS, NULL_TRACER

        dataset_a = make_squares(120, side=0.01, seed=1, name="A")
        obs = Observability(tracer=NULL_TRACER, metrics=NULL_METRICS, events=EventLog())
        spatial_join(dataset_a, dataset_a, obs=obs)
        assert obs.events.to_dicts()
        assert obs.tracer.roots == []  # the null tracer collected nothing
