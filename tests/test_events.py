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
    BufferedEventSink,
    EventLog,
    EventSink,
    events_from_jsonl,
    progress_emitter,
)


class TestSchema:
    def test_events_carry_version_type_and_timestamp(self):
        log = EventLog()
        log.emit("shard_dispatched", shard_id="cell-0")
        (event,) = log.to_dicts()
        assert event["v"] == EVENT_SCHEMA_VERSION
        assert event["type"] == "shard_dispatched"
        assert event["ts"] > 0
        assert event["shard_id"] == "cell-0"

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

    def test_default_fields_ride_every_event(self):
        sink = BufferedEventSink(shard_id="cell-3")
        sink.emit("shard_progress", phase="join", done=1, total=2)
        (event,) = sink.to_dicts()
        assert event["shard_id"] == "cell-3"

    def test_explicit_field_beats_default(self):
        sink = BufferedEventSink(shard_id="cell-1")
        sink.emit("shard_progress", shard_id="cell-9")
        assert sink.to_dicts()[0]["shard_id"] == "cell-9"


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
        log.emit("run_started", algorithm="s3j", workers=2)
        log.emit("shard_completed", shard_id="cell-0", wall_s=0.5)
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


class TestExtend:
    def test_worker_buffer_folds_into_parent_log(self):
        worker = BufferedEventSink(shard_id="cell-2")
        worker.emit("shard_progress", phase="sort", done=1, total=3)
        parent = EventLog()
        parent.extend(worker.to_dicts())
        (event,) = parent.to_dicts()
        assert event["shard_id"] == "cell-2"
        assert event["type"] == "shard_progress"

    def test_extend_preserves_worker_timestamps(self):
        worker = BufferedEventSink(shard_id="cell-0")
        worker.emit("shard_heartbeat", phase="start")
        original_ts = worker.to_dicts()[0]["ts"]
        parent = EventLog()
        parent.extend(worker.to_dicts())
        assert parent.to_dicts()[0]["ts"] == original_ts

    def test_extend_revalidates(self):
        parent = EventLog()
        with pytest.raises(ValueError, match="unknown event type"):
            parent.extend([{"type": "smuggled", "ts": 1.0, "v": 1}])

    def test_extend_streams_to_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        worker = BufferedEventSink(shard_id="cell-1")
        worker.emit("shard_completed", wall_s=0.1)
        with EventLog(stream_path=str(path)) as log:
            log.extend(worker.to_dicts())
        assert json.loads(path.read_text())["shard_id"] == "cell-1"


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
