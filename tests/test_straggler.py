"""Tests for straggler analytics (repro.obs.straggler) and the event
layer's two parity guarantees: the ledger is byte-identical with events
on or off, and merged metrics stay byte-identical across worker counts
with events enabled."""

from __future__ import annotations

import pytest

from repro.obs import Observability
from repro.obs.events import EventLog
from repro.obs.report import build_run_report
from repro.obs.straggler import ShardLane, StragglerAnalytics, analyze_events
from repro.parallel import parallel_spatial_join

from tests.conftest import make_squares


def small_inputs():
    return (
        make_squares(120, side=0.01, seed=1, name="A"),
        make_squares(150, side=0.02, seed=2, name="B"),
    )


def synthetic_events() -> list[dict]:
    """A hand-built stream: 3 shards on 2 workers; one straggler, one
    retried shard."""
    t0 = 1000.0
    return [
        {"type": "run_started", "ts": t0, "workers": 2, "algorithm": "s3j"},
        {"type": "shard_dispatched", "ts": t0 + 0.01, "shard_id": "cell-0",
         "kind": "cell", "attempt": 1, "records": 40},
        {"type": "shard_dispatched", "ts": t0 + 0.01, "shard_id": "cell-1",
         "kind": "cell", "attempt": 1, "records": 50},
        {"type": "shard_dispatched", "ts": t0 + 0.02, "shard_id": "cell-2",
         "kind": "cell", "attempt": 1, "records": 30},
        {"type": "shard_heartbeat", "ts": t0 + 0.05, "shard_id": "cell-0",
         "phase": "start"},
        {"type": "shard_completed", "ts": t0 + 1.05, "shard_id": "cell-0",
         "kind": "cell", "wall_s": 1.0, "pairs": 10,
         "phase_wall": {"join": 0.6, "partition": 0.4}},
        {"type": "shard_retry", "ts": t0 + 1.2, "shard_id": "cell-1",
         "error": "WorkerCrash"},
        {"type": "shard_dispatched", "ts": t0 + 1.2, "shard_id": "cell-1",
         "kind": "cell", "attempt": 2, "records": 50},
        {"type": "shard_completed", "ts": t0 + 2.2, "shard_id": "cell-1",
         "kind": "cell", "wall_s": 1.0, "pairs": 12, "phase_wall": {}},
        {"type": "shard_completed", "ts": t0 + 4.02, "shard_id": "cell-2",
         "kind": "cell", "wall_s": 4.0, "pairs": 3,
         "phase_wall": {"join": 3.0, "sort": 1.0}},
        {"type": "run_completed", "ts": t0 + 4.1, "pairs": 25},
    ]


class TestAnalyzeEvents:
    def test_empty_stream(self):
        analytics = analyze_events([])
        assert analytics.lanes == []
        assert analytics.imbalance_factor is None
        assert analytics.makespan_s == 0.0

    def test_lane_per_shard(self):
        analytics = analyze_events(synthetic_events())
        assert [lane.shard_id for lane in analytics.lanes] == [
            "cell-0", "cell-1", "cell-2",
        ]
        assert analytics.workers == 2

    def test_imbalance_factor_is_max_over_mean(self):
        analytics = analyze_events(synthetic_events())
        # durations 1.0, 1.0, 4.0 -> mean 2.0, max 4.0
        assert analytics.imbalance_factor == pytest.approx(2.0)

    def test_critical_path_is_slowest_shard(self):
        analytics = analyze_events(synthetic_events())
        cp = analytics.critical_path
        assert cp["shard_id"] == "cell-2"
        assert cp["share_of_total"] == pytest.approx(4.0 / 6.0)
        assert cp["wall_s"] == pytest.approx(4.0)
        assert cp["phase_wall"]["join"] == pytest.approx(3.0)

    def test_retry_counted_and_attempts_tracked(self):
        analytics = analyze_events(synthetic_events())
        assert analytics.retries == 1
        by_id = {lane.shard_id: lane for lane in analytics.lanes}
        assert by_id["cell-1"].attempts == 2
        assert by_id["cell-0"].attempts == 1

    def test_lane_start_prefers_first_worker_event(self):
        analytics = analyze_events(synthetic_events())
        by_id = {lane.shard_id: lane for lane in analytics.lanes}
        # cell-0's heartbeat at t0+0.05 beats its dispatch at t0+0.01.
        assert by_id["cell-0"].start_s == pytest.approx(0.05)
        # cell-2 never heartbeat: dispatch time is used.
        assert by_id["cell-2"].start_s == pytest.approx(0.02)

    def test_duration_percentiles_are_exact(self):
        analytics = analyze_events(synthetic_events())
        pct = analytics.duration_percentiles
        assert pct["p50"] == pytest.approx(1.0)
        assert pct["max"] == pytest.approx(4.0)

    def test_failed_shard_gets_failed_lane(self):
        events = [
            {"type": "shard_dispatched", "ts": 1.0, "shard_id": "cell-0",
             "kind": "cell", "attempt": 1},
            {"type": "shard_failed", "ts": 2.0, "shard_id": "cell-0",
             "attempts": 3, "error": "WorkerCrash"},
        ]
        analytics = analyze_events(events)
        (lane,) = analytics.lanes
        assert lane.failed
        assert analytics.failures == 1
        assert analytics.critical_path is None

    def test_round_trip(self):
        analytics = analyze_events(synthetic_events())
        restored = StragglerAnalytics.from_dict(analytics.to_dict())
        assert restored.to_dict() == analytics.to_dict()
        assert isinstance(restored.lanes[0], ShardLane)


class TestIntegration:
    def test_sharded_run_populates_report_analytics(self):
        dataset_a, dataset_b = small_inputs()
        obs = Observability(events=EventLog())
        result = parallel_spatial_join(dataset_a, dataset_b, workers=2, obs=obs)
        report = build_run_report(result, obs)
        assert report.events
        types = {event["type"] for event in report.events}
        assert {"run_started", "shard_dispatched", "shard_completed",
                "run_completed"} <= types
        analytics = report.analytics
        tasks = result.metrics.details["plan"]["tasks"]
        assert len(analytics["shards"]) == tasks
        assert analytics["imbalance_factor"] >= 1.0
        assert analytics["record_imbalance_factor"] >= 1.0
        assert analytics["workers"] == 2
        assert all(lane["kind"] == "tile" for lane in analytics["shards"])
        assert 0.0 < analytics["critical_path"]["share_of_total"] < 1.0

    def test_worker_events_ship_through_result_payload(self):
        dataset_a, dataset_b = small_inputs()
        obs = Observability(events=EventLog())
        parallel_spatial_join(dataset_a, dataset_b, workers=2, obs=obs)
        progress = [
            event
            for event in obs.events.to_dicts()
            if event["type"] == "shard_progress"
        ]
        # Worker-side algorithm hooks buffered these and shipped them
        # back with the shard results.
        assert progress
        assert all("shard_id" in event for event in progress)

    def test_events_only_obs_skips_span_and_metric_instrumentation(self):
        from repro.obs import NULL_METRICS, NULL_TRACER

        dataset_a, dataset_b = small_inputs()
        obs = Observability(
            tracer=NULL_TRACER, metrics=NULL_METRICS, events=EventLog()
        )
        parallel_spatial_join(dataset_a, dataset_b, workers=2, obs=obs)
        assert obs.events.to_dicts()
        assert obs.tracer.roots == []  # null tracer collected nothing


class TestParityGates:
    """The tentpole's acceptance gates."""

    def test_ledger_identical_with_events_on_and_off(self):
        dataset_a, dataset_b = small_inputs()
        plain = parallel_spatial_join(dataset_a, dataset_b, workers=2)
        observed = parallel_spatial_join(
            dataset_a,
            dataset_b,
            workers=2,
            obs=Observability(events=EventLog()),
        )
        assert plain.metrics.to_dict() == observed.metrics.to_dict()
        assert plain.pairs == observed.pairs

    @pytest.mark.parametrize("algorithm", ("s3j", "pbsm", "shj"))
    def test_metrics_identical_across_worker_counts_with_events(
        self, algorithm
    ):
        dataset_a, dataset_b = small_inputs()
        dumps = []
        for workers in (1, 2):
            obs = Observability(events=EventLog())
            result = parallel_spatial_join(
                dataset_a, dataset_b, algorithm=algorithm,
                workers=workers, obs=obs,
            )
            assert obs.events.to_dicts()  # events flowed either way
            dumps.append(result.metrics.to_dict())
        assert dumps[0] == dumps[1]

    def test_serial_ledger_identical_with_events_on_and_off(self):
        from repro.experiments.runner import run_algorithm

        dataset_a, dataset_b = small_inputs()
        plain = run_algorithm(dataset_a, dataset_b, "s3j")
        obs = Observability(events=EventLog())
        observed = run_algorithm(dataset_a, dataset_b, "s3j", obs=obs)
        assert (
            plain.result.metrics.to_dict() == observed.result.metrics.to_dict()
        )
        types = [event["type"] for event in obs.events.to_dicts()]
        assert types[0] == "run_started"
        assert types[-1] == "run_completed"
        assert "shard_progress" in types
