"""Tests for the observability subsystem (repro.obs).

The hard invariant is at the bottom: tracing and metrics are pure
observation — running a join with observability enabled must leave the
simulated ledger bit-identical to running it disabled.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.baselines.pbsm import PartitionBasedSpatialMergeJoin
from repro.baselines.shj import SpatialHashJoin
from repro.core import partition
from repro.core.s3j import SizeSeparationSpatialJoin
from repro.curves.hilbert import HilbertCurve
from repro.experiments.runner import run_algorithm
from repro.geometry.entity import Entity
from repro.geometry.rect import Rect
from repro.join.dataset import SpatialDataset
from repro.obs import NULL_OBS, Observability
from repro.obs.metrics import (
    NULL_METRICS,
    Histogram,
    MetricsRegistry,
    series_key,
)
from repro.obs.report import (
    TABLE2_PHASES,
    RunReport,
    build_run_report,
    phase_wall_times,
)
from repro.obs.tracer import NULL_TRACER, Span, Tracer
from repro.storage.manager import StorageConfig, StorageManager

from tests.conftest import make_squares


class TestTracer:
    def test_nesting(self):
        tracer = Tracer()
        with tracer.span("outer", kind="phase"):
            with tracer.span("inner") as inner:
                inner.set(pages=3)
        assert len(tracer.roots) == 1
        outer = tracer.roots[0]
        assert outer.name == "outer"
        assert [child.name for child in outer.children] == ["inner"]
        assert outer.children[0].attrs["pages"] == 3
        assert outer.wall_s >= outer.children[0].wall_s >= 0.0

    def test_out_of_order_close_raises(self):
        tracer = Tracer()
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(RuntimeError, match="out of order"):
            outer.__exit__(None, None, None)

    def test_span_dict_round_trip(self):
        tracer = Tracer()
        with tracer.span("a", kind="phase"):
            with tracer.span("b", side="A"):
                pass
        data = tracer.to_dicts()
        restored = Span.from_dict(data[0])
        assert restored.name == "a"
        assert restored.children[0].attrs == {"side": "A"}
        assert restored.to_dict() == data[0]

    def test_jsonl_links_parents(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
        rows = [json.loads(line) for line in tracer.to_jsonl().splitlines()]
        by_name = {row["name"]: row for row in rows}
        assert by_name["a"]["parent"] is None
        assert by_name["b"]["parent"] == by_name["a"]["id"]
        assert by_name["c"]["parent"] is None

    def test_chrome_trace_format(self):
        tracer = Tracer()
        with tracer.span("partition", kind="phase"):
            with tracer.span("partition:A", side="A"):
                pass
        trace = tracer.to_chrome_trace()
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        assert [event["name"] for event in events] == ["partition", "partition:A"]
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] >= 0.0
        assert events[0]["cat"] == "phase"
        # The whole document must be JSON-serializable as-is.
        json.dumps(trace)

    def test_null_tracer_allocates_nothing(self):
        with NULL_TRACER.span("anything", kind="phase") as span:
            span.set(ignored=True)
        assert NULL_TRACER.roots == []
        assert NULL_TRACER.to_dicts() == []
        assert not NULL_TRACER.enabled
        assert span.attrs == {}


class TestMetricsRegistry:
    def test_series_key_sorts_labels(self):
        assert series_key("x", {}) == "x"
        assert series_key("x", {"b": 2, "a": 1}) == "x{a=1,b=2}"

    def test_counters_and_gauges(self):
        registry = MetricsRegistry()
        registry.count("io.reads", 2, file="f", kind="seq")
        registry.count("io.reads", 3, file="f", kind="seq")
        registry.gauge("dsb.level", 7)
        assert registry.counter_value("io.reads", file="f", kind="seq") == 5
        assert registry.counter_total("io.reads") == 5
        assert registry.as_dict()["gauges"]["dsb.level"] == 7

    def test_histogram_buckets(self):
        histogram = Histogram()
        for value in (0, 1, 2, 3, 100):
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.min == 0 and histogram.max == 100
        assert histogram.mean == pytest.approx(106 / 5)
        restored = Histogram.from_dict(histogram.as_dict())
        assert restored.as_dict() == histogram.as_dict()

    def test_registry_round_trip(self):
        registry = MetricsRegistry()
        registry.count("a.b", 4, side="A")
        registry.gauge("g", 1.5)
        registry.observe("h", 9)
        restored = MetricsRegistry.from_dict(registry.as_dict())
        assert restored.as_dict() == registry.as_dict()

    def test_null_registry_is_inert(self):
        NULL_METRICS.count("x")
        NULL_METRICS.gauge("y", 1)
        NULL_METRICS.observe("z", 2)
        assert NULL_METRICS.as_dict() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        assert not NULL_METRICS.enabled


class TestObservability:
    def test_default_is_enabled(self):
        obs = Observability()
        assert obs.enabled
        assert obs.active_metrics is obs.metrics

    def test_null_obs_is_disabled(self):
        assert not NULL_OBS.enabled
        assert NULL_OBS.active_metrics is None


class TestPhaseWallTimes:
    def _span(self, name, wall, kind=None, children=()):
        span = Span(name, 0.0, {} if kind is None else {"kind": kind})
        span.wall_s = wall
        span.children = list(children)
        return span

    def test_nested_phase_attributes_to_innermost(self):
        # PBSM shape: a repartition "partition" phase inside "join".
        inner = self._span("partition", 2.0, kind="phase")
        join = self._span("join", 10.0, kind="phase", children=[inner])
        root = self._span("spatial_join", 11.0, children=[join])
        wall = phase_wall_times([root])
        assert wall["partition"] == pytest.approx(2.0)
        assert wall["join"] == pytest.approx(8.0)

    def test_non_phase_children_do_not_subtract(self):
        sub = self._span("sync-scan", 4.0)
        join = self._span("join", 5.0, kind="phase", children=[sub])
        assert phase_wall_times([join])["join"] == pytest.approx(5.0)


class TestRunReport:
    def _run(self, **kwargs):
        dataset_a = make_squares(150, 0.03, seed=11, name="A")
        dataset_b = make_squares(150, 0.04, seed=12, name="B")
        obs = Observability()
        run = run_algorithm(dataset_a, dataset_b, "s3j", obs=obs, **kwargs)
        return run, obs

    def test_report_built_when_obs_enabled(self):
        run, obs = self._run()
        report = run.report
        assert report is not None
        assert report.algorithm == "s3j"
        assert report.workload == "A-B"
        assert report.pairs == len(run.result.pairs)
        for phase in TABLE2_PHASES["s3j"]:
            assert report.phase_wall.get(phase, 0.0) > 0.0
            assert report.phase_table()[phase]["simulated_s"] > 0.0
        assert report.wall_seconds > 0.0
        assert report.simulated_seconds == pytest.approx(
            run.result.metrics.response_time
        )

    def test_no_report_without_obs(self):
        dataset = make_squares(60, 0.05, seed=13, name="A")
        run = run_algorithm(dataset, dataset, "s3j")
        assert run.report is None

    def test_json_round_trip(self, tmp_path):
        run, _obs = self._run()
        path = tmp_path / "report.json"
        run.report.save(str(path))
        restored = RunReport.load(str(path))
        assert restored.algorithm == run.report.algorithm
        assert restored.pairs == run.report.pairs
        # Compare through JSON: serialization stringifies the int dict
        # keys inside details (e.g. levels_a), deliberately.
        assert json.loads(restored.to_json()) == json.loads(run.report.to_json())
        # The restored metrics re-price phases with the restored model.
        assert restored.simulated_seconds == pytest.approx(
            run.report.simulated_seconds
        )

    def test_from_json_rejects_unknown_schema(self):
        run, _obs = self._run()
        data = run.report.to_dict()
        data["schema_version"] = 99
        with pytest.raises(ValueError, match="schema version"):
            RunReport.from_dict(data)

    def test_build_run_report_registry_series(self):
        run, obs = self._run()
        counters = run.report.registry["counters"]
        assert run.report.registry is not None
        assert counters.get("buffer.hits", 0) > 0
        assert counters.get("buffer.misses", 0) > 0
        assert counters.get("scan.pairs_emitted", 0) > 0
        assert any(key.startswith("io.reads{") for key in counters)
        histograms = run.report.registry["histograms"]
        assert "sort.initial_runs" in histograms
        report = build_run_report(run.result, obs, wall_seconds=1.25)
        assert report.wall_seconds == 1.25


def make_clustered(count: int, seed: int, name: str) -> SpatialDataset:
    """Gaussian clusters plus occasional large rectangles, so records
    spread over many Filter-Tree levels and tiles replicate unevenly."""
    rng = random.Random(seed)
    centers = [(rng.random(), rng.random()) for _ in range(8)]
    entities = []
    for eid in range(count):
        side = rng.uniform(0.2, 0.45) if eid % 13 == 0 else rng.uniform(0.002, 0.03)
        cx, cy = centers[eid % len(centers)]
        x = min(max(cx + rng.gauss(0.0, 0.08), 0.0), 1.0 - side)
        y = min(max(cy + rng.gauss(0.0, 0.08), 0.0), 1.0 - side)
        entities.append(Entity.from_geometry(eid, Rect(x, y, x + side, y + side)))
    return SpatialDataset(name, entities)


WORKLOADS = {
    "uniform": lambda: (
        make_squares(400, 0.03, seed=101, name="A"),
        make_squares(400, 0.05, seed=102, name="B"),
    ),
    "clustered": lambda: (
        make_clustered(400, seed=103, name="A"),
        make_clustered(400, seed=104, name="B"),
    ),
}

ALGORITHMS = {
    "s3j": SizeSeparationSpatialJoin,
    "s3j-dsb-precise": lambda storage: SizeSeparationSpatialJoin(
        storage, dsb_level=6, dsb_mode="precise"
    ),
    "s3j-dsb-fast": lambda storage: SizeSeparationSpatialJoin(
        storage, dsb_level=6, dsb_mode="fast"
    ),
    "pbsm": lambda storage: PartitionBasedSpatialMergeJoin(storage, tiles_per_dim=16),
    "pbsm-filtering": lambda storage: PartitionBasedSpatialMergeJoin(
        storage, tiles_per_dim=8, tile_space=Rect(0.25, 0.25, 0.75, 0.75)
    ),
    "shj": SpatialHashJoin,
}


def execute(factory, dataset_a, dataset_b, obs=None):
    """One full join run on a fresh storage manager; returns everything
    observability must leave unchanged."""
    with StorageManager(StorageConfig(buffer_pages=32), obs=obs) as storage:
        curve = HilbertCurve()
        file_a = dataset_a.write_descriptors(storage, "in-a", curve=curve)
        file_b = dataset_b.write_descriptors(storage, "in-b", curve=curve)
        storage.phase_boundary()
        storage.stats.reset()
        result = factory(storage).join(file_a, file_b)
        return {
            "pairs": result.pairs,
            "phases": dict(storage.stats.phases),
            "total": storage.stats.snapshot(),
            "details": result.metrics.details,
            "replication": (
                result.metrics.replication_a,
                result.metrics.replication_b,
            ),
        }


class TestLedgerParity:
    """Acceptance: observability must never perturb the simulation."""

    @pytest.fixture(autouse=True)
    def several_partition_blocks(self, monkeypatch):
        monkeypatch.setattr(partition, "DEFAULT_BATCH_SIZE", 64)

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_ledger_identical_with_and_without_obs(self, algorithm):
        dataset_a, dataset_b = WORKLOADS["clustered"]()
        factory = ALGORITHMS[algorithm]
        plain = execute(factory, dataset_a, dataset_b)
        traced = execute(factory, dataset_a, dataset_b, obs=Observability())
        assert traced["pairs"] == plain["pairs"]
        assert traced["phases"] == plain["phases"]
        assert traced["total"] == plain["total"]
        assert traced["details"] == plain["details"]
        assert traced["replication"] == plain["replication"]

    def test_spans_report_ledger_simulated_seconds(self):
        """The simulated_s attached to a phase span equals the ledger's
        own pricing of that phase."""
        dataset_a, dataset_b = WORKLOADS["uniform"]()
        obs = Observability()
        outcome = execute(ALGORITHMS["s3j"], dataset_a, dataset_b, obs=obs)
        spans = {span.name: span for span in _iter_spans(obs.tracer.roots)}
        from repro.storage.costs import CostModel

        cost = CostModel()
        for phase in ("partition", "sort", "join"):
            assert spans[phase].attrs["simulated_s"] == pytest.approx(
                cost.response_time(outcome["phases"][phase])
            )


def _iter_spans(spans):
    for span in spans:
        yield span
        yield from _iter_spans(span.children)


class TestHistogramQuantiles:
    def test_exact_quantiles_small_sample(self):
        h = Histogram()
        for value in range(1, 101):  # 1..100
            h.observe(float(value))
        assert h.exact_quantiles
        assert h.quantile(0.5) == pytest.approx(50.5)
        assert h.quantile(0.95) == pytest.approx(95.05)
        assert h.quantile(0.99) == pytest.approx(99.01)
        assert h.quantile(0.0) == 1.0
        assert h.quantile(1.0) == 100.0

    def test_as_dict_carries_percentiles(self):
        h = Histogram()
        for value in (1.0, 2.0, 3.0, 4.0):
            h.observe(value)
        d = h.as_dict()
        assert d["p50"] == pytest.approx(2.5)
        assert d["p95"] == pytest.approx(3.85)
        assert d["p99"] == pytest.approx(3.97)

    def test_quantile_bounds_checked(self):
        h = Histogram()
        h.observe(1.0)
        with pytest.raises(ValueError, match="quantile"):
            h.quantile(1.5)

    def test_empty_histogram_has_no_quantiles(self):
        assert Histogram().quantile(0.5) is None

    def test_cap_overflow_degrades_to_bucket_interpolation(self):
        from repro.obs.metrics import QUANTILE_SAMPLE_CAP

        h = Histogram()
        for index in range(QUANTILE_SAMPLE_CAP + 1):
            h.observe(float(index % 100) + 1.0)
        assert not h.exact_quantiles
        assert h.samples is None
        # Bucket interpolation still lands inside the observed range.
        p50 = h.quantile(0.5)
        assert h.min <= p50 <= h.max


class TestAtomicWrites:
    def test_write_and_content(self, tmp_path):
        from repro.obs.fileio import atomic_write_json

        path = tmp_path / "artifact.json"
        atomic_write_json(path, {"b": 2, "a": 1})
        data = json.loads(path.read_text())
        assert data == {"a": 1, "b": 2}
        # No temp-file litter left beside the artifact.
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]

    def test_unserializable_payload_leaves_original_intact(self, tmp_path):
        from repro.obs.fileio import atomic_write_json

        path = tmp_path / "artifact.json"
        atomic_write_json(path, {"ok": True})
        with pytest.raises(TypeError):
            atomic_write_json(path, {"bad": object()})
        assert json.loads(path.read_text()) == {"ok": True}
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]

    def test_crash_mid_write_leaves_original_intact(self, tmp_path, monkeypatch):
        import os as os_mod

        from repro.obs import fileio
        from repro.obs.fileio import atomic_write_text

        path = tmp_path / "artifact.json"
        atomic_write_text(path, "original\n")

        def exploding_replace(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(fileio.os, "replace", exploding_replace)
        with pytest.raises(OSError, match="disk gone"):
            atomic_write_text(path, "half-written garbage")
        monkeypatch.undo()
        assert path.read_text() == "original\n"
        # The failed attempt's temp file was cleaned up.
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]
        assert os_mod.path.exists(path)

    def test_report_save_is_atomic(self, tmp_path, monkeypatch):
        """RunReport.save must go through the atomic writer."""
        dataset_a = make_squares(30, side=0.05, seed=5, name="A")
        dataset_b = make_squares(30, side=0.05, seed=6, name="B")
        obs = Observability()
        outcome = run_algorithm(dataset_a, dataset_b, "s3j", obs=obs)
        report = build_run_report(outcome.result, obs, workload="test")
        path = tmp_path / "run.report.json"
        report.save(str(path))
        original = path.read_text()

        from repro.obs import fileio

        monkeypatch.setattr(
            fileio.os,
            "replace",
            lambda src, dst: (_ for _ in ()).throw(OSError("boom")),
        )
        with pytest.raises(OSError):
            report.save(str(path))
        monkeypatch.undo()
        assert path.read_text() == original
