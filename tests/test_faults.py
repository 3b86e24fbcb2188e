"""The fault subsystem: plans, injection, torn writes, retries, and the
storage-layer contracts they rely on (sorter cleanup, fault-free
parity); the closed-backend contract is in ``test_storage.py``'s
``TestBackends``, which runs every wrapped stack."""

import dataclasses

import pytest

from repro.faults import (
    NO_FAULTS,
    FaultInjectingBackend,
    FaultPlan,
    PermanentIOError,
    RetriesExhaustedError,
    RetryingBackend,
    RetryPolicy,
    ScheduledFault,
    ShardFailure,
    TornWriteError,
    TransientIOError,
)
from repro.obs import Observability
from repro.storage.backend import MemoryBackend
from repro.storage.iostats import IOStats
from repro.storage.manager import StorageConfig, StorageManager
from repro.storage.records import EntityDescriptorCodec

REC = (1, 0.1, 0.1, 0.2, 0.2, 0)


def make_backend(plan, stats=None, metrics=None):
    backend = FaultInjectingBackend(
        MemoryBackend(), plan, stats=stats, metrics=metrics
    )
    backend.create_file("f", EntityDescriptorCodec(), 4096)
    return backend


class TestScheduledFault:
    def test_fires_window(self):
        rule = ScheduledFault(op="write", kind="transient", first=2, last=3)
        assert not rule.fires("write", 1, "f")
        assert rule.fires("write", 2, "f")
        assert rule.fires("write", 3, "f")
        assert not rule.fires("write", 4, "f")
        assert not rule.fires("read", 2, "f")

    def test_open_ended_and_file_filter(self):
        rule = ScheduledFault(op="read", kind="permanent", first=5, file="x")
        assert rule.fires("read", 500, "x")
        assert not rule.fires("read", 500, "y")

    def test_validation(self):
        with pytest.raises(ValueError, match="op"):
            ScheduledFault(op="delete", kind="transient")
        with pytest.raises(ValueError, match="kind"):
            ScheduledFault(op="write", kind="weird")
        with pytest.raises(ValueError, match="torn"):
            ScheduledFault(op="read", kind="torn")
        with pytest.raises(ValueError, match="1-based"):
            ScheduledFault(op="write", kind="torn", first=0)
        with pytest.raises(ValueError, match="last"):
            ScheduledFault(op="write", kind="torn", first=5, last=4)


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError, match="transient_read_rate"):
            FaultPlan(transient_read_rate=1.5)
        with pytest.raises(ValueError, match="max_faults"):
            FaultPlan(max_faults=-1)
        with pytest.raises(ValueError, match="latency_ops"):
            FaultPlan(latency_ops=-1)

    def test_random_enabled_needs_seed_and_rate(self):
        assert not FaultPlan(seed=1).random_enabled
        assert not FaultPlan(transient_read_rate=0.5).random_enabled
        assert FaultPlan(seed=1, transient_read_rate=0.5).random_enabled
        assert not NO_FAULTS.injects_storage_faults
        assert FaultPlan.failing_writes(3).injects_storage_faults

    def test_plan_is_picklable_and_hashable(self):
        import pickle

        plan = FaultPlan(
            seed=7,
            torn_write_rate=0.1,
            schedule=(ScheduledFault(op="write", kind="torn"),),
        )
        assert pickle.loads(pickle.dumps(plan)) == plan
        assert hash(plan) == hash(pickle.loads(pickle.dumps(plan)))

    @pytest.mark.parametrize(
        "field",
        ["crash_shards", "crash_attempts", "delay_shards", "delay_attempts", "delay_s"],
    )
    def test_worker_fault_fields_are_gone(self, field):
        with pytest.raises(TypeError):
            FaultPlan(**{field: 1})


class TestInjection:
    def test_scheduled_write_failures(self):
        backend = make_backend(FaultPlan.failing_writes(2))
        backend.write_page("f", 0, [REC])
        backend.write_page("f", 1, [REC])
        with pytest.raises(PermanentIOError, match="injected"):
            backend.write_page("f", 2, [REC])

    def test_transient_is_injected_before_side_effects(self):
        plan = FaultPlan(
            schedule=(ScheduledFault(op="write", kind="transient", last=1),)
        )
        backend = make_backend(plan)
        with pytest.raises(TransientIOError):
            backend.write_page("f", 0, [REC])
        # Nothing persisted: the retry writes the full page.
        backend.write_page("f", 0, [REC])
        assert backend.read_page("f", 0).tolist() == [REC]

    def test_random_stream_is_deterministic(self):
        def run():
            plan = FaultPlan(seed=11, transient_write_rate=0.3)
            backend = make_backend(plan)
            failed = []
            for page in range(40):
                try:
                    backend.write_page("f", page, [REC])
                except TransientIOError:
                    failed.append(page)
            return failed

        first, second = run(), run()
        assert first == second
        assert first  # the 0.3 rate must actually fire in 40 calls

    def test_max_faults_caps_random_but_not_scheduled(self):
        plan = FaultPlan(
            seed=1,
            transient_write_rate=1.0,
            max_faults=2,
            schedule=(ScheduledFault(op="write", kind="permanent", first=30),),
        )
        backend = make_backend(plan)
        failures = 0
        for page in range(29):
            try:
                backend.write_page("f", page, [REC])
            except TransientIOError:
                failures += 1
        assert failures == 2  # capped
        with pytest.raises(PermanentIOError):  # schedule still honored
            backend.write_page("f", 99, [REC])

    def test_fault_latency_charged_to_ledger(self):
        stats = IOStats()
        plan = FaultPlan(
            latency_ops=3,
            schedule=(ScheduledFault(op="write", kind="transient", last=1),),
        )
        backend = make_backend(plan, stats=stats)
        with pytest.raises(TransientIOError):
            backend.write_page("f", 0, [REC])
        assert stats.total.cpu_ops.get("fault_latency") == 3

    def test_injection_metrics(self):
        obs = Observability()
        plan = FaultPlan.failing_writes(0, kind="transient")
        backend = make_backend(plan, metrics=obs.metrics)
        with pytest.raises(TransientIOError):
            backend.write_page("f", 0, [REC])
        assert obs.metrics.counter_total("faults.injected") == 1
        assert backend.log.injected["transient"] == 1
        assert backend.log.calls["write"] == 1


class TestTornWrites:
    def plan(self):
        return FaultPlan(schedule=(ScheduledFault(op="write", kind="torn", last=1),))

    def records(self, n):
        return EntityDescriptorCodec().page([(i, 0.1, 0.1, 0.2, 0.2, 0) for i in range(n)])

    def test_torn_write_detected_on_read(self):
        backend = make_backend(self.plan())
        backend.write_page("f", 0, self.records(4))  # torn: silent success
        with pytest.raises(TornWriteError, match="torn write"):
            backend.read_page("f", 0)

    def test_torn_write_persists_only_a_prefix(self):
        inner = MemoryBackend()
        backend = FaultInjectingBackend(inner, self.plan())
        backend.create_file("f", EntityDescriptorCodec(), 4096)
        backend.write_page("f", 0, self.records(4))
        assert inner.read_page("f", 0).tolist() == self.records(4)[:2].tolist()

    def test_full_rewrite_heals_the_page(self):
        backend = make_backend(self.plan())
        backend.write_page("f", 0, self.records(4))  # torn
        backend.write_page("f", 0, self.records(4))  # full rewrite
        assert backend.read_page("f", 0).tolist() == self.records(4).tolist()

    def test_detection_survives_rename(self):
        backend = make_backend(self.plan())
        backend.write_page("f", 0, self.records(4))
        backend.rename_file("f", "g")
        with pytest.raises(TornWriteError):
            backend.read_page("g", 0)

    def test_torn_error_is_permanent_not_retryable(self):
        backend = make_backend(self.plan())
        retrying = RetryingBackend(backend, RetryPolicy(max_attempts=5))
        retrying.write_page("f", 0, self.records(4))
        with pytest.raises(TornWriteError):  # not RetriesExhaustedError
            retrying.read_page("f", 0)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)

    def test_backoff_deterministic_and_exponential(self):
        policy = RetryPolicy(base_backoff_s=0.01, multiplier=2.0, jitter=0.25)
        first = policy.backoff_s(1, "f:0")
        assert first == policy.backoff_s(1, "f:0")  # deterministic
        assert first != policy.backoff_s(1, "f:1")  # token-jittered
        assert 0.01 <= first <= 0.01 * 1.25
        assert 0.02 <= policy.backoff_s(2, "f:0") <= 0.02 * 1.25

    def test_zero_jitter_is_pure_exponential(self):
        policy = RetryPolicy(base_backoff_s=0.01, multiplier=3.0, jitter=0.0)
        assert policy.backoff_s(2, "anything") == pytest.approx(0.03)


class TestRetryingBackend:
    def window_plan(self, fail_first_n):
        """Writes 1..n fail transiently; later calls succeed."""
        return FaultPlan(
            schedule=(
                ScheduledFault(op="write", kind="transient", last=fail_first_n),
            )
        )

    def test_transparent_recovery(self):
        obs = Observability()
        inner = FaultInjectingBackend(MemoryBackend(), self.window_plan(2))
        inner.create_file("f", EntityDescriptorCodec(), 4096)
        backend = RetryingBackend(inner, RetryPolicy(max_attempts=3), obs=obs)
        backend.write_page("f", 0, [REC])  # attempts 1,2 fail, 3 succeeds
        assert backend.read_page("f", 0).tolist() == [REC]
        assert obs.metrics.counter_total("faults.retries_attempted") == 2
        assert obs.metrics.counter_total("faults.retries_succeeded") == 1
        assert obs.metrics.counter_total("faults.giveups") == 0
        assert backend.simulated_backoff_s > 0

    def test_gives_up_loudly(self):
        obs = Observability()
        inner = FaultInjectingBackend(MemoryBackend(), self.window_plan(10))
        inner.create_file("f", EntityDescriptorCodec(), 4096)
        backend = RetryingBackend(inner, RetryPolicy(max_attempts=3), obs=obs)
        with pytest.raises(RetriesExhaustedError) as info:
            backend.write_page("f", 0, [REC])
        assert isinstance(info.value.__cause__, TransientIOError)
        assert obs.metrics.counter_total("faults.giveups") == 1

    def test_permanent_faults_pass_straight_through(self):
        inner = FaultInjectingBackend(MemoryBackend(), FaultPlan.failing_writes(0))
        inner.create_file("f", EntityDescriptorCodec(), 4096)
        backend = RetryingBackend(inner, RetryPolicy(max_attempts=5))
        with pytest.raises(PermanentIOError):
            backend.write_page("f", 0, [REC])

    def test_retry_span_events_emitted(self):
        obs = Observability()
        inner = FaultInjectingBackend(MemoryBackend(), self.window_plan(1))
        inner.create_file("f", EntityDescriptorCodec(), 4096)
        backend = RetryingBackend(inner, RetryPolicy(max_attempts=2), obs=obs)
        with obs.tracer.span("test"):
            backend.write_page("f", 0, [REC])
        dumps = obs.tracer.to_dicts()
        flat = str(dumps)
        assert "retry:write" in flat


class TestManagerIntegration:
    def test_config_installs_wrappers(self):
        config = StorageConfig(
            fault_plan=FaultPlan.failing_writes(0), retry=RetryPolicy()
        )
        with StorageManager(config) as manager:
            assert isinstance(manager.backend, RetryingBackend)
            assert isinstance(manager.backend.inner, FaultInjectingBackend)

    def test_no_wrappers_by_default(self):
        with StorageManager(StorageConfig()) as manager:
            assert isinstance(manager.backend, MemoryBackend)

    def test_fault_free_parity_under_retry_layer(self):
        """Retry layer + zero-fault plan => identical pairs and an
        identical simulated ledger, phase by phase."""
        from repro.join.api import spatial_join
        from tests.conftest import make_squares

        a = make_squares(80, 0.04, seed=5, name="A")
        b = make_squares(80, 0.05, seed=6, name="B")
        base_config = StorageConfig(buffer_pages=24)
        layered_config = dataclasses.replace(
            base_config, retry=RetryPolicy(max_attempts=4), fault_plan=NO_FAULTS
        )
        plain = spatial_join(a, b, algorithm="s3j", storage=base_config)
        layered = spatial_join(a, b, algorithm="s3j", storage=layered_config)
        assert layered.pairs == plain.pairs
        assert {
            name: stats.to_dict() for name, stats in layered.metrics.phases.items()
        } == {
            name: stats.to_dict() for name, stats in plain.metrics.phases.items()
        }
        assert layered.metrics.breakdown() == plain.metrics.breakdown()

    def test_fault_free_run_emits_no_fault_metrics(self):
        """The retry wrapper adds nothing on the happy path: no
        ``faults.*`` counter ever appears."""
        from repro.join.api import spatial_join
        from tests.conftest import make_squares

        a = make_squares(60, 0.04, seed=5, name="A")
        b = make_squares(60, 0.05, seed=6, name="B")
        obs = Observability()
        config = StorageConfig(
            buffer_pages=24, retry=RetryPolicy(), fault_plan=NO_FAULTS
        )
        spatial_join(a, b, algorithm="s3j", storage=config, obs=obs)
        for metric in (
            "faults.injected",
            "faults.retries_attempted",
            "faults.retries_succeeded",
            "faults.giveups",
        ):
            assert obs.metrics.counter_total(metric) == 0


class TestSorterCleanup:
    def fill(self, manager, records=600):
        handle = manager.create_file("input")
        for i in range(records):
            handle.append((i, 0.1, 0.1, 0.2, 0.2, 0))
        return handle

    def run_names(self, manager):
        return [
            name
            for name in manager.list_files()
            if name.startswith("__sort-run")
        ]

    def test_failed_sort_drops_temp_runs(self):
        from repro.faults import FaultIOError
        from repro.sorting.external_sort import ExternalSorter

        # Filling 600 records write-behinds pages 0..6 (7 writes; the
        # partial tail stays buffered).  Sorting with 2 memory pages
        # spills 170-record runs: run 1 persists via writes #8/#9, and
        # run 2's write-behind is #10 — where the one-write fault window
        # sits, so the sort dies mid-run-formation with one run fully on
        # the backend.  Writes #11+ succeed again, so the closing flush
        # and the retried sort exercise the healthy path.
        config = StorageConfig(
            buffer_pages=16,
            fault_plan=FaultPlan(
                schedule=(
                    ScheduledFault(op="write", kind="permanent", first=10, last=10),
                )
            ),
        )
        with StorageManager(config) as manager:
            handle = self.fill(manager)
            assert manager.backend.log.calls["write"] == 7  # pin the layout
            sorter = ExternalSorter(manager, memory_pages=2)
            with pytest.raises(FaultIOError):
                sorter.sort(handle, "sorted", key="eid")
            assert self.run_names(manager) == []
            assert "input" in manager.list_files()
            # The storage is still usable: the same input sorts fine now.
            result = sorter.sort(handle, "sorted", key="eid")
            assert list(result.output.scan()) == sorted(handle.scan())
            assert self.run_names(manager) == []

    def test_successful_sort_leaves_no_runs(self):
        from repro.sorting.external_sort import ExternalSorter

        with StorageManager(StorageConfig(buffer_pages=16)) as manager:
            handle = self.fill(manager, records=400)
            sorter = ExternalSorter(manager, memory_pages=2)
            sorter.sort(handle, "sorted", key="eid")
            assert self.run_names(manager) == []
            assert "sorted" in manager.list_files()


class TestShardFailure:
    def test_wire_shape(self):
        # The service's declared-partial reply puts this dict on the wire.
        failure = ShardFailure(
            shard_id="service", kind="breaker", error_type="CircuitOpen",
            message="open", attempts=0,
        )
        assert failure.to_dict() == {
            "shard_id": "service", "kind": "breaker", "error_type": "CircuitOpen",
            "message": "open", "attempts": 0,
        }
        assert list(failure.to_dict()) == [
            "shard_id", "kind", "error_type", "message", "attempts",
        ]
