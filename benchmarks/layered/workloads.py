"""The four workloads: what each drives, times and checks.

Every driver has a ``timed`` pass (untraced; the end-to-end metrics of
``BENCHMARK.json``) and a ``traced`` pass (a short untraced slice, then
a fixed-count slice under :mod:`benchmarks.layered.tracing`; the
per-layer metrics).  Correctness checks run outside every timed slice
and count wrong answers as failed ops.
"""

from __future__ import annotations

import statistics
import time
from typing import Any

import numpy as np

from benchmarks.layered import inputs, spec
from benchmarks.layered.harness import (
    FSYNC_MS,
    Run,
    Tamper,
    WorkerProcess,
    cpu_at_reference,
    cpu_raw,
    layer_values,
    ops_of,
    paced,
    percentile,
)


def _flat(replies: list[dict], key: str) -> list[float]:
    return [value for reply in replies for value in reply[key]]


def _median_cpu_ms(replies: list[dict]) -> float:
    return statistics.median(r["cpu_s"] for r in replies) * 1000


def _bench_values(
    run: Run, plain: list[dict], traced: list[dict], cpu_ms: Any = cpu_raw
) -> float:
    """The ``bench.*`` metrics every traced pass reports; returns the
    untraced slice's CPU ms per op as measured (``cpu_ms`` says how a
    slice is summed up: its mean by default, batch joins their median)."""
    raw = cpu_ms(plain)
    run.values["bench.op_cpu_raw_ms"] = raw
    run.values["bench.calib_ms"] = statistics.median(r["calib_ms"] for r in plain + traced)
    run.values["bench.trace_overhead_ratio"] = cpu_ms(traced) / raw
    return raw


# -- batch_ledger / batch_memory -----------------------------------------------------


class BatchDriver:
    """One ``spatial_join`` per op, in ledger or memory mode."""

    def reps(self, run: Run, worker: WorkerProcess, count: int | None) -> list[dict]:
        def step(_: int) -> dict:
            return {**worker.call("op"), "ops": 1}

        replies = paced(run, worker, count, step, at_least=run.sizes.min_reps)
        run.attempted += len(replies)
        return replies

    def timed(self, run: Run) -> None:
        worker = run.start_measured()
        try:
            replies = self.reps(run, worker, None)
            pairs = worker.call("pairs")["pairs"]
        finally:
            worker.close()
        # Batch ops are few and long: the median over the reps, each
        # scaled by the calibrations on either side of it.  A join is
        # long enough to take its share of every other process's turns
        # on the core, so its wall time is scaled by the kernel's wall
        # time, which takes the same share (the median of a thousand
        # millisecond-long service ops leaves those turns out by itself).
        run.values["op_cpu_ms"] = run.ref_ms * statistics.median(
            r["cpu_s"] * 1000 / r["calib_ms"] for r in replies
        )
        run.values["op_p50_ms"] = run.ref_ms * statistics.median(
            r["wall_s"] * 1000 / r["calib_wall_ms"] for r in replies
        )
        run.detail.update(
            reps=len(replies),
            pairs=replies[0]["pairs"],
            op_cpu_raw_ms=_median_cpu_ms(replies),
            op_wall_raw_ms=statistics.median(r["wall_s"] for r in replies) * 1000,
            calib_ms=statistics.median(r["calib_ms"] for r in replies),
        )
        self.check(run, replies, pairs)

    def check(self, run: Run, replies: list[dict], pairs: list) -> None:
        """Same digest on every rep; the last rep's pairs against the
        brute-force oracle on a sample of the left side."""
        first = replies[0]["digest"]
        drifted = sum(1 for r in replies if r["digest"] != first)
        if drifted:
            run.fail(drifted, f"{drifted} joins returned a different pair set")
        problem = check_pairs(run, run.tampered("pairs", pairs))
        if problem:
            run.fail(len(replies) - drifted, problem)

    def traced(self, run: Run) -> None:
        sizes, name = run.sizes, run.workload
        worker, _ = run.start()
        try:
            plain = self.reps(run, worker, sizes.untraced_ops[name])
            worker.call("trace_on")
            traced = self.reps(run, worker, sizes.traced_ops[name])
            dump = worker.call("trace_off")
            pairs = worker.call("pairs")["pairs"]
            sides = {}
            if name == "batch_ledger":
                sides = {a: worker.call("side", algorithm=a) for a in ("pbsm", "shj")}
                run.values["storage.iostats.charge_ns"] = worker.call("probe")["charge_ns"]
        finally:
            worker.close()
        run.traces[name] = dump
        values = run.values
        values.update(layer_values(dump, len(traced)))
        raw = _bench_values(run, plain, traced, cpu_ms=_median_cpu_ms)
        values["join.api.wall_ms"] = statistics.median(r["wall_s"] for r in plain) * 1000
        last = plain[-1]
        if name == "batch_ledger":
            values["sweep.compares_per_pair"] = last["join_compares"] / max(1, last["pairs"])
            values["storage.buffer.hit_ratio"] = last["buffer_hits"] / max(
                1, last["buffer_hits"] + last["page_reads"]
            )
            values["ledger.sim_response_s"] = last["sim_response_s"]
            values["ledger.rand_ios"] = last["rand_ios"]
            values["ledger.seq_ios"] = last["sim_ios"] - last["rand_ios"]
            values["ledger.sim_ios_per_op"] = last["sim_ios"]
            for algorithm, reply in sides.items():
                values[f"baselines.{algorithm}_cpu_ms"] = reply["cpu_s"] * 1000
                values[f"baselines.{algorithm}_sim_ios"] = reply["sim_ios"]
                if reply["digest"] != last["digest"]:
                    run.fail(1, f"{algorithm} and s3j disagree on the pair set")
            run.attempted += len(sides)
        else:
            values["fastpath.join.cell_groups"] = last["cell_groups"]
            values["fastpath.join.pairs_per_cpu_s"] = last["pairs"] / (raw / 1000)
        self.check(run, plain + traced, pairs)


def check_pairs(run: Run, pairs: list) -> str | None:
    """Compare a join's pairs with the brute-force oracle on a fixed-size
    sample of the left side (the full oracle is quadratic in memory)."""
    from repro.join.dataset import SpatialDataset
    from repro.verify.oracle import oracle_pairs

    make = (
        inputs.batch_ledger_inputs
        if run.workload == "batch_ledger"
        else inputs.batch_memory_inputs
    )
    a, b = make(run.seed, run.sizes)
    entities = list(a)
    step = max(1, len(entities) // run.sizes.oracle_sample)
    sample = SpatialDataset("sample", entities[::step])
    sampled = {entity.eid for entity in sample}
    expected = oracle_pairs(sample, b)
    got = {(x, y) for x, y in pairs if x in sampled}
    if got != expected:
        return (
            f"pairs differ from the oracle on {len(sampled)} sampled entities: "
            f"{len(got - expected)} extra, {len(expected - got)} missing"
        )
    return None


# -- service_read ----------------------------------------------------------------------


class ReadDriver:
    """Point/window queries over one JSON-lines TCP connection."""

    def slice(self, run: Run, worker: WorkerProcess, count: int | None) -> list[dict]:
        """Chunks of back-to-back requests from the worker's own
        closed-loop client."""

        def step(want: int) -> dict:
            chunk = worker.call("op", n=want)
            chunk["ops"] = len(chunk["latencies"])
            run.attempted += chunk["ops"]
            run.samples += chunk["samples"]
            if chunk["errors"]:
                run.fail(len(chunk["errors"]), f"requests refused: {chunk['errors'][:3]}")
            return chunk

        return paced(run, worker, count, step, size=run.sizes.request_chunk)

    def timed(self, run: Run) -> None:
        worker = run.start_measured()
        try:
            chunks = self.slice(run, worker, None)
        finally:
            worker.close()
        run.values["op_cpu_ms"] = cpu_at_reference(run, chunks)
        run.values["op_p50_ms"] = run.ref_ms * statistics.median(
            ms / c["calib_ms"] for c in chunks for ms in c["latencies"]
        )
        run.detail.update(
            requests=ops_of(chunks),
            op_cpu_raw_ms=cpu_raw(chunks),
            op_wall_raw_ms=statistics.median(_flat(chunks, "latencies")),
            calib_ms=statistics.median(c["calib_ms"] for c in chunks),
        )
        self.check(run)

    def check(self, run: Run) -> None:
        """Every sampled reply against a brute-force scan of the
        generated entities."""
        entities = inputs.service_entities(run.seed, run.sizes.read_entities)
        eids = np.array([e.eid for e in entities])
        boxes = np.array([(e.mbr.xlo, e.mbr.ylo, e.mbr.xhi, e.mbr.yhi) for e in entities])
        for request, reply in run.samples:
            reply = run.tampered("reply", reply)
            if request["op"] == "point":
                xlo = xhi = request["x"]
                ylo = yhi = request["y"]
            else:
                xlo, ylo, xhi, yhi = (request[k] for k in ("xlo", "ylo", "xhi", "yhi"))
            inside = (boxes[:, 0] <= xhi) & (xlo <= boxes[:, 2])
            inside &= (boxes[:, 1] <= yhi) & (ylo <= boxes[:, 3])
            if sorted(eids[inside].tolist()) != reply["eids"]:
                run.fail(1, f"request {request}: reply differs from the brute-force scan")

    def traced(self, run: Run) -> None:
        sizes, name = run.sizes, run.workload
        worker, _ = run.start()
        try:
            plain = self.slice(run, worker, sizes.untraced_ops[name])
            worker.call("trace_on")
            traced = self.slice(run, worker, sizes.traced_ops[name])
            dump = worker.call("trace_off")
        finally:
            worker.close()
        run.traces[name] = dump
        values = run.values
        ops = ops_of(traced)
        values.update(layer_values(dump, ops))
        _bench_values(run, plain, traced)
        plain_ms = _flat(plain, "latencies")
        values["service.server.p95_ms"] = percentile(plain_ms, 95)
        values["service.server.p99_ms"] = percentile(plain_ms, 99)
        values["service.server.ops_per_s"] = ops_of(plain) / sum(c["wall_s"] for c in plain)
        # One root span per request, in request order.
        seen_ms = _flat(traced, "latencies")
        inside_ms = [ns / 1e6 for ns in dump["root_ns"]]
        if len(inside_ms) == len(seen_ms):
            values["service.server.rpc_ms"] = statistics.median(
                seen - inside for seen, inside in zip(seen_ms, inside_ms)
            )
        else:
            run.fail(1, f"{len(inside_ms)} service spans for {len(seen_ms)} requests")
        first, last = traced[0]["before"], traced[-1]["after"]

        def grew(key: str) -> int:
            return last[key] - first[key]

        lookups = grew("cache_hits") + grew("cache_misses")
        values["service.api.cache_hit_ratio"] = grew("cache_hits") / max(1, lookups)
        touched = grew("buffer_hits") + grew("page_reads")
        values["storage.buffer.hit_ratio"] = grew("buffer_hits") / max(1, touched)
        values["ledger.sim_ios_per_op"] = (grew("page_reads") + grew("page_writes")) / ops
        returned = sum(c["returned"] for c in traced)
        scanned = dump["counters"]["index.records_scanned"]
        values["service.index.records_scanned_per_hit"] = scanned / max(1, returned)
        self.check(run)


# -- service_write_durable ---------------------------------------------------------------


class WriteDriver:
    """Inserts and deletes against a durable index, through the API."""

    def slice(
        self, run: Run, worker: WorkerProcess, count: int | None, joins: bool = True
    ) -> tuple[list[dict], list[dict]]:
        """Chunks of mutations, and a resident self-join every
        ``selfjoin_every`` of them (kept out of the chunks' clocks)."""
        every = run.sizes.selfjoin_every
        selfjoins: list[dict] = []

        def step(want: int) -> dict:
            chunk = worker.call("op", n=want)
            chunk["ops"] = len(chunk["acks_ms"])
            run.attempted += chunk["ops"]
            if chunk["errors"]:
                run.fail(len(chunk["errors"]), f"mutations refused: {chunk['errors'][:3]}")
            return chunk

        def between(before: int, after: int) -> bool:
            if not joins or after // every == before // every:
                return False
            selfjoins.append(self.selfjoin(run, worker))
            return True

        chunks = paced(
            run, worker, count, step, size=run.sizes.mutation_chunk, between=between
        )
        return chunks, selfjoins

    def selfjoin(self, run: Run, worker: WorkerProcess) -> dict:
        reply = worker.call("join")
        run.attempted += 1
        if reply["status"] != "ok" or reply["cached"]:
            run.fail(1, f"self-join answered {reply['status']} (cached={reply['cached']})")
        return reply

    def timed(self, run: Run) -> None:
        worker = run.start_measured()
        try:
            chunks, selfjoins = self.slice(run, worker, None)
            stats = worker.call("stats")
        finally:
            worker.kill()
        ops = ops_of(chunks)
        run.values["op_cpu_ms"] = cpu_at_reference(run, chunks)
        run.values["op_p50_ms"] = statistics.median(
            run.ref_ms * ms / c["calib_ms"] + FSYNC_MS * flushes
            for c in chunks
            for ms, flushes in zip(c["acks_ms"], c["acks_fsyncs"])
        )
        run.detail.update(
            mutations=ops,
            selfjoins=len(selfjoins),
            compactions=sum(c["compactions"] for c in chunks),
            op_cpu_raw_ms=cpu_raw(chunks),
            op_wall_raw_ms=statistics.median(_flat(chunks, "acks_ms")),
            fsyncs_per_op=sum(c["fsyncs"] for c in chunks) / ops,
            written_kb_per_op=sum(c["written_bytes"] for c in chunks) / 1024 / ops,
            calib_ms=statistics.median(c["calib_ms"] for c in chunks),
        )
        self.reopen(run, worker, stats["acked"])

    def reopen(self, run: Run, worker: WorkerProcess, acked: int) -> None:
        """After the SIGKILL: reopen the data directory in this process
        and hold it to the acked prefix of the mutation stream."""
        from repro.join.api import spatial_join
        from repro.service.index import PersistentIndex

        def boxes(entities: Any) -> dict[int, tuple]:
            return {e.eid: (e.mbr.xlo, e.mbr.ylo, e.mbr.xhi, e.mbr.yhi) for e in entities}

        count = run.sizes.write_entities
        expected = boxes(inputs.service_entities(run.seed, count))
        mutations = inputs.mutation_stream(run.seed, count)
        for _ in range(acked):
            mutation = next(mutations)
            if mutation[0] == "insert":
                expected[mutation[1]] = tuple(mutation[2:])
            else:
                del expected[mutation[1]]
        assert worker.data_dir is not None
        start = time.perf_counter()
        index = PersistentIndex.open(str(worker.data_dir))
        run.detail["reopen_ms"] = (time.perf_counter() - start) * 1000
        try:
            recovery = index._backend().last_recovery
            run.detail["replayed_records"] = recovery.replayed_records if recovery else 0
            live = run.tampered("live", boxes(index.live_entities()))
            wrong = sum(
                1 for eid in live.keys() | expected.keys() if live.get(eid) != expected.get(eid)
            )
            if wrong:
                run.fail(wrong, f"{wrong} entities differ from the acked prefix after reopen")
            snapshot = index.snapshot_dataset()
            cold = spatial_join(snapshot, snapshot, algorithm="s3j", mode="memory")
            run.attempted += 1
            if index.self_join() != cold.pairs:
                run.fail(1, "self_join() after reopen differs from a cold spatial_join")
        finally:
            index.close()

    def traced(self, run: Run) -> None:
        sizes, name = run.sizes, run.workload
        worker, _ = run.start()
        try:
            plain, selfjoins = self.slice(run, worker, sizes.untraced_ops[name])
            worker.call("trace_on")
            traced, _ = self.slice(run, worker, sizes.traced_ops[name], joins=False)
            dump = worker.call("trace_off")
            # The self-join gets a trace of its own, so that the layer
            # times above are per mutation, compactions included.
            worker.call("trace_on")
            self.selfjoin(run, worker)
            join_dump = worker.call("trace_off")
            probe = worker.call("probe")
            stats = worker.call("stats")
        finally:
            worker.kill()
        run.traces[name] = dump
        run.traces[name + ".selfjoin"] = join_dump
        values = run.values
        ops = ops_of(traced)
        values.update(layer_values(dump, ops))
        _bench_values(run, plain, traced)
        plain_ms = _flat(plain, "acks_ms")
        values["service.index.persist_kb"] = dump["counters"].get("persist.bytes", 0) / 1024 / ops
        values["service.index.compactions"] = 1000 * sum(c["compactions"] for c in traced) / ops
        values["service.index.ack_p95_ms"] = percentile(plain_ms, 95)
        values["service.index.ack_p99_ms"] = percentile(plain_ms, 99)
        values["service.index.mutations_per_s"] = ops_of(plain) / sum(c["wall_s"] for c in plain)
        values["service.scan.selfjoin_ms"] = statistics.median(join_dump["root_ns"]) / 1e6
        if selfjoins:
            values["service.scan.selfjoin_cpu_ms"] = (
                statistics.median(j["cpu_s"] for j in selfjoins) * 1000
            )
        checkpoints = dump["spans"].get("storage.durable.checkpoint", {"calls": 0})["calls"]
        values["storage.durable.checkpoints"] = 1000 * checkpoints / ops
        values["os.fsync.per_op"] = sum(c["fsyncs"] for c in traced) / ops
        values["os.write.kb_per_op"] = sum(c["written_bytes"] for c in traced) / 1024 / ops
        values["os.fsync.disk_ms"] = probe["disk_fsync_ms"]
        values["storage.durable.space_amp"] = probe["stored_bytes"] / (48 * probe["live"])
        self.reopen(run, worker, stats["acked"])
        values["storage.durable.reopen_ms"] = run.detail["reopen_ms"]
        values["storage.durable.replayed_records"] = run.detail["replayed_records"]
        values["storage.durable.overhead_ratio"] = self.overhead_ratio(run)

    def overhead_ratio(self, run: Run) -> float:
        """CPU of one small S3J ledger join on the durable backend over
        the same join on the memory backend, in this process."""
        from repro.datagen import uniform_squares_by_coverage
        from repro.experiments.runner import run_algorithm

        n = run.sizes.overhead_entities
        a = uniform_squares_by_coverage(n, 0.4, seed=run.seed, name="UN1")
        b = uniform_squares_by_coverage(n, 0.9, seed=run.seed + 1, name="UN2")
        cpu: dict[str, float] = {}
        for backend in ("memory", "durable"):
            data_dir = str(run.scratch()) if backend == "durable" else None
            start = time.process_time()
            run_algorithm(a, b, "s3j", scale=1.0, backend=backend, data_dir=data_dir)
            cpu[backend] = time.process_time() - start
        return cpu["durable"] / cpu["memory"]


DRIVERS: dict[str, Any] = {
    "batch_ledger": BatchDriver(),
    "batch_memory": BatchDriver(),
    "service_read": ReadDriver(),
    "service_write_durable": WriteDriver(),
}


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "full",
    tamper: Tamper | None = None,
) -> Run:
    """Run one workload once; the caller reads ``values`` (metric name ->
    value), ``attempted``/``failed`` and ``problems`` off the result."""
    if workload not in spec.WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {list(spec.WORKLOADS)}")
    run = Run(workload, seed, seconds, size, tamper)
    try:
        if trace:
            run.values = {layer.name: 0.0 for layer in spec.LAYERS}
            DRIVERS[workload].traced(run)
        else:
            DRIVERS[workload].timed(run)
    finally:
        run.cleanup()
    return run
