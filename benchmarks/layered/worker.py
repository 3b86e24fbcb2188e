"""The worker process: hosts the system under test for one workload.

The harness starts one fresh worker per set-up and talks to it in JSON
lines over stdin/stdout.  The worker runs each chunk of ops the harness
asks for in one go, reports their CPU time and caller-seen latencies,
its memory and the program's counters, and is silent otherwise.

Commands (``{"cmd": ...}``), each answered with one JSON line:

``op``         batch: run one join; read: ``{"n": k}`` next k requests;
               durable: ``{"n": k}`` next k mutations
``join``       durable: one resident self-join
``pairs``      batch: the last join's sorted pair list
``side``       batch: one side-run of a baseline algorithm on the same inputs
``stats``      CPU seconds, peak RSS and the program's own counters
``calib``      run the reference kernel once; its CPU milliseconds
``trace_on``   install the timing wrappers (:mod:`benchmarks.layered.tracing`)
``trace_off``  remove them and return the spans and totals
``probe``      durable: micro-measurements that need the worker's process
``exit``       leave the command loop
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import random
import sys
import time
from typing import Any, Iterator

from benchmarks.layered import inputs
from benchmarks.layered.tracing import Tracer

KEEP_OPS = {
    "batch_ledger": 1,
    "batch_memory": 1,
    "service_read": 20,
    "service_write_durable": 50,
}


_CALIB_RNG = random.Random(0)
_CALIB_POINTS = [
    (_CALIB_RNG.random() * 0.97, _CALIB_RNG.random() * 0.97) for _ in range(2000)
]


def calibrate(io_dir: str | None = None) -> tuple[float, float]:
    """CPU and wall milliseconds of the reference kernel.

    A frozen miniature of what the program spends its time on — build
    record tuples, sort them on a key, plane-sweep them with float
    compares, count in a dict, add pairs to a set — because how hard a
    busy neighbour hits a piece of code depends on what the code does:
    measured side by side with the real ops, this mix tracked them
    within 2-5% while the box's speed moved by 2x, an allocation loop
    within 2-13%, and a NumPy sort only within 12-20%.  The collector
    is off so that the kernel does not also see the size of the
    worker's heap.

    With ``io_dir`` (the durable workload) the kernel also asks of the
    filesystem what acks ask of it, :data:`IO_CYCLES` times: a fifth of
    a durable ack's CPU is the kernel's side of rewriting the snapshot
    file, whose price moves with the state of the checkout's filesystem
    and not with the speed of the core.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        cpu0, wall0 = time.process_time(), time.perf_counter()
        records = [
            (i, x, y, x + 0.03, y + 0.03, i * 7) for i, (x, y) in enumerate(_CALIB_POINTS)
        ]
        records.sort(key=lambda record: record[1])
        pairs: set[tuple[int, int]] = set()
        counts: dict[str, int] = {}
        n = len(records)
        for i, left in enumerate(records):
            x_max = left[3]
            for j in range(i + 1, n):
                right = records[j]
                if right[1] > x_max:
                    break
                counts["test"] = counts.get("test", 0) + 1
                if left[2] <= right[4] and right[2] <= left[4]:
                    pairs.add((left[0], right[0]))
        if io_dir is not None:
            _rewrite_files(io_dir)
        return (
            (time.process_time() - cpu0) * 1000.0,
            (time.perf_counter() - wall0) * 1000.0,
        )
    finally:
        if collecting:
            gc.enable()


IO_CYCLES = 50
_IO_BLOCK = b"x" * 7168


def _rewrite_files(io_dir: str) -> None:
    """A miniature of the per-ack snapshot rewrite: a 7 KiB temp file
    written and renamed over the last one, not flushed."""
    temp, final = os.path.join(io_dir, "kernel.tmp"), os.path.join(io_dir, "kernel.dat")
    for _ in range(IO_CYCLES):
        with open(temp, "wb") as handle:
            handle.write(_IO_BLOCK)
        os.replace(temp, final)


def pair_digest(pairs: Any) -> int:
    """Order-independent digest of a pair set (ints and tuples of ints
    hash identically in every process)."""
    return sum(map(hash, pairs)) & 0xFFFFFFFFFFFFFFFF


def _peak_rss_kb() -> int:
    """This process's own peak resident set (``VmHWM``).  Not
    ``ru_maxrss``: on Linux that starts from the parent's resident set
    at spawn time, so it would report the harness, not the worker."""
    with open("/proc/self/status", "rb") as handle:
        for line in handle:
            if line.startswith(b"VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/status has no VmHWM line")


def _written_bytes() -> int:
    """Bytes this process has passed to write syscalls so far."""
    with open("/proc/self/io", "rb") as handle:
        for line in handle:
            if line.startswith(b"wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


class Worker:
    """Command loop shared by the four workloads."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.data_dir: str | None = args.data_dir
        # The kernel's files live beside the data directory, on its
        # filesystem and out of the index's sight.
        self.io_dir: str | None = None
        if self.data_dir is not None:
            self.io_dir = self.data_dir + ".kernel"
            os.mkdir(self.io_dir)
        # Calibrate before building anything: with the harness's
        # calibration after the warm-up it brackets the set-up.
        self.start_calib_ms, _ = calibrate(self.io_dir)
        self.workload: str = args.workload
        self.seed: int = args.seed
        self.sizes = inputs.SIZES[args.size]
        self.tracer: Tracer | None = None
        self.loop = asyncio.new_event_loop()

    # -- replies ---------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        return {
            "cpu_s": time.process_time(),
            "peak_rss_kb": _peak_rss_kb(),
        }

    def handle(self, msg: dict[str, Any]) -> dict[str, Any]:
        cmd = msg["cmd"]
        if cmd == "stats":
            return self.stats()
        if cmd == "calib":
            cpu_ms, wall_ms = calibrate(self.io_dir)
            return {"ms": cpu_ms, "wall_ms": wall_ms}
        if cmd == "trace_on":
            self.tracer = Tracer(keep_ops=KEEP_OPS[self.workload])
            self.tracer.install()
            return {"ok": True}
        if cmd == "trace_off":
            assert self.tracer is not None
            self.tracer.uninstall()
            dump, self.tracer = self.tracer.dump(), None
            return dump
        return getattr(self, "cmd_" + cmd)(msg)

    def say(self, reply: dict[str, Any]) -> None:
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()

    def answer(self, line: str) -> bool:
        """Answer one command line; False on ``exit`` or end of input."""
        if not line:
            return False
        msg = json.loads(line)
        if msg["cmd"] == "exit":
            return False
        self.say(self.handle(msg))
        return True

    def serve(self) -> None:
        """Announce readiness — with the CPU seconds this process has
        used since it was started, imports and warm-up included — then
        answer commands until ``exit``."""
        self.say(
            {"ready": True, "calib_ms": self.start_calib_ms, "cpu_s": time.process_time()}
        )
        while self.answer(sys.stdin.readline()):
            pass
        self.close()

    def close(self) -> None:
        self.loop.close()


class BatchWorker(Worker):
    """``batch_ledger`` / ``batch_memory``: one ``spatial_join`` per op."""

    def __init__(self, args: argparse.Namespace) -> None:
        super().__init__(args)
        from repro.experiments.runner import run_algorithm

        self.run_algorithm = run_algorithm
        if self.workload == "batch_ledger":
            self.a, self.b = inputs.batch_ledger_inputs(self.seed, self.sizes)
            self.mode = "ledger"
        else:
            self.a, self.b = inputs.batch_memory_inputs(self.seed, self.sizes)
            self.mode = "memory"
        self.last: Any = None
        for _ in range(self.sizes.warmup_joins):
            self.join("s3j")

    def join(self, algorithm: str) -> dict[str, Any]:
        cpu0, wall0 = time.process_time(), time.perf_counter()
        outcome = self.run_algorithm(
            self.a, self.b, algorithm, scale=1.0, mode=self.mode
        )
        cpu_s, wall_s = time.process_time() - cpu0, time.perf_counter() - wall0
        result = outcome.result
        self.last = result
        metrics = result.metrics
        phases = metrics.phases.values()
        join_ops = metrics.phases["join"].cpu_ops if "join" in metrics.phases else {}
        details = metrics.details
        return {
            "cpu_s": cpu_s,
            "wall_s": wall_s,
            "pairs": len(result.pairs),
            "digest": pair_digest(result.pairs),
            "sim_ios": metrics.total_ios,
            "sim_response_s": metrics.response_time,
            "rand_ios": sum(p.random_reads + p.random_writes for p in phases),
            "buffer_hits": sum(p.buffer_hits for p in phases),
            "page_reads": metrics.total_reads,
            "join_compares": join_ops.get("compare", 0) + join_ops.get("mbr_test", 0),
            "cell_groups": details.get("groups_a", 0) + details.get("groups_b", 0),
        }

    def cmd_op(self, msg: dict[str, Any]) -> dict[str, Any]:
        return self.join("s3j")

    def cmd_side(self, msg: dict[str, Any]) -> dict[str, Any]:
        return self.join(msg["algorithm"])

    def cmd_pairs(self, msg: dict[str, Any]) -> dict[str, Any]:
        return {"pairs": sorted(self.last.pairs)}

    def cmd_probe(self, msg: dict[str, Any]) -> dict[str, Any]:
        """Direct timing of ``IOStats.charge_cpu`` with one phase open,
        as the join calls it; calls x ns is the accounting share."""
        from repro.storage.iostats import IOStats

        stats = IOStats()
        calls = self.sizes.charge_calls
        with stats.phase("join"):
            charge = stats.charge_cpu
            start = time.perf_counter_ns()
            for _ in range(calls):
                charge("mbr_test")
            elapsed = time.perf_counter_ns() - start
        return {"charge_ns": elapsed / calls}


class ReadWorker(Worker):
    """``service_read``: a ``ServiceServer`` on an ephemeral port and its
    one closed-loop client, both on this process's event loop.

    The client is here, not in the harness, so that the load comes from
    a single process that stays busy for a whole chunk, as in the other
    three workloads: with the client across a process boundary every
    request was two wake-ups of an idle vCPU, and each 6 ms of work
    started on whatever the box's other tenants had left of the caches.
    The requests still cross a real TCP connection, and the latency is
    still request written -> reply parsed.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        super().__init__(args)
        from repro.service import JoinService, PersistentIndex, ServiceServer
        from repro.storage.manager import StorageConfig

        entities = inputs.service_entities(self.seed, self.sizes.read_entities)
        self.index = PersistentIndex(
            entities, storage=StorageConfig(buffer_pages=self.sizes.read_buffer_pages)
        )
        self.service = JoinService(self.index)
        self.server = ServiceServer(self.service)
        address = self.loop.run_until_complete(self.server.start())
        self.reader, self.writer = self.loop.run_until_complete(
            asyncio.open_connection(*address)
        )
        self.requests: Iterator[dict] = inputs.request_stream(self.seed)
        self.sent = 0
        self.cmd_op({"n": self.sizes.warmup_requests})

    def stats(self) -> dict[str, Any]:
        cache = self.service.cache
        ledger = self.index.storage.stats.total
        return {
            **super().stats(),
            "page_reads": ledger.page_reads,
            "page_writes": ledger.page_writes,
            "buffer_hits": ledger.buffer_hits,
            "cache_hits": cache.hits,
            "cache_misses": cache.misses,
        }

    def cmd_op(self, msg: dict[str, Any]) -> dict[str, Any]:
        return self.loop.run_until_complete(self._request(msg["n"]))

    async def _request(self, count: int) -> dict[str, Any]:
        """``count`` requests back to back.  Every ``check_every``-th
        (request, reply) pair goes back to the harness, which checks it
        against a brute-force scan outside the timed slice."""
        reader, writer = self.reader, self.writer
        every = self.sizes.check_every
        clock = time.perf_counter_ns
        latencies: list[float] = []
        samples: list[tuple[dict, dict]] = []
        errors: list[str] = []
        returned = 0  # ids in the replies that reached the index
        before = self.stats()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        for _ in range(count):
            request = next(self.requests)
            start = clock()
            writer.write(json.dumps(request).encode() + b"\n")
            reply = json.loads(await reader.readline())
            latencies.append((clock() - start) / 1e6)
            self.sent += 1
            if reply.get("status") != "ok":
                errors.append(f"{request}: {reply}")
                continue
            if not reply.get("cached"):
                returned += len(reply["eids"])
            if self.sent % every == 0:
                samples.append((request, reply))
        cpu_s, wall_s = time.process_time() - cpu0, time.perf_counter() - wall0
        return {
            "cpu_s": cpu_s,
            "wall_s": wall_s,
            "latencies": latencies,
            "samples": samples,
            "errors": errors,
            "returned": returned,
            "before": before,
            "after": self.stats(),
        }

    def close(self) -> None:
        self.writer.close()
        self.loop.run_until_complete(self.writer.wait_closed())
        self.loop.run_until_complete(self.server.stop())
        self.index.close()
        super().close()


class WriteWorker(Worker):
    """``service_write_durable``: mutations through the Python API of a
    ``JoinService`` over a durable ``PersistentIndex``.

    The background compactor is not started; the driver compacts
    whenever ``needs_compaction`` turns true after an ack, so every
    count repeats exactly.

    **Flushes are counted, not performed.**  The data directory has to
    live inside the checkout, on the sandbox's shared disk, where one
    ``fsync`` costs 0.6-2.6 ms from one minute to the next and drags the
    CPU and wall time of every other syscall with it (2x between runs).
    The worker therefore replaces ``os.fsync`` with a counter: the time
    metrics measure the program, the harness prices each flush at a
    fixed nominal cost, and the ``probe`` command says what one really
    costs on this device.  (A SIGKILL leaves the OS cache intact, so
    the reopen check holds either way; power-loss durability is what
    ``repro verify --crash`` tests.)
    """

    def __init__(self, args: argparse.Namespace) -> None:
        super().__init__(args)
        from repro.service import JoinService, PersistentIndex

        assert self.data_dir is not None
        self.fsyncs = 0
        self.real_fsync = os.fsync

        def counted_fsync(fd: Any) -> None:
            self.fsyncs += 1

        os.fsync = counted_fsync
        entities = inputs.service_entities(self.seed, self.sizes.write_entities)
        self.index = PersistentIndex(entities, data_dir=self.data_dir)
        self.service = JoinService(self.index)
        self.mutations: Iterator[tuple] = inputs.mutation_stream(
            self.seed, self.sizes.write_entities
        )
        self.acked = 0
        self.cmd_op({"n": self.sizes.warmup_mutations})

    def stats(self) -> dict[str, Any]:
        return {**super().stats(), "acked": self.acked, "live": len(self.index)}

    def cmd_op(self, msg: dict[str, Any]) -> dict[str, Any]:
        return self.loop.run_until_complete(self._mutate(msg["n"]))

    async def _mutate(self, count: int) -> dict[str, Any]:
        service, index = self.service, self.index
        clock = time.process_time_ns
        acks_ms: list[float] = []  # CPU ms, previous ack -> this ack
        acks_fsyncs: list[int] = []  # flushes in that interval
        compactions = 0
        errors: list[str] = []
        written0, fsyncs0 = _written_bytes(), self.fsyncs
        cpu0, wall0 = time.process_time(), time.perf_counter()
        last, last_fsyncs = clock(), self.fsyncs
        for _ in range(count):
            mutation = next(self.mutations)
            try:
                if mutation[0] == "insert":
                    await service.insert(inputs.entity_of(mutation))
                else:
                    await service.delete(mutation[1])
            except (KeyError, ValueError) as error:
                errors.append(f"{mutation[:2]}: {error}")
            now = clock()
            acks_ms.append((now - last) / 1e6)
            acks_fsyncs.append(self.fsyncs - last_fsyncs)
            last, last_fsyncs = now, self.fsyncs
            self.acked += 1
            # A compaction delays the next ack, which is where a caller
            # in a closed loop sees it.
            if index.needs_compaction:
                await service.compact()
                compactions += 1
        return {
            "cpu_s": time.process_time() - cpu0,
            "wall_s": time.perf_counter() - wall0,
            "acks_ms": acks_ms,
            "acks_fsyncs": acks_fsyncs,
            "fsyncs": self.fsyncs - fsyncs0,
            "written_bytes": _written_bytes() - written0,
            "compactions": compactions,
            "errors": errors,
            "acked": self.acked,
        }

    def cmd_join(self, msg: dict[str, Any]) -> dict[str, Any]:
        cpu0, wall0 = time.process_time(), time.perf_counter()
        outcome = self.loop.run_until_complete(self.service.join())
        return {
            "cpu_s": time.process_time() - cpu0,
            "wall_s": time.perf_counter() - wall0,
            "status": outcome.status,
            "cached": outcome.cached,
            "pairs": len(outcome.pairs or ()),
            "digest": pair_digest(outcome.pairs or ()),
        }

    def cmd_probe(self, msg: dict[str, Any]) -> dict[str, Any]:
        """What the data directory costs: its size per live entity, and
        the price of one small write plus a real fsync on its filesystem."""
        assert self.data_dir is not None
        stored = sum(
            os.path.getsize(os.path.join(self.data_dir, name))
            for name in os.listdir(self.data_dir)
        )
        probe = os.path.join(self.data_dir, "fsync-probe.tmp")
        block = b"\0" * 4096
        samples = []
        fd = os.open(probe, os.O_WRONLY | os.O_CREAT, 0o600)
        try:
            for _ in range(self.sizes.disk_fsyncs):
                start = time.perf_counter_ns()
                os.pwrite(fd, block, 0)
                self.real_fsync(fd)
                samples.append((time.perf_counter_ns() - start) / 1e6)
        finally:
            os.close(fd)
            os.unlink(probe)
        samples.sort()
        return {
            "stored_bytes": stored,
            "live": len(self.index),
            "disk_fsync_ms": samples[len(samples) // 2],
        }


WORKERS = {
    "batch_ledger": BatchWorker,
    "batch_memory": BatchWorker,
    "service_read": ReadWorker,
    "service_write_durable": WriteWorker,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(inputs.SIZES), default="full")
    parser.add_argument("--data-dir")
    args = parser.parse_args(argv)
    WORKERS[args.workload](args).serve()
    return 0


if __name__ == "__main__":
    sys.exit(main())
