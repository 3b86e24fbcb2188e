"""Names, units and meaning of every metric, and the layer -> end-to-end map.

``BENCHMARK.json`` at the repository root is what the driver reads; it
can hold only name/unit/better (and a bound for end-to-end metrics).
This module holds the rest: how each per-layer number is computed from
the spans, which end-to-end metric it should move and on which
workloads — written down before measuring, so that a later change can
be checked against the prediction.  ``test_layered.py`` keeps the two
files in step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

SCHEMA_VERSION = 1

WORKLOADS: dict[str, str] = {
    "batch_ledger": (
        "S3J on the paper's cost model (UN1 x UN2, buffer = 10% of input): the paged "
        "stack does all the work, fastpath/service/durable none"
    ),
    "batch_memory": (
        "memory-mode S3J on clustered skinny road segments (LB x MG at the paper's "
        "size): fastpath/curves/filtertree do all the work, storage none"
    ),
    "service_read": (
        "closed loop of point/window queries over one JSON-lines TCP connection, a "
        "quarter from a hot set: index scan, result cache and RPC, no durability"
    ),
    "service_write_durable": (
        "insert/delete mix through the Python API of a durable index, with "
        "compactions and self-joins: WAL, fsync and the per-ack snapshot rewrite"
    ),
}

BATCH = ("batch_ledger", "batch_memory")
ALL = tuple(WORKLOADS)


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    bound: float
    how: str


END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd(
        "setup_s", "s", 0.25,
        "CPU (user+sys) the worker process uses from its start to its first timed op: "
        "imports, input generation, system construction (bulk load / server listening) "
        "and a fixed count of warm-up ops, at reference speed; median of three fresh "
        "workers",
    ),
    EndToEnd(
        "op_cpu_ms", "ms", 0.25,
        "worker CPU (user+sys) per op at reference speed. batch: median over the "
        "timed joins; service: window CPU / completed ops (compaction CPU included, "
        "self-join CPU excluded)",
    ),
    EndToEnd(
        "op_p50_ms", "ms", 0.25,
        "median latency per op as the caller sees it, at reference speed: wall of one "
        "join (against the kernel's wall time); request written -> reply parsed; CPU "
        "from the previous ack to this one plus 1 ms (harness.FSYNC_MS) for each "
        "os.fsync the program called in between",
    ),
    EndToEnd(
        "peak_rss_mb", "MiB", 0.2,
        "the worker's peak resident set (VmHWM) after a fixed amount of timed work "
        "(Sizes.rss_after)",
    ),
)


@dataclass(frozen=True)
class Layer:
    """One per-layer metric.

    ``source`` says how the generic reader gets it from a trace dump:
    ``("self", names)`` self ms per op, ``("calls", names)`` calls per
    op, ``("per_call", names)`` mean ms per call, ``("per_self", names)``
    mean self ms per call, ``("counter", key)`` counter per op; ``None``
    marks a value the workload driver computes itself.  ``moves``/``on`` are the prediction: the end-to-end metric
    this number should move, and the workloads where it can (on every
    other workload it reads 0 or must stay flat).
    """

    name: str
    unit: str
    better: str
    moves: str
    on: tuple[str, ...]
    how: str
    source: tuple | None = None


def _self(*names: str) -> tuple:
    return ("self", names)


def _calls(*names: str) -> tuple:
    return ("calls", names)


PAGED = ("batch_ledger", "service_read", "service_write_durable")
DURABLE = ("service_write_durable",)
READ = ("service_read",)
SERVICE = ("service_read", "service_write_durable")
LEDGER = ("batch_ledger",)
MEMORY = ("batch_memory",)

LAYERS: tuple[Layer, ...] = (
    # -- the benchmark itself ------------------------------------------------
    Layer("bench.unattributed_pct", "%", "lower", "-", ALL,
          "self time of the root spans / their duration: what no wrapped layer below "
          "the entry point accounts for"),
    Layer("bench.trace_overhead_ratio", "ratio", "lower", "-", ALL,
          "CPU per op of the traced slice / CPU per op of the untraced slice before it"),
    Layer("bench.calib_ms", "ms", "lower", "-", ALL,
          "median CPU of the reference kernel in this run (25 ms at reference speed, "
          "32.5 ms with the file rewrites of service_write_durable): how fast the box was"),
    Layer("bench.op_cpu_raw_ms", "ms", "lower", "-", ALL,
          "CPU per op of the untraced slice as measured, not scaled to reference speed"),
    # -- batch join, ledger mode ---------------------------------------------
    Layer("join.api.wall_ms", "ms", "lower", "op_p50_ms", BATCH,
          "median wall of one spatial_join as measured (too noisy to gate: see README)"),
    Layer("join.api.self_ms", "ms", "lower", "op_cpu_ms", BATCH,
          "spatial_join and the algorithm's own loops between the wrapped layers",
          _self("join.api")),
    Layer("join.dataset.stage_ms", "ms", "lower", "op_cpu_ms", LEDGER,
          "SpatialDataset.write_descriptors: staging the inputs as descriptor files",
          _self("join.dataset.stage")),
    Layer("core.partition.self_ms", "ms", "lower", "op_cpu_ms", LEDGER,
          "partition_levels: routing descriptors to level files",
          _self("core.partition")),
    Layer("core.partition.records", "count", "lower", "op_cpu_ms", LEDGER,
          "descriptors partitioned per join", ("counter", "partition.records")),
    Layer("curves.keys_ms", "ms", "lower", "op_cpu_ms", BATCH,
          "HilbertCurve.keys / key_of_normalized", _self("curves.keys")),
    Layer("filtertree.levels_ms", "ms", "lower", "op_cpu_ms", BATCH,
          "LevelAssigner.levels / level", _self("filtertree.levels")),
    Layer("sorting.self_ms", "ms", "lower", "op_cpu_ms", LEDGER,
          "ExternalSorter.sort: run formation and merging", _self("sorting")),
    Layer("sorting.runs", "count", "lower", "op_cpu_ms", LEDGER,
          "initial sorted runs per join", ("counter", "sorting.runs")),
    Layer("sorting.merge_passes", "count", "lower", "op_cpu_ms", LEDGER,
          "merge passes per join", ("counter", "sorting.merge_passes")),
    Layer("core.sync_scan.self_ms", "ms", "lower", "op_cpu_ms", LEDGER,
          "synchronized_scan: the page merge, open-page bookkeeping and per-page x-sort",
          _self("core.sync_scan")),
    Layer("core.sync_scan.pages", "count", "lower", "op_cpu_ms", LEDGER,
          "pages merged per join", ("counter", "sync_scan.pages")),
    Layer("sweep.self_ms", "ms", "lower", "op_cpu_ms", LEDGER,
          "sweep_intersections / sweep_self_intersections, including the consumer's "
          "loop body between yields", _self("sweep")),
    Layer("sweep.calls", "count", "lower", "op_cpu_ms", LEDGER,
          "plane sweeps per op", _calls("sweep")),
    Layer("sweep.compares_per_pair", "ratio", "lower", "op_cpu_ms", LEDGER,
          "join-phase ledger compare + mbr_test ops / result pairs: work per useful outcome"),
    Layer("storage.pagedfile.self_ms", "ms", "lower", "op_cpu_ms", PAGED,
          "PagedFile.append/extend/read_page/flush", _self("storage.pagedfile")),
    Layer("storage.pagedfile.appends", "count", "lower", "op_cpu_ms", PAGED,
          "PagedFile calls per op", _calls("storage.pagedfile")),
    Layer("storage.buffer.self_ms", "ms", "lower", "op_cpu_ms", PAGED,
          "BufferPool.fetch/create/unpin/flush/write_behind/invalidate",
          _self("storage.buffer")),
    Layer("storage.buffer.hit_ratio", "ratio", "higher", "op_cpu_ms", PAGED,
          "ledger buffer hits / (hits + page reads)"),
    Layer("storage.backend.read_ms", "ms", "lower", "op_cpu_ms", PAGED,
          "backend read_page", _self("storage.backend.read")),
    Layer("storage.backend.write_ms", "ms", "lower", "op_cpu_ms", PAGED,
          "memory backend write_page (the durable one is storage.durable.write_page_ms)",
          _self("storage.backend.write")),
    Layer("storage.backend.reads", "count", "lower", "op_cpu_ms", PAGED,
          "backend read_page calls per op", _calls("storage.backend.read")),
    Layer("storage.backend.writes", "count", "lower", "op_cpu_ms", PAGED,
          "backend write_page calls per op",
          _calls("storage.backend.write", "storage.durable.write_page")),
    Layer("storage.iostats.charge_calls", "count", "lower", "op_cpu_ms", PAGED,
          "IOStats.charge_cpu calls per op (counted, never timed per call)",
          ("counter", "iostats.charge_calls")),
    Layer("storage.iostats.charge_ns", "ns", "lower", "op_cpu_ms", LEDGER,
          "direct timing of one IOStats.charge_cpu call; calls x ns = the ledger "
          "accounting share of a join"),
    Layer("ledger.sim_response_s", "s", "lower", "-", LEDGER,
          "the cost model's simulated response time of one join"),
    Layer("ledger.seq_ios", "pages", "lower", "-", LEDGER,
          "sequential simulated page I/Os per join"),
    Layer("ledger.rand_ios", "pages", "lower", "-", LEDGER,
          "random simulated page I/Os per join"),
    Layer("ledger.sim_ios_per_op", "pages", "lower", "-", ("batch_ledger", "service_read"),
          "simulated page I/Os (reads+writes, seq+rand) per op: the paper's own cost "
          "unit; repeats exactly for a seed"),
    Layer("baselines.pbsm_cpu_ms", "ms", "lower", "-", LEDGER,
          "CPU of one PBSM join on the same inputs, as measured"),
    Layer("baselines.pbsm_sim_ios", "pages", "lower", "-", LEDGER,
          "simulated page I/Os of that PBSM join"),
    Layer("baselines.shj_cpu_ms", "ms", "lower", "-", LEDGER,
          "CPU of one spatial hash join on the same inputs, as measured"),
    Layer("baselines.shj_sim_ios", "pages", "lower", "-", LEDGER,
          "simulated page I/Os of that spatial hash join"),
    # -- batch join, memory mode ---------------------------------------------
    Layer("fastpath.columnar.build_ms", "ms", "lower", "op_cpu_ms", MEMORY,
          "ColumnarDataset.from_dataset, without the curve/level kernels beneath it",
          _self("fastpath.columnar.build")),
    Layer("fastpath.join.self_ms", "ms", "lower", "op_cpu_ms", MEMORY,
          "memory_spatial_join: cell grouping and pair assembly", _self("fastpath.join")),
    Layer("fastpath.join.cell_groups", "count", "lower", "op_cpu_ms", MEMORY,
          "cell groups of both sides per join"),
    Layer("fastpath.sweep.self_ms", "ms", "lower", "op_cpu_ms", MEMORY,
          "forward_sweep_pairs", _self("fastpath.sweep")),
    Layer("fastpath.sweep.calls", "count", "lower", "op_cpu_ms", MEMORY,
          "forward sweeps per join", _calls("fastpath.sweep")),
    Layer("fastpath.join.pairs_per_cpu_s", "1/s", "higher", "op_cpu_ms", MEMORY,
          "result pairs per CPU-second of the untraced slice, as measured"),
    # -- service, read path --------------------------------------------------
    Layer("service.server.rpc_ms", "ms", "lower", "op_p50_ms", READ,
          "median of (client-seen latency - the JoinService span): parse, serialise, socket"),
    Layer("service.server.p95_ms", "ms", "lower", "op_p50_ms", READ,
          "95th percentile of client-seen latency, untraced slice, as measured"),
    Layer("service.server.p99_ms", "ms", "lower", "op_p50_ms", READ,
          "99th percentile of client-seen latency, untraced slice, as measured"),
    Layer("service.server.ops_per_s", "1/s", "higher", "op_p50_ms", READ,
          "requests completed per wall second by the one closed-loop client, which shares "
          "the worker's process and core"),
    Layer("service.api.self_ms", "ms", "lower", "op_cpu_ms", SERVICE,
          "JoinService.point/window/insert/delete: lock, admission, result cache",
          _self("service.api")),
    Layer("service.api.cache_hit_ratio", "ratio", "higher", "op_cpu_ms", READ,
          "result-cache hits / lookups over the traced slice"),
    Layer("service.index.window_ms", "ms", "lower", "op_cpu_ms", READ,
          "PersistentIndex.window_query self time per window query that reached the index",
          ("per_self", ("service.index.window",))),
    Layer("service.index.point_ms", "ms", "lower", "op_cpu_ms", READ,
          "the same for point queries (degenerate windows)",
          ("per_self", ("service.index.point",))),
    Layer("service.index.records_scanned_per_hit", "ratio", "lower", "op_cpu_ms", READ,
          "records yielded by level_records / ids returned: rows examined per result"),
    # -- service, durable write path -----------------------------------------
    Layer("service.index.insert_ms", "ms", "lower", "op_cpu_ms", DURABLE,
          "PersistentIndex.insert self time per insert", ("per_self", ("service.index.insert",))),
    Layer("service.index.delete_ms", "ms", "lower", "op_cpu_ms", DURABLE,
          "PersistentIndex.delete self time per delete", ("per_self", ("service.index.delete",))),
    Layer("service.index.persist_ms", "ms", "lower", "op_cpu_ms", DURABLE,
          "atomic_write_json of the snapshot, per ack",
          _self("service.index.persist")),
    Layer("service.index.persist_kb", "KiB", "lower", "op_cpu_ms", DURABLE,
          "snapshot bytes rewritten per ack"),
    Layer("service.index.compact_ms", "ms", "lower", "op_cpu_ms", DURABLE,
          "wall of one JoinService.compact", ("per_call", ("service.api.compact",))),
    Layer("service.index.compactions", "1/kop", "lower", "op_cpu_ms", DURABLE,
          "compactions per 1000 mutations"),
    Layer("service.index.ack_p95_ms", "ms", "lower", "op_p50_ms", DURABLE,
          "95th percentile of ack-to-ack CPU (flushes not performed), untraced slice"),
    Layer("service.index.ack_p99_ms", "ms", "lower", "op_p50_ms", DURABLE,
          "99th percentile of the same: the foreground stall behind a compaction"),
    Layer("service.index.mutations_per_s", "1/s", "higher", "op_p50_ms", DURABLE,
          "acked mutations per wall second, compactions included, flushes not performed"),
    Layer("service.scan.selfjoin_ms", "ms", "lower", "-", DURABLE,
          "wall of one traced resident self-join (JoinService.join after an epoch change)"),
    Layer("service.scan.selfjoin_cpu_ms", "ms", "lower", "-", DURABLE,
          "CPU of one untraced resident self-join over base + delta + tombstones"),
    Layer("storage.durable.write_page_ms", "ms", "lower", "op_cpu_ms", DURABLE,
          "DurableBackend.write_page without the WAL calls beneath it",
          _self("storage.durable.write_page")),
    Layer("storage.durable.pages_written", "count", "lower", "op_cpu_ms", DURABLE,
          "durable page writes per mutation", _calls("storage.durable.write_page")),
    Layer("storage.durable.checkpoints", "1/kop", "lower", "op_cpu_ms", DURABLE,
          "WAL checkpoints per 1000 mutations"),
    Layer("storage.durable.checkpoint_ms", "ms", "lower", "op_cpu_ms", DURABLE,
          "wall of one checkpoint", ("per_call", ("storage.durable.checkpoint",))),
    Layer("storage.wal.append_ms", "ms", "lower", "op_cpu_ms", DURABLE,
          "WriteAheadLog.append", _self("storage.wal.append")),
    Layer("storage.wal.sync_ms", "ms", "lower", "op_cpu_ms", DURABLE,
          "WriteAheadLog.sync", _self("storage.wal.sync")),
    Layer("storage.wal.bytes", "B", "lower", "op_cpu_ms", DURABLE,
          "WAL bytes appended per mutation", ("counter", "wal.bytes")),
    Layer("os.fsync.disk_ms", "ms", "lower", "-", DURABLE,
          "median of direct 4 KiB pwrite + real fsync probes in the data directory: "
          "prices os.fsync.per_op on this device"),
    Layer("os.fsync.per_op", "count", "lower", "-", DURABLE,
          "os.fsync calls per acked mutation (counted by the worker's replacement of "
          "os.fsync, not performed); repeats exactly"),
    Layer("os.write.kb_per_op", "KiB", "lower", "-", DURABLE,
          "bytes passed to write syscalls per acked mutation (/proc/self/io wchar); "
          "repeats exactly"),
    Layer("storage.durable.reopen_ms", "ms", "lower", "-", DURABLE,
          "wall of PersistentIndex.open after the worker was SIGKILLed"),
    Layer("storage.durable.replayed_records", "count", "lower", "-", DURABLE,
          "WAL records that reopen replayed"),
    Layer("storage.durable.space_amp", "ratio", "lower", "-", DURABLE,
          "data-directory bytes / (48 B x live entities)"),
    Layer("storage.durable.overhead_ratio", "ratio", "lower", "-", DURABLE,
          "CPU of one S3J ledger join on the durable backend / the same on the memory "
          "backend (ROADMAP's durable_overhead)"),
)


def load_benchmark_json() -> dict:
    return json.loads(BENCHMARK_JSON.read_text("utf-8"))


def benchmark_json() -> dict:
    """The content ``BENCHMARK.json`` must have."""
    return {
        "command": ["python3", "benchmarks/layered/run.py"],
        "paths": ["benchmarks/layered"],
        "run_seconds": 25,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": "lower", "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": layer.name, "unit": layer.unit, "better": layer.better}
            for layer in LAYERS
        ],
    }
