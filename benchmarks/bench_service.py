"""E-SVC — throughput of the long-lived join service over real TCP.

Boots a :class:`~repro.service.server.ServiceServer` on an ephemeral
port, drives it with concurrent JSON-lines clients issuing a mixed
point/window/insert/delete stream, and measures real host wall-clock
throughput (``service_qps``).  Every client response is sanity-checked:
a non-ok query status or a server-side error fails the benchmark — a
service that sheds load under this light drive is broken, not slow.

The run flows through :mod:`repro.obs` like any batch join: service
lifecycle events (queries, mutations, compactions) land in the event
log, and the benchmark renders a full :class:`RunReport` from them, so
``repro report`` works on a service run artifact.

Emits ``BENCH_service.json`` (gated on ``service_qps`` by
``benchmarks.trajectory`` with a wide collapse-only threshold — the
absolute number is host-dependent) plus ``REPORT_service.json``::

    python -m benchmarks.bench_service [--entities 1500] [--clients 4]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import sys
import time

import numpy as np

from repro.join.metrics import JoinMetrics
from repro.join.result import JoinResult, canonical_pairs
from repro.obs import Observability
from repro.obs.events import EventLog
from repro.obs.report import build_run_report
from repro.service import JoinService, PersistentIndex, ServiceServer
from repro.storage.records import PAIR

from benchmarks.artifacts import bench_artifact_dir, write_bench_artifact
from tests.conftest import make_squares

NUM_ENTITIES = int(os.environ.get("REPRO_SERVICE_N", "1500"))
NUM_CLIENTS = int(os.environ.get("REPRO_SERVICE_CLIENTS", "4"))
OPS_PER_CLIENT = int(os.environ.get("REPRO_SERVICE_OPS", "120"))


async def _client(
    host: str, port: int, client_id: int, ops: int
) -> tuple[int, list[str]]:
    """One JSON-lines client; returns (completed ops, failures)."""
    rng = random.Random(1000 + client_id)
    reader, writer = await asyncio.open_connection(host, port)
    failures: list[str] = []
    completed = 0
    next_eid = 10_000_000 + client_id * 100_000  # private eid range
    owned: list[int] = []

    async def ask(request: dict) -> dict:
        writer.write(json.dumps(request).encode() + b"\n")
        await writer.drain()
        return json.loads(await reader.readline())

    for op_no in range(ops):
        choice = rng.random()
        if choice < 0.10:
            x, y = rng.uniform(0.0, 0.9), rng.uniform(0.0, 0.9)
            side = rng.uniform(0.005, 0.03)
            response = await ask(
                {"op": "insert", "eid": next_eid, "xlo": x, "ylo": y,
                 "xhi": x + side, "yhi": y + side}
            )
            if response.get("ok"):
                owned.append(next_eid)
            else:
                failures.append(f"client {client_id} op {op_no}: {response}")
            next_eid += 1
        elif choice < 0.15 and owned:
            response = await ask({"op": "delete", "eid": owned.pop()})
            if not response.get("ok"):
                failures.append(f"client {client_id} op {op_no}: {response}")
        elif choice < 0.60:
            response = await ask(
                {"op": "point", "x": rng.uniform(0, 1), "y": rng.uniform(0, 1)}
            )
            if response.get("status") != "ok":
                failures.append(f"client {client_id} op {op_no}: {response}")
        else:
            xlo, ylo = rng.uniform(0.0, 0.8), rng.uniform(0.0, 0.8)
            response = await ask(
                {"op": "window", "xlo": xlo, "ylo": ylo,
                 "xhi": xlo + 0.1, "yhi": ylo + 0.1}
            )
            if response.get("status") != "ok":
                failures.append(f"client {client_id} op {op_no}: {response}")
        completed += 1
    writer.close()
    await writer.wait_closed()
    return completed, failures


async def drive(entities: int, clients: int, ops: int) -> tuple[dict, list[str]]:
    """Boot the server, run the client fleet, assemble the payload."""
    dataset = make_squares(entities, 0.004, seed=20260807, name="SVC-BENCH")
    obs = Observability(events=EventLog())
    index = PersistentIndex(
        dataset.entities, obs=obs, compaction_threshold=64
    )
    service = JoinService(index)
    server = ServiceServer(service)
    host, port = await server.start()
    failures: list[str] = []
    try:
        start = time.perf_counter()
        results = await asyncio.gather(
            *(_client(host, port, i, ops) for i in range(clients))
        )
        wall = time.perf_counter() - start

        join_start = time.perf_counter()
        join = await service.join()
        join_wall = time.perf_counter() - join_start
        if join.status != "ok":
            failures.append(f"final join not ok: {join.status}")
        pairs = join.pairs or frozenset()

        total_ops = sum(completed for completed, _ in results)
        for _, client_failures in results:
            failures.extend(client_failures)
        stats = service.stats()
        payload = {
            "entities": entities,
            "clients": clients,
            "ops_per_client": ops,
            "total_ops": total_ops,
            "wall_s": wall,
            "service_qps": total_ops / wall if wall > 0 else 0.0,
            "join_wall_s": join_wall,
            "join_pairs": len(pairs),
            "compactions": stats["compactions"],
            "final_epoch": stats["epoch"],
            "cache": stats["cache"],
        }
    finally:
        await server.stop()

    # The service run renders through the same observatory as a batch
    # join: the ledger's phase buckets become the metrics, the event
    # log becomes the event census.
    metrics = JoinMetrics(
        algorithm="service",
        phase_names=("load", "query", "compaction"),
        phases=index.storage.stats.phase_snapshot(),
        cost_model=index.storage.cost_model,
    )
    pair_array = canonical_pairs(np.array(list(pairs), dtype=PAIR), self_join=True)
    result = JoinResult(pair_array=pair_array, metrics=metrics, self_join=True)
    report = build_run_report(
        result,
        obs,
        workload="service-drive",
        wall_seconds=payload["wall_s"],
        clients=clients,
        service_qps=payload["service_qps"],
    )
    report_path = bench_artifact_dir() / "REPORT_service.json"
    report.save(report_path)
    payload["report"] = str(report_path)
    index.close()
    return payload, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--entities", type=int, default=NUM_ENTITIES)
    parser.add_argument("--clients", type=int, default=NUM_CLIENTS)
    parser.add_argument("--ops", type=int, default=OPS_PER_CLIENT)
    args = parser.parse_args(argv)

    payload, failures = asyncio.run(
        drive(args.entities, args.clients, args.ops)
    )
    print(
        f"service    entities={payload['entities']:<6} "
        f"clients={payload['clients']} "
        f"ops={payload['total_ops']:<5} "
        f"wall={payload['wall_s']:.3f}s "
        f"qps={payload['service_qps']:,.0f}  "
        f"join={payload['join_wall_s']:.3f}s "
        f"({payload['join_pairs']} pairs, "
        f"{payload['compactions']} compactions)"
    )
    path = write_bench_artifact("service", payload)
    if failures:
        for failure in failures[:10]:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"service OK: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
