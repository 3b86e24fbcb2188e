"""Input generation: the only place the seed is consumed.

Everything a workload feeds the program — data sets, the query stream,
the mutation schedule — is a pure function of ``(seed, sizes)``, so the
harness and the worker each call these functions and get identical
inputs without shipping them between processes.  The seed itself never
reaches the system under test.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator

from repro.datagen import road_segments, uniform_squares_by_coverage
from repro.geometry.entity import Entity
from repro.geometry.rect import Rect
from repro.join.dataset import SpatialDataset

WINDOW_SIDE = 0.05
HOT_SET = 32
HOT_SHARE = 0.25


@dataclass(frozen=True)
class Sizes:
    """Input sizes and fixed op counts of one benchmark configuration."""

    ledger_entities: int  # per side, batch_ledger
    memory_a: int  # batch_memory left side (LB)
    memory_b: int  # batch_memory right side (MG)
    read_entities: int  # service_read index size
    read_buffer_pages: int  # its buffer pool: about half its pages
    write_entities: int  # service_write_durable bulk load
    warmup_joins: int
    warmup_requests: int
    warmup_mutations: int
    min_reps: int  # fewest timed batch joins, whatever --seconds says
    rss_after: dict[str, int]  # timed ops after which peak RSS is read
    request_chunk: int  # requests between two calibrations
    mutation_chunk: int  # mutations between two calibrations
    selfjoin_every: int  # mutations between two resident self-joins
    check_every: int  # every n-th service_read reply is verified
    oracle_sample: int  # left-side entities checked against the oracle
    untraced_ops: dict[str, int]  # traced run: untraced slice per workload
    traced_ops: dict[str, int]  # traced run: traced slice per workload
    overhead_entities: int  # per side, durable-vs-memory overhead join
    charge_calls: int  # IOStats.charge_cpu micro-timing loop
    disk_fsyncs: int  # direct write+fsync probes


FULL = Sizes(
    ledger_entities=12_000,
    memory_a=53_145,
    memory_b=39_000,
    read_entities=5_000,
    read_buffer_pages=32,
    write_entities=10_000,
    warmup_joins=1,
    warmup_requests=300,
    warmup_mutations=300,
    min_reps=5,
    rss_after={
        "batch_ledger": 5,
        "batch_memory": 5,
        "service_read": 3000,
        "service_write_durable": 2000,
    },
    request_chunk=250,
    mutation_chunk=250,
    selfjoin_every=1000,
    check_every=50,
    oracle_sample=1500,
    untraced_ops={
        "batch_ledger": 2,
        "batch_memory": 5,
        "service_read": 3000,
        "service_write_durable": 1000,
    },
    traced_ops={
        "batch_ledger": 2,
        "batch_memory": 3,
        "service_read": 1500,
        "service_write_durable": 2000,
    },
    overhead_entities=5_000,
    charge_calls=1_000_000,
    disk_fsyncs=200,
)

QUICK = Sizes(
    ledger_entities=1_200,
    memory_a=4_000,
    memory_b=3_000,
    read_entities=1_500,
    read_buffer_pages=8,
    write_entities=600,
    warmup_joins=1,
    warmup_requests=20,
    warmup_mutations=40,
    min_reps=3,
    rss_after={
        "batch_ledger": 3,
        "batch_memory": 3,
        "service_read": 50,
        "service_write_durable": 100,
    },
    request_chunk=25,
    mutation_chunk=50,
    selfjoin_every=100,
    check_every=10,
    oracle_sample=300,
    untraced_ops={
        "batch_ledger": 2,
        "batch_memory": 2,
        "service_read": 100,
        "service_write_durable": 100,
    },
    traced_ops={
        "batch_ledger": 2,
        "batch_memory": 2,
        "service_read": 100,
        "service_write_durable": 300,
    },
    overhead_entities=400,
    charge_calls=50_000,
    disk_fsyncs=10,
)

SIZES = {"full": FULL, "quick": QUICK}


def batch_ledger_inputs(seed: int, sizes: Sizes) -> tuple[SpatialDataset, SpatialDataset]:
    """UN1 x UN2 (coverage 0.4 / 0.9), the paper's uniform workload."""
    n = sizes.ledger_entities
    return (
        uniform_squares_by_coverage(n, 0.4, seed=seed, name="UN1"),
        uniform_squares_by_coverage(n, 0.9, seed=seed + 1, name="UN2"),
    )


def batch_memory_inputs(seed: int, sizes: Sizes) -> tuple[SpatialDataset, SpatialDataset]:
    """LB x MG stand-ins: clustered, skinny road segments."""
    return (
        road_segments(sizes.memory_a, seed=seed, name="LB"),
        road_segments(sizes.memory_b, towns=9, seed=seed + 1, name="MG"),
    )


def service_entities(seed: int, count: int) -> list[Entity]:
    """The bulk-loaded entity set of either service workload."""
    return list(uniform_squares_by_coverage(count, 0.4, seed=seed, name="live"))


def request_stream(seed: int) -> Iterator[dict]:
    """The endless query mix of ``service_read``: half point, half
    window queries; a quarter of them drawn from a fixed hot set, whose
    repeats the result cache can answer."""
    rng = random.Random(seed)

    def fresh() -> dict:
        if rng.random() < 0.5:
            return {"op": "point", "x": rng.random(), "y": rng.random()}
        xlo = rng.random() * (1.0 - WINDOW_SIDE)
        ylo = rng.random() * (1.0 - WINDOW_SIDE)
        return {
            "op": "window",
            "xlo": xlo,
            "ylo": ylo,
            "xhi": xlo + WINDOW_SIDE,
            "yhi": ylo + WINDOW_SIDE,
        }

    hot = [fresh() for _ in range(HOT_SET)]
    while True:
        if rng.random() < HOT_SHARE:
            yield hot[rng.randrange(HOT_SET)]
        else:
            yield fresh()


def mutation_stream(seed: int, base_count: int) -> Iterator[tuple]:
    """The endless mutation mix of ``service_write_durable``.

    Alternates ``("insert", eid, xlo, ylo, xhi, yhi)`` with
    ``("delete", eid)``; deletes alternate between the oldest entity
    this stream inserted (a delta removal) and a bulk-loaded one (a
    tombstone), falling back to the other kind when one runs dry.
    """
    rng = random.Random(seed)
    side = math.sqrt(0.4 / base_count)
    base = list(range(base_count))
    rng.shuffle(base)
    inserted: list[int] = []
    oldest = 0
    next_eid = base_count
    step = 0
    while True:
        if step % 2 == 0:
            xlo = rng.random() * (1.0 - side)
            ylo = rng.random() * (1.0 - side)
            yield ("insert", next_eid, xlo, ylo, xlo + side, ylo + side)
            inserted.append(next_eid)
            next_eid += 1
        else:
            from_delta = (step // 2) % 2 == 0
            if (from_delta and oldest < len(inserted)) or not base:
                yield ("delete", inserted[oldest])
                oldest += 1
            else:
                yield ("delete", base.pop())
        step += 1


def entity_of(mutation: tuple) -> Entity:
    """The entity an ``insert`` mutation adds."""
    _, eid, xlo, ylo, xhi, yhi = mutation
    return Entity(eid, Rect(xlo, ylo, xhi, yhi))
