"""Ledger-invariant checkers.

Each checker is a function of one
:class:`~repro.verify.executors.RunRecord` returning its
:class:`~repro.verify.report.Violation` list (empty = holds, or does not
apply).  These are the paper's structural claims, enforced
mechanically:

- **phase-buckets-sum-to-total** — the per-phase ledger buckets add up
  to the grand totals exactly: no I/O or counted CPU op ever escapes
  phase attribution (Table 2's breakdown is exhaustive).
- **join-reads-once** — S3J's join phase reads each sorted level-file
  page at most once physically and processes every page exactly once
  (the "strongly resembles an L-way merge sort" single-pass claim of
  section 3.1).
- **replication** — S3J never replicates (``r = 1.0`` exactly without
  DSB filtering, equation 9); the R-tree and sweep references never
  replicate either; SHJ never replicates data set A.

Obs-on/obs-off ledger parity is a *differential* check (it needs two
runs), so :func:`check_obs_parity` takes a case and a spec instead.
"""

from __future__ import annotations

from typing import Callable

from repro.storage.iostats import PhaseStats
from repro.verify.cases import VerifyCase
from repro.verify.executors import (
    SORTED_FILE_SUFFIX,
    ExecutorSpec,
    RunRecord,
    run_executor,
)
from repro.verify.report import Violation

NO_REPLICATION = {"s3j", "rtree", "sweep"}
LEDGER_COUNTERS = (
    "page_reads",
    "page_writes",
    "random_reads",
    "random_writes",
    "buffer_hits",
)


def _found(check: str, record: RunRecord, problems: list[str]) -> list[Violation]:
    where = f"{record.name} on {record.case.name}"
    return [Violation(check, where, message) for message in problems]


def phase_buckets_sum_to_total(record: RunRecord) -> list[Violation]:
    """Per-phase buckets sum exactly to the ledger totals."""
    if record.ledger_total is None:  # only memory-mode runs: no live ledger
        return []
    summed = PhaseStats()
    for bucket in record.metrics.phases.values():
        bucket.merged_into(summed)
    problems = []
    for counter in LEDGER_COUNTERS:
        total = getattr(record.ledger_total, counter)
        phased = getattr(summed, counter)
        if total != phased:
            problems.append(
                f"{counter}: phases sum to {phased}, total is {total}"
            )
    # The exact-predicate refinement step runs after the algorithm's
    # last phase closes: it is charged to the ledger but is not one
    # of Table 2's phases.
    total_cpu = {
        op: count
        for op, count in record.ledger_total.cpu_ops.items()
        if op != "refine"
    }
    if summed.cpu_ops != total_cpu:
        problems.append(
            f"cpu_ops: phases sum to {summed.cpu_ops}, total is {total_cpu}"
        )
    return _found("phase-buckets-sum-to-total", record, problems)


def join_reads_once(record: RunRecord) -> list[Violation]:
    """S3J's join phase touches each sorted level-file page once."""
    if record.spec.algorithm != "s3j":
        return []
    if record.registry is None or not record.level_file_pages:
        return []
    problems = []
    total_pages = 0
    for file_name, pages in sorted(record.level_file_pages.items()):
        if not file_name.endswith(SORTED_FILE_SUFFIX):
            continue
        total_pages += pages
        reads = record.registry.counter_value(
            "io.reads", file=file_name, kind="sequential"
        ) + record.registry.counter_value(
            "io.reads", file=file_name, kind="random"
        )
        if reads > pages:
            problems.append(
                f"{file_name}: {reads} physical reads for {pages} pages "
                "(some page was read more than once)"
            )
    processed = record.registry.counter_total("scan.pages")
    if processed != total_pages:
        problems.append(
            f"synchronized scan processed {processed} pages, sorted "
            f"level files hold {total_pages}"
        )
    return _found("join-reads-once", record, problems)


def replication(record: RunRecord) -> list[Violation]:
    """Replication factors match each algorithm's paper claim."""
    metrics = record.metrics
    problems = []
    algorithm = record.spec.algorithm
    if algorithm in NO_REPLICATION:
        for side, factor in (
            ("r_A", metrics.replication_a),
            ("r_B", metrics.replication_b),
        ):
            if factor != 1.0:
                problems.append(
                    f"{side} = {factor!r}, expected exactly 1.0 "
                    f"({algorithm} never replicates)"
                )
    elif algorithm == "shj" and metrics.replication_a != 1.0:
        problems.append(
            f"r_A = {metrics.replication_a!r}, expected exactly 1.0 "
            "(SHJ never replicates data set A)"
        )
    return _found("replication", record, problems)


DEFAULT_INVARIANTS: tuple[Callable[[RunRecord], list[Violation]], ...] = (
    phase_buckets_sum_to_total,
    join_reads_once,
    replication,
)


def check_obs_parity(
    case: VerifyCase, spec: ExecutorSpec
) -> list[Violation]:
    """Run one executor twice — instrumented and not — and require the
    identical pair set and the identical per-phase simulated ledger
    (observability must never change a simulated count)."""
    instrumented = run_executor(case, spec, instrument=True)
    bare = run_executor(case, spec, instrument=False)
    problems = []
    if instrumented.pairs != bare.pairs:
        problems.append(
            f"pair sets differ: {len(instrumented.pairs)} instrumented "
            f"vs {len(bare.pairs)} bare"
        )
    phases_on = {
        name: stats.to_dict() for name, stats in instrumented.metrics.phases.items()
    }
    phases_off = {
        name: stats.to_dict() for name, stats in bare.metrics.phases.items()
    }
    if phases_on != phases_off:
        differing = sorted(
            name
            for name in set(phases_on) | set(phases_off)
            if phases_on.get(name) != phases_off.get(name)
        )
        problems.append(
            f"per-phase ledgers differ with observability on/off: {differing}"
        )
    where = f"{spec.name} on {case.name}"
    return [Violation("obs-ledger-parity", where, message) for message in problems]
