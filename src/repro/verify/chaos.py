"""Chaos verification: joins on the durable store, one storage fault each.

Every chaos case runs one join algorithm over one verification workload
on the durable store (:class:`~repro.storage.durable.DurableBackend`)
over a :class:`~repro.verify.recorder.FaultyDisk` installed at the
file-I/O seam, with one sampled :class:`~repro.verify.recorder.Fault`
armed — EIO or ENOSPC on a read, write or fsync, or a corrupt read — or
none (the quiet case).  The fault hits the ``nth`` such call on one of
the store's files, ``nth`` drawn from the calls the same case makes
fault-free, so an armed fault always fires.

This module is the sampler only.  The join runs through the batch
harness's :func:`~repro.verify.executors.run_executor` on the durable
store's configuration, its pairs are diffed against the brute-force
oracle with :func:`~repro.verify.differential.diff_pairs`, and its
ending is :func:`~repro.verify.scenario.ending`, the one the service
replay uses (DESIGN.md section 11): **correct** or **loud** (an
``OSError`` or a :class:`~repro.storage.durable.DurableStoreError`; a
corrupt read fails the slot checksum), never **spurious**,
**swallowed** or **unfired** — nor **wrong** pairs or an **untyped**
exception.
"""

from __future__ import annotations

import errno
import random
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Any, Callable

from repro.obs import fileio
from repro.storage.durable import CHECKPOINT_FILE, DATA_FILE, SLOT_COVERED, DurableStoreError
from repro.storage.manager import StorageConfig
from repro.verify.cases import VerifyCase
from repro.verify.differential import diff_pairs
from repro.verify.executors import ExecutorSpec, run_executor
from repro.verify.oracle import oracle_for_case
from repro.verify.recorder import Fault, FaultyDisk
from repro.verify.report import Report
from repro.verify.scenario import BAD_ENDINGS, GOOD_ENDINGS, STORE, ending
from repro.verify.workloads import generated_cases

CHAOS_ALGORITHMS = ("s3j", "pbsm", "shj")
"""Algorithms the chaos sweep cycles through: the three external-memory
joins whose storage traffic actually exercises the fault surface."""

CHAOS_ENTITY_LIMIT = 70
"""Workloads are shrunk to this many entities per side so a sweep of
hundreds of fault scenarios stays fast."""

KINDS = ("read", "corrupt", "write", "fsync", "quiet")
FILES = (DATA_FILE, "wal-", CHECKPOINT_FILE)
"""Name prefixes of the store's files: pages, log segments, checkpoint."""


@dataclass(frozen=True)
class ChaosScenario:
    """One sampled case: workload x algorithm x buffer x fault.

    ``kind`` ``"quiet"`` arms nothing.  Otherwise ``pick`` chooses among
    the files the fault-free run makes such calls on, and ``position``
    where among those calls the fault lands, both as fractions, since
    the counts are only known once the case has run."""

    index: int
    case: VerifyCase
    algorithm: str
    buffer_pages: int
    kind: str
    code: int = errno.EIO
    landed: int = 0
    pick: float = 0.0
    position: float = 0.0

    def describe(self, fault: Fault | None = None) -> str:
        return (
            f"#{self.index} {self.algorithm} on {self.case.name} "
            f"(M={self.buffer_pages}) {fault.describe() if fault else self.kind}"
        )

    @property
    def spec(self) -> ExecutorSpec:
        return ExecutorSpec(self.algorithm)

    @property
    def storage(self) -> StorageConfig:
        """The durable store on the recording disk, with this case's buffer."""
        return StorageConfig(buffer_pages=self.buffer_pages, backend="durable", directory=STORE)

    def fault(self, calls: Counter[tuple[str, str]]) -> Fault | None:
        """The fault to arm, given the fault-free run's ``calls``."""
        if self.kind == "quiet":
            return None
        op = "read" if self.kind == "corrupt" else self.kind
        counts = {
            prefix: sum(n for (call, name), n in calls.items() if call == op and name.startswith(prefix))
            for prefix in FILES
        }
        prefixes = [prefix for prefix in FILES if counts[prefix]]
        prefix = prefixes[int(self.pick * len(prefixes))]
        nth = 1 + int(self.position * counts[prefix])
        return Fault(self.kind, prefix, self.code, nth, landed=self.landed)


@dataclass(frozen=True)
class ChaosOutcome:
    """What one chaos case ended as."""

    scenario: str
    outcome: str  # one of GOOD_ENDINGS, or the violation's name
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.outcome in GOOD_ENDINGS


def _shrunk_cases(seed: int, limit: int = CHAOS_ENTITY_LIMIT) -> list[VerifyCase]:
    """The generated workload roster, cut down to chaos scale."""
    shrunk = []
    for case in generated_cases(seed):
        entities_a = list(case.dataset_a)[:limit]
        entities_b = (
            entities_a if case.self_join else list(case.dataset_b)[:limit]
        )
        shrunk.append(case.with_entities(entities_a, entities_b))
    return shrunk


def sample_scenario(
    index: int,
    seed: int,
    cases: list[VerifyCase] | None = None,
    algorithms: tuple[str, ...] = CHAOS_ALGORITHMS,
) -> ChaosScenario:
    """Deterministically sample chaos case number ``index``: a pure
    function of ``(seed, index)``, so a failing case number is a stable
    reproduction recipe."""
    rng = random.Random((seed << 20) ^ index)
    roster = cases if cases is not None else _shrunk_cases(seed)
    kind = rng.choice(KINDS)
    code = rng.choice((errno.EIO, errno.ENOSPC)) if kind == "write" else errno.EIO
    if kind == "write":
        landed = rng.choice((0, rng.randrange(1, 4096)))
    else:
        landed = rng.randrange(SLOT_COVERED) if kind == "corrupt" else 0  # a covered byte
    return ChaosScenario(
        index=index,
        case=roster[index % len(roster)],
        algorithm=algorithms[index % len(algorithms)],
        buffer_pages=rng.choice((8, 16, 32)),
        kind=kind,
        code=code,
        landed=landed,
        pick=rng.random(),
        position=rng.random(),
    )


def fault_free_calls(scenario: ChaosScenario) -> Counter[tuple[str, str]]:
    """The reads, writes and fsyncs ``scenario``'s join makes, by file."""
    disk = FaultyDisk()
    with fileio.using(disk):
        run_executor(scenario.case, scenario.spec, instrument=False, storage=scenario.storage)
    return disk.calls


def run_chaos_case(
    scenario: ChaosScenario, calls: Counter[tuple[str, str]] | None = None
) -> ChaosOutcome:
    """Run one chaos scenario and classify its ending; ``calls`` are
    its fault-free call counts, counted here when not given."""
    if calls is None and scenario.kind != "quiet":
        calls = fault_free_calls(scenario)
    fault = scenario.fault(calls or Counter())
    disk = FaultyDisk(fault=fault)
    label = scenario.describe(fault)
    try:
        with fileio.using(disk):
            record = run_executor(
                scenario.case, scenario.spec, instrument=False, storage=scenario.storage
            )
    except (OSError, DurableStoreError) as error:
        return ChaosOutcome(label, ending(disk, loud=True), f"{type(error).__name__}: {error}")
    except Exception as error:  # noqa: BLE001 - the bug class under test
        return ChaosOutcome(label, "untyped-error", f"{type(error).__name__}: {error}")
    diff = diff_pairs(oracle_for_case(scenario.case), record.pairs)
    if not diff.empty:
        return ChaosOutcome(label, "wrong", diff.describe())
    verdict = ending(disk, loud=False)
    return ChaosOutcome(label, verdict, BAD_ENDINGS.get(verdict, ""))


def run_chaos(
    cases: int = 25,
    seed: int = 0,
    algorithms: tuple[str, ...] = CHAOS_ALGORITHMS,
    progress: Callable[[str], None] | None = None,
) -> Report:
    """Run ``cases`` sampled fault scenarios and report their endings:
    ``counts["tally"]`` says how many ended each way (and ``kinds``
    which faults were sampled); every ending but correct or loud is a
    violation."""
    if cases < 1:
        raise ValueError("cases must be positive")
    roster = _shrunk_cases(seed)
    tally: dict[str, int] = {}
    kinds: dict[str, int] = {}
    outcomes: list[dict[str, Any]] = []
    report = Report(
        gate="chaos",
        counts={
            "seed": seed,
            "cases": cases,
            "tally": tally,
            "kinds": kinds,
            "outcomes": outcomes,
        },
    )
    counted: dict[tuple[str, str, int], Counter[tuple[str, str]]] = {}
    for index in range(cases):
        scenario = sample_scenario(index, seed, cases=roster, algorithms=algorithms)
        calls = None
        if scenario.kind != "quiet":
            key = (scenario.case.name, scenario.algorithm, scenario.buffer_pages)
            if key not in counted:
                counted[key] = fault_free_calls(scenario)
            calls = counted[key]
        outcome = run_chaos_case(scenario, calls)
        tally[outcome.outcome] = tally.get(outcome.outcome, 0) + 1
        kinds[scenario.kind] = kinds.get(scenario.kind, 0) + 1
        outcomes.append(asdict(outcome))
        if not outcome.ok:
            report.fail("outcome", outcome.scenario, f"{outcome.outcome}: {outcome.detail}")
        if progress is not None:
            progress(f"chaos {outcome.outcome:>13}  {outcome.scenario}")
    return report
