"""Scenario → model → verdict: the harness behind the service and crash gates.

**Scenario.**  :func:`op_schedule` is the one seeded op generator: a
pure function of its seed yielding inserts, deletes, re-inserts of a
deleted id, compactions, and point / window / join queries.  A
:class:`Scenario` adds one fault, armed on the
:class:`~repro.verify.recorder.FaultyDisk` its durable index runs on (a
burst of EIO reads, one corrupt read, one failed WAL write, or none) —
``repro verify --service`` is the read burst plus its recovery
assertions, tests replay the others as explicit scenarios, and the
crash gate (:mod:`repro.verify.crash`) runs the same ops on a recording
disk that loses power at every fsync boundary.  A sampled fault search
over the same store is the durable state machine's
(``tests/test_service_statemachine.py``), which also shrinks.

**Model.**  :class:`LiveModel` is an ``eid -> Entity`` dict advanced by
the *acknowledged ops* alone — never read back from the index, so an
index that acks a mutation and forgets it cannot vouch for itself.  Its
answers come from :mod:`repro.verify.oracle`.

**Verdict.**  :func:`check_index` holds an index to the model (live
set, self-join — also against a cold batch ``spatial_join`` — and
window queries); the in-process replay calls it at every epoch, the
crash gate after each reopen of a crash state.  :func:`classify` is the
service trichotomy: a query outcome is **ok** (and then compared with
the model), **loud** (``failed`` with a typed error), or **declared
partial** (``CircuitOpen`` named, breaker not closed).  A storage error
is loud when it is an ``OSError`` or a
:class:`~repro.storage.durable.DurableStoreError`.

**Ending.**  :func:`ending` is the one fault verdict, shared with batch
chaos (:mod:`repro.verify.chaos`): a run under one armed fault ends
**correct** or **loud**, never **spurious** (loud before the fault
fired), **swallowed** (the fault fired and nothing failed loud) or
**unfired** (the armed fault never went off).  The replay asks it at
every typed storage error and once at the end; :func:`classify` holds a
non-ok outcome to the same rule (spurious until the fault has fired).

The replay drives the service's breaker from a manual clock it
advances itself, so a verdict is a pure function of ``(seed, index)``:
no wall-clock sleep, no timing-dependent breaker state.
"""

from __future__ import annotations

import asyncio
import errno
import random
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

from repro.geometry.entity import Entity
from repro.geometry.rect import Rect
from repro.join.api import spatial_join
from repro.join.dataset import SpatialDataset
from repro.obs import fileio
from repro.service.api import BreakerState, JoinService, QueryOutcome, ServiceConfig
from repro.service.index import PersistentIndex
from repro.storage.durable import DATA_FILE, DurableStoreError
from repro.verify.oracle import oracle_pairs, oracle_window
from repro.verify.recorder import Fault, FaultyDisk
from repro.verify.report import Report

Progress = Callable[[str], None]
Op = tuple[str, Any]
"""``("insert", Entity)``, ``("delete", eid)``, ``("compact", None)``,
``("point", (x, y))``, ``("window", Rect)`` or ``("join", None)``."""

QUERY_OPS = ("point", "window", "join")

CHECK_WINDOWS = (
    Rect(0.0, 0.0, 1.0, 1.0),  # everything stored must be reachable
    Rect(0.0, 0.0, 0.5, 0.5),
    Rect(0.25, 0.25, 0.75, 0.75),
    Rect(0.9, 0.9, 1.0, 1.0),
)
"""The windows :func:`check_index` asks at every check; the generator
also draws them, so the same query recurs across epochs and a result
cached under a stale epoch would be served and caught."""

GOOD_ENDINGS = ("correct", "loud")
BAD_ENDINGS = {
    "spurious": "loud before any fault fired",
    "swallowed": "the fault fired and nothing failed loud",
    "unfired": "the armed fault never fired",
}

STORE = "/service"  # the store's directory on the recording disk (replay and batch chaos)

BREAKER_RESET_S = 1.0  # manual-clock seconds
STEPS_PER_RESET = 4
"""The replay advances its clock by one reset interval every this many
steps, so an open breaker half-opens (and probes) on a fixed cadence."""


class LiveModel:
    """The live entity set, as the acknowledged ops define it."""

    def __init__(self, entities: list[Entity] | tuple[Entity, ...] = ()) -> None:
        self.live: dict[int, Entity] = {entity.eid: entity for entity in entities}

    def apply(self, op: str, payload: Any) -> None:
        if op == "insert":
            self.live[payload.eid] = payload
        elif op == "delete":
            del self.live[payload]

    def accepts(self, op: str, payload: Any) -> bool:
        """Whether a mutation is valid on the live set: a schedule's
        re-insert or delete names an id its own model has live or
        deleted, which a refused mutation before it may have changed."""
        if op == "insert":
            return payload.eid not in self.live
        return op != "delete" or payload in self.live

    def dataset(self) -> SpatialDataset:
        return SpatialDataset("model", [self.live[eid] for eid in sorted(self.live)])

    def expected(self, op: str, payload: Any) -> Any:
        """The exact answer to one query op over the live set."""
        dataset = self.dataset()
        if op == "join":
            return oracle_pairs(dataset, dataset)
        window = Rect.point(*payload) if op == "point" else payload
        return oracle_window(dataset, window)


def _sample_entity(rng: random.Random, eid: int) -> Entity:
    box = Rect.from_center(
        rng.random(), rng.random(), rng.uniform(0.0, 0.15), rng.uniform(0.0, 0.15)
    )
    return Entity(eid, box.clamped())


def op_schedule(
    seed: int, ops: int, bootstrap: int = 0
) -> tuple[list[Entity], list[Op]]:
    """The deterministic scenario for ``seed``: ``bootstrap`` entities
    to bulk-load, then ``ops`` operations.

    Deletes only name live ids, re-inserts bring a deleted entity back
    under its old id (the tombstone-plus-delta case), a compaction never
    comes first, and queries are interleaved throughout.
    """
    rng = random.Random(seed)
    loaded = [_sample_entity(rng, eid) for eid in range(1, bootstrap + 1)]
    model = LiveModel(loaded)
    deleted: list[Entity] = []
    next_eid = bootstrap + 1
    schedule: list[Op] = []
    for position in range(ops):
        roll = rng.random()
        op: Op
        if position and roll < 0.08:
            op = ("compact", None)
        elif model.live and roll < 0.22:
            eid = rng.choice(sorted(model.live))
            deleted.append(model.live[eid])
            op = ("delete", eid)
        elif deleted and roll < 0.28:
            op = ("insert", deleted.pop(rng.randrange(len(deleted))))
        elif roll < 0.62:
            op = ("insert", _sample_entity(rng, next_eid))
            next_eid += 1
        elif roll < 0.74:
            op = ("point", (rng.random(), rng.random()))
        elif roll < 0.86:
            fixed = rng.random() < 0.25
            op = (
                "window",
                rng.choice(CHECK_WINDOWS)
                if fixed
                else Rect.from_center(
                    rng.random(), rng.random(), rng.uniform(0, 0.6), rng.uniform(0, 0.6)
                ),
            )
        else:
            op = ("join", None)
        model.apply(*op)
        schedule.append(op)
    return loaded, schedule


def apply_op(index: PersistentIndex, op: str, payload: Any) -> Any:
    """Run one op against a bare index (the crash gate and the state
    machine); queries return the index's answer."""
    if op == "insert":
        return index.insert(payload)
    if op == "delete":
        return index.delete(payload)
    if op == "compact":
        return index.compact()
    if op == "point":
        return index.point_query(*payload)
    if op == "window":
        return index.window_query(payload)
    return index.self_join()


def _diff(got: Any, expected: Any) -> str:
    got, expected = set(got), set(expected)
    return (
        f"got {len(got)}, model says {len(expected)} "
        f"({len(expected - got)} missing, {len(got - expected)} extra)"
    )


def check_index(index: PersistentIndex, model: LiveModel) -> list[str]:
    """Every way ``index`` departs from ``model`` (empty = exact).

    The live set is compared first and from memory alone; the self-join
    and window checks read storage, so under an armed fault they may
    raise a storage error — the caller's to classify.
    """
    problems = []
    stored = {entity.eid: entity for entity in index.live_entities()}
    if stored != model.live:
        lost = sorted(set(model.live) - set(stored))
        phantom = sorted(set(stored) - set(model.live))
        moved = sorted(
            eid for eid in set(stored) & set(model.live) if stored[eid] != model.live[eid]
        )
        problems.append(
            f"live set departs from the acknowledged ops: lost {lost[:5]} "
            f"({len(lost)}), phantom {phantom[:5]} ({len(phantom)}), "
            f"altered {moved[:5]} ({len(moved)})"
        )
    dataset = model.dataset()
    expected = oracle_pairs(dataset, dataset)
    cold = spatial_join(dataset, dataset, algorithm="s3j").pairs
    if cold != expected:
        problems.append(f"cold spatial_join diverged from the oracle: {_diff(cold, expected)}")
    answered = index.self_join()
    if answered != expected:
        problems.append(f"self_join diverged: {_diff(answered, expected)}")
    for window in CHECK_WINDOWS:
        hits = index.window_query(window)
        wanted = oracle_window(dataset, window)
        if hits != wanted:
            problems.append(f"window {window.as_tuple()} diverged: {_diff(hits, wanted)}")
    return problems


def ending(disk: FaultyDisk, loud: bool) -> str:
    """How a run on ``disk`` ended, given whether it failed ``loud`` (a
    typed storage error or a non-ok outcome): one of
    :data:`GOOD_ENDINGS`, or a violation named in :data:`BAD_ENDINGS`."""
    if loud:
        return "loud" if disk.fired else "spurious"
    if disk.fired:
        return "swallowed"
    return "unfired" if disk.fault is not None else "correct"


def classify(
    outcome: QueryOutcome, breaker_state: BreakerState, fault_fired: bool
) -> list[str]:
    """The service trichotomy: what is wrong with one query outcome
    *besides* its answer (which the caller compares when ``ok``)."""
    if outcome.status == "ok":
        return []
    problems = []
    if not fault_fired:
        problems.append(f"spurious {outcome.status} outcome: no fault has fired")
    if outcome.status == "failed":
        if not outcome.error:
            problems.append("failed without a typed error (silent failure)")
    elif outcome.status == "partial":
        if not any(f.error_type == "CircuitOpen" for f in outcome.failures):
            problems.append("partial without a CircuitOpen failure")
        if breaker_state is BreakerState.CLOSED:
            problems.append("partial served with the breaker closed")
    else:
        problems.append(f"unexpected status {outcome.status!r}")
    return problems


@dataclass(frozen=True)
class Scenario:
    """One replay configuration; the replay's verdict is a pure function of it."""

    index: int
    seed: int
    profile: str
    fault: Fault | None
    ops: int
    entities: int
    recovery: bool = False
    """Also require the burst to have been loud, to have tripped the
    breaker, and the service to heal to exact answers after it."""

    def describe(self) -> str:
        fault = self.fault.describe() if self.fault is not None else "no fault"
        return (
            f"#{self.index} service {self.profile} "
            f"({self.ops} ops over {self.entities} entities) {fault}"
        )


def _burst(first: int, length: int) -> Fault:
    """EIO on page reads ``first`` through ``first + length``."""
    return Fault("read", DATA_FILE, errno.EIO, first, first + length)


async def _serve(service: JoinService, op: str, payload: Any) -> Any:
    if op == "insert":
        return await service.insert(payload)
    if op == "delete":
        return await service.delete(payload)
    if op == "compact":
        return await service.compact()
    if op == "point":
        return await service.point(*payload)
    if op == "window":
        return await service.window(*payload.as_tuple())
    return await service.join()


async def _replay(scenario: Scenario) -> Report:
    loaded, schedule = op_schedule(
        scenario.seed * 7919 + scenario.index, scenario.ops, scenario.entities
    )
    model = LiveModel(loaded)
    disk = FaultyDisk()
    with fileio.using(disk):
        # compaction is an explicit scenario op
        index = PersistentIndex(loaded, data_dir=STORE, compaction_threshold=10**9)
    disk.arm(scenario.fault)
    now = [0.0]
    service = JoinService(
        index,
        ServiceConfig(
            breaker_threshold=2,
            breaker_reset_s=BREAKER_RESET_S,
            cache_size=64,
        ),
        clock=lambda: now[0],
    )
    report = Report(gate=scenario.describe())
    tally: Counter[str] = Counter()

    def judge(step: int, op: str, check: str, problems: list[str]) -> None:
        for problem in problems:
            report.fail(check, f"#{scenario.index} step {step} [{op}]", problem)

    def loud(step: int, op: str, error: Exception) -> None:
        """A storage error outside a service query: fine once the fault
        has fired, spurious before."""
        tally["loud"] += 1
        verdict = ending(disk, loud=True)
        if verdict not in GOOD_ENDINGS:
            judge(step, op, verdict, [f"{type(error).__name__}: {BAD_ENDINGS[verdict]}"])

    async def ask(step: int, op: str, payload: Any) -> QueryOutcome:
        outcome = await _serve(service, op, payload)
        tally[outcome.status] += 1
        problems = classify(outcome, service.breaker.state, disk.fired > 0)
        if outcome.status == "ok":
            answer = outcome.pairs if op == "join" else outcome.eids
            expected = model.expected(op, payload)
            if answer != expected:
                problems.append(f"silent wrong answer: {_diff(answer, expected)}")
        judge(step, op, "trichotomy", problems)
        return outcome

    async def mutate(step: int, op: str, payload: Any) -> None:
        """A mutation that dies must die loud, and the next epoch check
        proves it left the live set alone.  One the model says is
        invalid — a refused mutation came before it — must be refused."""
        valid = model.accepts(op, payload)
        try:
            acked = await _serve(service, op, payload)
        except (OSError, DurableStoreError) as error:
            loud(step, op, error)
        except Exception as error:  # noqa: BLE001 - the silent-failure class
            if not valid and isinstance(error, (ValueError, KeyError)):
                tally["refused"] += 1
            else:
                judge(step, op, "trichotomy", [f"untyped {type(error).__name__}: {error}"])
        else:
            if not valid:
                judge(step, op, "model", [f"acknowledged {op} the live set does not admit"])
            model.apply(op, payload)
            if op == "compact" and acked:
                tally["compactions"] += 1

    def check_epoch(step: int) -> None:
        tally["epochs"] += 1
        try:
            judge(step, "check", "model", check_index(index, model))
        except (OSError, DurableStoreError) as error:
            loud(step, "check", error)

    try:
        check_epoch(0)
        for step, (op, payload) in enumerate(schedule, start=1):
            await (ask if op in QUERY_OPS else mutate)(step, op, payload)
            check_epoch(step)
            if report.violations:
                break  # later steps would only repeat the finding
            if step % STEPS_PER_RESET == 0:
                now[0] += BREAKER_RESET_S
        if scenario.recovery and report.ok:
            if not tally["failed"]:
                judge(scenario.ops, "faults", "recovery", ["the burst injected no loud failure"])
            if not service.breaker.opened_count:
                judge(scenario.ops, "faults", "recovery", ["the breaker never opened"])
            # Each failed probe burns one read of the burst, so as many
            # probes as the burst is long always get past it.
            burst = scenario.fault
            for _ in range(burst.last - burst.nth + 2):
                now[0] += BREAKER_RESET_S
                if (await ask(scenario.ops, "join", None)).status == "ok":
                    break
            else:
                judge(scenario.ops, "join", "recovery", ["no exact answer after the burst"])
            # The burst is spent: from here the index must answer, exactly.
            judge(scenario.ops, "check", "recovery", check_index(index, model))
            tally["epochs"] += 1
    finally:
        index.close()
    verdict = ending(disk, loud=tally["loud"] + tally["failed"] + tally["partial"] > 0)
    if report.ok and verdict not in GOOD_ENDINGS:
        judge(scenario.ops, "faults", verdict, [BAD_ENDINGS[verdict]])
    report.counts.update(
        ops=scenario.ops,
        faults=scenario.fault is not None,
        epochs_checked=tally["epochs"],
        ok_queries=tally["ok"],
        failed_queries=tally["failed"],
        partial_queries=tally["partial"],
        loud_errors=tally["loud"],
        refused_mutations=tally["refused"],
        compactions=tally["compactions"],
        breaker_opened=service.breaker.opened_count,
    )
    return report


def run_scenario(scenario: Scenario) -> Report:
    """Replay one scenario through a fresh index and service."""
    return asyncio.run(_replay(scenario))


def run_service_verify(
    seed: int = 0,
    ops: int = 60,
    entities: int = 120,
    faults: bool = True,
    progress: Progress | None = None,
) -> Report:
    """The service differential gate (``repro verify --service``): one
    replay on a durable index with EIO on page reads 40-70, plus the
    recovery assertions — or, with ``faults=False``, the quiet control,
    where every outcome must be ok."""
    fault = _burst(40, 30) if faults else None
    profile = "scheduled-burst" if faults else "quiet"
    report = run_scenario(Scenario(0, seed, profile, fault, ops, entities, recovery=faults))
    report.gate = "service differential gate"
    if progress:
        progress(
            f"service verify: {ops} ops, {report.counts['epochs_checked']} epochs "
            f"checked, breaker opened {report.counts['breaker_opened']}x"
        )
    return report

