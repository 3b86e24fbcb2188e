"""Chaos verification: the differential harness under injected faults.

Every chaos case runs one join algorithm over one verification workload
with a *sampled* :class:`~repro.faults.plan.FaultPlan` (and usually a
:class:`~repro.faults.retry.RetryPolicy`) installed, then asserts
(DESIGN.md section 11) that the run ends in exactly one of

- **correct** — the pair set equals the brute-force oracle's (the
  faults were absorbed by retries, healed writes, or cache hits);
- **typed failure** — a :class:`~repro.faults.errors.FaultError`
  subclass propagated (permanent fault, exhausted retries, torn-write
  detection).

Anything else — a wrong pair set or an untyped exception — is a
silent-wrong-answer bug and fails the report.  (Declared-partial
answers belong to the service; :mod:`repro.verify.scenario` checks
them.)

On top of the outcome each case checks post-recovery bookkeeping:
``faults.retries_attempted >= faults.retries_succeeded``, no give-ups
on a fully correct run, and per-phase ledger buckets still summing to
the totals after recovery.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import Any, Callable

from repro.faults import FaultError, FaultPlan, RetryPolicy
from repro.join.api import spatial_join
from repro.obs import Observability
from repro.storage.iostats import PhaseStats
from repro.storage.manager import StorageConfig
from repro.verify.cases import VerifyCase
from repro.verify.oracle import oracle_for_case
from repro.verify.report import Report
from repro.verify.workloads import generated_cases

CHAOS_ALGORITHMS = ("s3j", "pbsm", "shj")
"""Algorithms the chaos sweep cycles through: the three external-memory
joins whose storage traffic actually exercises the fault surface."""

CHAOS_ENTITY_LIMIT = 70
"""Workloads are shrunk to this many entities per side so a sweep of
hundreds of fault scenarios stays fast."""

GOOD_OUTCOMES = ("correct", "typed-failure")


@dataclass(frozen=True)
class ChaosScenario:
    """One sampled fault scenario: workload x algorithm x fault plan."""

    index: int
    case: VerifyCase
    algorithm: str
    plan: FaultPlan
    retry: RetryPolicy | None
    buffer_pages: int

    def describe(self) -> str:
        retry = (
            f"retry x{self.retry.max_attempts}" if self.retry else "no retry"
        )
        return (
            f"#{self.index} {self.algorithm} on {self.case.name} "
            f"({retry}, M={self.buffer_pages}) {self.plan.describe()}"
        )


@dataclass(frozen=True)
class ChaosOutcome:
    """What one chaos case ended as, with any invariant violations."""

    scenario: str
    outcome: str  # "correct" | "typed-failure" | "wrong" | "untyped-error"
    detail: str = ""
    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.outcome in GOOD_OUTCOMES and not self.violations


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
    """Deterministically sample chaos case number ``index``.

    The scenario is a pure function of ``(seed, index)``: the same
    sweep replays the same fault plans, so a failing case number is a
    stable reproduction recipe.
    """
    rng = random.Random((seed << 20) ^ index)
    roster = cases if cases is not None else _shrunk_cases(seed)
    case = roster[index % len(roster)]
    algorithm = algorithms[index % len(algorithms)]

    profile = rng.choice(("transient", "permanent", "torn", "mixed", "quiet"))
    kwargs: dict[str, Any] = {"seed": rng.randrange(2**31)}
    if profile == "transient":
        kwargs["transient_read_rate"] = rng.uniform(0.005, 0.08)
        kwargs["transient_write_rate"] = rng.uniform(0.005, 0.08)
    elif profile == "permanent":
        kwargs["permanent_rate"] = rng.uniform(0.001, 0.02)
    elif profile == "torn":
        kwargs["torn_write_rate"] = rng.uniform(0.005, 0.05)
    elif profile == "mixed":
        kwargs["transient_read_rate"] = rng.uniform(0.0, 0.05)
        kwargs["transient_write_rate"] = rng.uniform(0.0, 0.05)
        kwargs["permanent_rate"] = rng.uniform(0.0, 0.01)
        kwargs["torn_write_rate"] = rng.uniform(0.0, 0.02)
    # "quiet": no storage faults — the fault-free path must stay correct.
    if rng.random() < 0.3:
        kwargs["max_faults"] = rng.randrange(1, 6)
    plan = FaultPlan(**kwargs)

    retry = None
    if rng.random() < 0.75:
        retry = RetryPolicy(
            max_attempts=rng.randrange(2, 5), seed=rng.randrange(2**31)
        )
    return ChaosScenario(
        index=index,
        case=case,
        algorithm=algorithm,
        plan=plan,
        retry=retry,
        buffer_pages=rng.choice((8, 16, 32)),
    )


def _ledger_violations(metrics_phases: dict[str, PhaseStats]) -> list[str]:
    """Post-recovery ledger sanity: no negative counts anywhere."""
    problems = []
    for name, stats in metrics_phases.items():
        for attr in (
            "page_reads",
            "page_writes",
            "random_reads",
            "random_writes",
            "buffer_hits",
        ):
            if getattr(stats, attr) < 0:
                problems.append(f"phase {name}: negative {attr}")
        if any(count < 0 for count in stats.cpu_ops.values()):
            problems.append(f"phase {name}: negative cpu op count")
    return problems


def run_chaos_case(scenario: ChaosScenario) -> ChaosOutcome:
    """Run one chaos scenario and classify its ending."""
    case = scenario.case
    oracle = oracle_for_case(case)
    obs = Observability()
    config = StorageConfig(
        buffer_pages=scenario.buffer_pages,
        fault_plan=scenario.plan,
        retry=scenario.retry,
    )
    label = scenario.describe()
    try:
        result = spatial_join(
            case.dataset_a,
            case.dataset_b,
            algorithm=scenario.algorithm,
            predicate=case.predicate,
            storage=config,
            obs=obs,
        )
    except FaultError as error:
        return ChaosOutcome(
            scenario=label,
            outcome="typed-failure",
            detail=f"{type(error).__name__}: {error}",
            violations=tuple(_metric_violations(obs, complete_success=False)),
        )
    except Exception as error:  # noqa: BLE001 - the bug class under test
        return ChaosOutcome(
            scenario=label,
            outcome="untyped-error",
            detail=f"{type(error).__name__}: {error}",
        )

    violations = _metric_violations(obs, complete_success=True)
    violations += _ledger_violations(result.metrics.phases)

    if result.pairs != oracle:
        extra = result.pairs - oracle
        missing = oracle - result.pairs
        return ChaosOutcome(
            scenario=label,
            outcome="wrong",
            detail=f"{len(extra)} bogus pair(s), {len(missing)} missing",
            violations=tuple(violations),
        )
    return ChaosOutcome(
        scenario=label, outcome="correct", violations=tuple(violations)
    )


def _metric_violations(obs: Observability, complete_success: bool) -> list[str]:
    """Retry bookkeeping invariants, readable from the metrics alone."""
    metrics = obs.metrics
    attempted = metrics.counter_total("faults.retries_attempted")
    succeeded = metrics.counter_total("faults.retries_succeeded")
    giveups = metrics.counter_total("faults.giveups")
    problems = []
    if attempted < succeeded:
        problems.append(
            f"retries_attempted ({attempted}) < retries_succeeded ({succeeded})"
        )
    if complete_success and giveups:
        problems.append(f"{giveups} give-up(s) on a fully successful run")
    return problems


def run_chaos(
    cases: int = 25,
    seed: int = 0,
    algorithms: tuple[str, ...] = CHAOS_ALGORITHMS,
    progress: Callable[[str], None] | None = None,
) -> Report:
    """Run ``cases`` sampled fault scenarios and report their endings:
    ``counts["tally"]`` says how many ended each way, and every ending
    other than correct or typed failure — or bookkeeping breach on a
    good ending — is a violation."""
    if cases < 1:
        raise ValueError("cases must be positive")
    roster = _shrunk_cases(seed)
    tally: dict[str, int] = {}
    outcomes: list[dict[str, Any]] = []
    report = Report(
        gate="chaos",
        counts={"seed": seed, "cases": cases, "tally": tally, "outcomes": outcomes},
    )
    for index in range(cases):
        scenario = sample_scenario(index, seed, cases=roster, algorithms=algorithms)
        outcome = run_chaos_case(scenario)
        tally[outcome.outcome] = tally.get(outcome.outcome, 0) + 1
        outcomes.append(asdict(outcome))
        if outcome.outcome not in GOOD_OUTCOMES:
            report.fail("outcome", outcome.scenario, f"{outcome.outcome}: {outcome.detail}")
        for violation in outcome.violations:
            report.fail("bookkeeping", outcome.scenario, violation)
        if progress is not None:
            progress(f"chaos {outcome.outcome:>13}  {scenario.describe()}")
    return report
