"""Pair-set diffing and counterexample minimization.

When an executor's pair set diverges from the oracle, the raw diff on a
few-hundred-entity workload is unactionable.  The minimizer shrinks the
failing input with greedy delta debugging (ddmin over each data set,
alternating sides until a fixed point), re-checking executor-vs-oracle
agreement on every candidate subset — the result is typically a
handful of entities whose exact coordinates pin the bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from repro.geometry.entity import Entity
from repro.join.result import Pair
from repro.verify.cases import VerifyCase
from repro.verify.oracle import oracle_for_case

PairRunner = Callable[[VerifyCase], frozenset[Pair]]


@dataclass(frozen=True)
class PairDiff:
    """Expected-vs-got pair sets."""

    missing: frozenset[Pair]  # in the oracle, not produced
    extra: frozenset[Pair]  # produced, not in the oracle

    @property
    def empty(self) -> bool:
        return not self.missing and not self.extra

    def describe(self, limit: int = 5) -> str:
        parts = []
        for label, pairs in (("missing", self.missing), ("extra", self.extra)):
            if pairs:
                shown = ", ".join(map(str, sorted(pairs)[:limit]))
                suffix = ", ..." if len(pairs) > limit else ""
                parts.append(f"{len(pairs)} {label} [{shown}{suffix}]")
        return "; ".join(parts) if parts else "no differences"


def diff_pairs(
    expected: frozenset[Pair], got: frozenset[Pair]
) -> PairDiff:
    """Diff an executor's pair set against the expected one."""
    return PairDiff(
        missing=frozenset(expected - got), extra=frozenset(got - expected)
    )


@dataclass
class Counterexample:
    """A minimized failing input."""

    entities_a: list[Entity]
    entities_b: list[Entity]
    self_join: bool
    diff: PairDiff
    runs_used: int = 0

    def describe(self) -> str:
        def fmt(entities: list[Entity]) -> str:
            return "; ".join(
                f"#{e.eid} [{e.mbr.xlo:.6g},{e.mbr.xhi:.6g}]x"
                f"[{e.mbr.ylo:.6g},{e.mbr.yhi:.6g}]"
                for e in entities
            )

        lines = [
            f"minimized to {len(self.entities_a)}"
            + ("" if self.self_join else f"x{len(self.entities_b)}")
            + f" entities ({self.runs_used} shrink runs): {self.diff.describe()}",
            f"  A: {fmt(self.entities_a)}",
        ]
        if not self.self_join:
            lines.append(f"  B: {fmt(self.entities_b)}")
        return "\n".join(lines)


@dataclass
class Divergence:
    """One executor producing the wrong pair set on one case."""

    case: str
    transform: str
    executor: str
    expected: int
    got: int
    diff: PairDiff
    counterexample: Counterexample | None = field(default=None)

    def describe(self) -> str:
        text = f"expected {self.expected} pairs, got {self.got} — {self.diff.describe()}"
        if self.counterexample is not None:
            text += "\n" + self.counterexample.describe()
        return text


def _ddmin(
    items: list[Entity],
    still_fails: Callable[[list[Entity]], bool],
    budget: list[int],
) -> list[Entity]:
    """Greedy delta debugging on one entity list."""
    granularity = 2
    while len(items) >= 2 and budget[0] > 0:
        chunk = math.ceil(len(items) / granularity)
        reduced = False
        for start in range(0, len(items), chunk):
            candidate = items[:start] + items[start + chunk :]
            if not candidate:
                continue
            budget[0] -= 1
            if still_fails(candidate):
                items = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                break
            if budget[0] <= 0:
                break
        if not reduced:
            if chunk == 1:
                break
            granularity = min(granularity * 2, len(items))
    return items


def minimize_counterexample(
    case: VerifyCase,
    run_pairs: PairRunner,
    max_runs: int = 80,
) -> Counterexample:
    """Shrink a diverging case to a minimal failing input.

    ``run_pairs`` executes the diverging executor on a (sub-)case and
    returns its pair set; a subset "fails" when that pair set still
    differs from the oracle on the same subset.  At most ``max_runs``
    executor runs are spent shrinking.
    """
    budget = [max_runs]

    def diff_of(entities_a: list[Entity], entities_b: list[Entity]) -> PairDiff:
        sub = case.with_entities(entities_a, entities_b)
        return diff_pairs(oracle_for_case(sub), run_pairs(sub))

    entities_a = list(case.dataset_a)
    entities_b = entities_a if case.self_join else list(case.dataset_b)

    if case.self_join:
        entities_a = _ddmin(
            entities_a,
            lambda sub: not diff_of(sub, sub).empty,
            budget,
        )
        entities_b = entities_a
    else:
        # Alternate sides until neither shrinks further (or the budget
        # runs out); shrinking one side often unlocks the other.
        while budget[0] > 0:
            before = (len(entities_a), len(entities_b))
            entities_a = _ddmin(
                entities_a,
                lambda sub: not diff_of(sub, entities_b).empty,
                budget,
            )
            entities_b = _ddmin(
                entities_b,
                lambda sub: not diff_of(entities_a, sub).empty,
                budget,
            )
            if (len(entities_a), len(entities_b)) == before:
                break

    return Counterexample(
        entities_a=entities_a,
        entities_b=entities_b,
        self_join=case.self_join,
        diff=diff_of(entities_a, entities_b),
        runs_used=max_runs - budget[0],
    )
