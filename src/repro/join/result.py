"""Join results: candidate pairs from the filter step, refined pairs
from the refinement step, and the metrics of the run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.geometry.entity import Entity
from repro.join.metrics import JoinMetrics
from repro.join.predicates import JoinPredicate
from repro.storage.iostats import IOStats

Pair = tuple[int, int]


def canonical_pairs(
    raw_pairs: Iterable[Pair] | np.ndarray, self_join: bool
) -> frozenset[Pair]:
    """Normalize a raw pair collection for comparison across algorithms.

    For a self join, mirrored pairs collapse to ``(min, max)`` and
    degenerate ``(e, e)`` pairs are dropped (they arise because the
    algorithms join a data set with an identical copy of itself —
    "although only a single data set is involved, the algorithm does
    not exploit that fact", section 5.2.1).

    A :data:`~repro.storage.records.PAIR` array becomes tuples here, its
    ids interned: one ``int`` per distinct id, shared by every pair that
    names it, where converting each column would mint two per pair.
    """
    if isinstance(raw_pairs, np.ndarray):
        a, b = raw_pairs["a"], raw_pairs["b"]
        if self_join:
            a, b = np.minimum(a, b), np.maximum(a, b)
            a, b = a[a != b], b[a != b]
        ids, slots = np.unique(np.concatenate([a, b]), return_inverse=True)
        interned = np.array(ids.tolist(), dtype=object)[slots].tolist()
        return frozenset(zip(interned[: len(a)], interned[len(a) :]))
    if not self_join:
        return frozenset(raw_pairs)
    return frozenset(
        (min(a, b), max(a, b)) for a, b in raw_pairs if a != b
    )


@dataclass
class JoinResult:
    """Outcome of one spatial join execution."""

    pairs: frozenset[Pair]
    metrics: JoinMetrics
    self_join: bool = False
    refined: frozenset[Pair] | None = field(default=None)

    def __len__(self) -> int:
        return len(self.pairs)

    def refine(
        self,
        predicate: JoinPredicate,
        entities_a: dict[int, Entity],
        entities_b: dict[int, Entity],
        stats: IOStats | None = None,
    ) -> frozenset[Pair]:
        """Run the refinement step over the candidate pairs.

        Each candidate pair is checked under the exact predicate
        (section 2's refinement step); the result is cached in
        ``self.refined``.  CPU work is charged as ``refine`` operations.
        """
        surviving = set()
        for eid_a, eid_b in self.pairs:
            if stats is not None:
                stats.charge_cpu("refine")
            if predicate.refine(entities_a[eid_a], entities_b[eid_b]):
                surviving.add((eid_a, eid_b))
        self.refined = frozenset(surviving)
        return self.refined
