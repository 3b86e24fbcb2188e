"""Join results: the filter step's candidate pairs as one canonical
``PAIR`` array, refined pairs from the refinement step, and metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.join.dataset import SpatialDataset
from repro.join.metrics import JoinMetrics
from repro.join.predicates import JoinPredicate
from repro.storage.iostats import IOStats
from repro.storage.records import PAIR

Pair = tuple[int, int]


def canonical_pairs(raw: np.ndarray, self_join: bool) -> np.ndarray:
    """``raw`` in the one form results compare in: a read-only ``PAIR``
    array, rows unique and sorted by ``(a, b)``.  A self join folds
    mirrored pairs to ``(min, max)`` and drops ``(e, e)``: both arise
    because the algorithms join a data set with an identical copy of
    itself (section 5.2.1).  Ids spanning under ``2**32`` pack into one
    ``uint64`` key for ``np.sort``, wider ones take ``np.lexsort``."""
    a, b = raw["a"], raw["b"]
    if self_join:
        a, b = np.minimum(a, b), np.maximum(a, b)
        a, b = a[a != b], b[a != b]
    a0, b0 = (a.min(), b.min()) if len(a) else (0, 0)
    if len(a) and max(int(a.max()) - int(a0), int(b.max()) - int(b0)) < 1 << 32:
        key = np.sort((a - a0).astype(np.uint64) << np.uint64(32) | (b - b0).astype(np.uint64))
        a = (key >> np.uint64(32)).astype(np.int64) + a0
        b = (key & np.uint64(0xFFFFFFFF)).astype(np.int64) + b0
    else:
        order = np.lexsort((b, a))
        a, b = a[order], b[order]
    fresh = np.ones(len(a), dtype=bool)
    fresh[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    pairs = np.empty(int(fresh.sum()), dtype=PAIR)
    pairs["a"], pairs["b"] = a[fresh], b[fresh]
    pairs.flags.writeable = False
    return pairs


@dataclass(eq=False)
class JoinResult:
    """Outcome of one spatial join; ``pair_array`` is canonical."""

    pair_array: np.ndarray
    metrics: JoinMetrics
    self_join: bool = False
    refined: frozenset[Pair] | None = field(default=None)

    def __len__(self) -> int:
        return len(self.pair_array)

    @cached_property
    def pairs(self) -> frozenset[Pair]:
        """The pairs as a set of tuples, built on first access."""
        return frozenset(self.pair_array.tolist())

    def refine(
        self,
        predicate: JoinPredicate,
        dataset_a: SpatialDataset,
        dataset_b: SpatialDataset,
        stats: IOStats | None = None,
    ) -> frozenset[Pair]:
        """Run the refinement step over the candidate pairs.

        Each candidate pair is checked under the exact predicate
        (section 2's refinement step); the result is cached in
        ``self.refined``.  CPU work is charged as ``refine`` operations.
        """
        entities_a = dataset_a.entity_by_id()
        entities_b = entities_a if self.self_join else dataset_b.entity_by_id()
        pairs = self.pair_array.tolist()
        if stats is not None and pairs:
            stats.charge_cpu("refine", len(pairs))
        self.refined = frozenset(
            (a, b) for a, b in pairs if predicate.refine(entities_a[a], entities_b[b])
        )
        return self.refined
