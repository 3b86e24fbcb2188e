"""Verification cases: one (A, B, predicate) input to cross-check.

A :class:`VerifyCase` is what the differential harness feeds to every
executor — two data sets and a join predicate.  Passing the *same*
object for both data sets marks a self join, mirroring the
:func:`repro.join.api.spatial_join` convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.geometry.entity import Entity
from repro.join.dataset import SpatialDataset
from repro.join.predicates import Intersects, JoinPredicate


@dataclass(frozen=True)
class VerifyCase:
    """One differential-testing input."""

    name: str
    dataset_a: SpatialDataset
    dataset_b: SpatialDataset
    predicate: JoinPredicate = field(default_factory=Intersects)

    @property
    def self_join(self) -> bool:
        return self.dataset_a is self.dataset_b

    @property
    def margin(self) -> float:
        return self.predicate.mbr_margin

    def describe(self) -> str:
        shape = (
            f"{len(self.dataset_a)} self"
            if self.self_join
            else f"{len(self.dataset_a)}x{len(self.dataset_b)}"
        )
        return f"{self.name} ({shape}, {self.predicate.name})"

    def with_datasets(
        self, dataset_a: SpatialDataset, dataset_b: SpatialDataset, suffix: str = ""
    ) -> VerifyCase:
        """This case over different data sets (used by transforms and
        by counterexample minimization).  Preserves self-join identity:
        pass the same object twice to keep a self join."""
        return replace(
            self,
            name=self.name + suffix,
            dataset_a=dataset_a,
            dataset_b=dataset_b,
        )

    def with_entities(
        self, entities_a: list[Entity], entities_b: list[Entity], suffix: str = ""
    ) -> VerifyCase:
        """This case over entity subsets.  For a self join both lists
        must be the same list (one shrunken data set, joined with
        itself)."""
        sub_a = SpatialDataset(self.dataset_a.name, list(entities_a))
        if self.self_join:
            sub_b = sub_a
        else:
            sub_b = SpatialDataset(self.dataset_b.name, list(entities_b))
        return self.with_datasets(sub_a, sub_b, suffix=suffix)
