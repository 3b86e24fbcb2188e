"""Spatial data sets: named collections of entities.

Mirrors the paper's Table 3: every data set has a name, a type, a size
(entity count), and a *coverage* — "the total area occupied by the
entities over the area of the MBR of the data space".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.curves.base import SpaceFillingCurve
from repro.geometry.entity import Entity
from repro.geometry.rect import Rect
from repro.storage.backend import Record
from repro.storage.manager import StorageManager
from repro.storage.pagedfile import PagedFile


@dataclass
class SpatialDataset:
    """A named spatial data set."""

    name: str
    entities: list[Entity]
    description: str = ""
    _mbr_cache: Rect | None = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.entities)

    def __iter__(self) -> Iterator[Entity]:
        return iter(self.entities)

    def mbr(self) -> Rect:
        """MBR of the whole data space (cached)."""
        if not self.entities:
            raise ValueError(f"data set {self.name!r} is empty")
        if self._mbr_cache is None:
            box = self.entities[0].mbr
            for entity in self.entities[1:]:
                box = box.union(entity.mbr)
            self._mbr_cache = box
        return self._mbr_cache

    def coverage(self) -> float:
        """Total entity MBR area over the data-space MBR area (Table 3)."""
        space = self.mbr().area
        if space == 0.0:
            return 0.0
        return sum(entity.mbr.area for entity in self.entities) / space

    def size_pages(self, storage: StorageManager) -> int:
        """The paper's ``S_f``: file size in pages under the default
        entity-descriptor layout."""
        per_page = storage.descriptors_per_page()
        return -(-len(self.entities) // per_page)

    def entity_by_id(self) -> dict[int, Entity]:
        """Lookup table id -> entity (used by the refinement step)."""
        return {entity.eid: entity for entity in self.entities}

    def write_descriptors(
        self,
        storage: StorageManager,
        file_name: str,
        margin: float = 0.0,
        curve: SpaceFillingCurve | None = None,
    ) -> PagedFile:
        """Materialize this data set as a descriptor file.

        ``margin`` expands every MBR (per side) for distance predicates;
        expanded boxes are clipped to the unit square.  When ``curve``
        is given, Hilbert values are precomputed into the descriptors
        (the paper's "part of the descriptors of each spatial entity"
        option, section 3.1); otherwise the field is written as zero and
        S3J computes values on the fly.
        """
        def descriptors() -> Iterator[Record]:
            for entity in self.entities:
                box = entity.mbr if margin == 0.0 else entity.mbr.expanded(margin).clamped()
                hilbert = 0
                if curve is not None:
                    hilbert = curve.key_of_normalized(*box.center)
                yield (entity.eid, box.xlo, box.ylo, box.xhi, box.yhi, hilbert)

        handle = storage.create_file(file_name)
        handle.extend(descriptors())
        handle.flush()
        return handle
