"""Spatial data sets: named, immutable collections of entities.

Mirrors the paper's Table 3: every data set has a name, a type, a size
(entity count), and a *coverage* — "the total area occupied by the
entities over the area of the MBR of the data space".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Iterator, Sequence

import numpy as np

from repro.curves.base import SpaceFillingCurve
from repro.geometry.entity import Entity
from repro.geometry.rect import Rect
from repro.storage.backend import Record
from repro.storage.manager import StorageManager
from repro.storage.pagedfile import PagedFile


@dataclass(frozen=True)
class SpatialDataset:
    """A named spatial data set.  Its contents are fixed at construction
    (``entities`` is kept as a tuple, the instance is frozen), so the
    columns it builds on first use and keeps cannot go stale."""

    name: str
    entities: Sequence[Entity]
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "entities", tuple(self.entities))

    def __len__(self) -> int:
        return len(self.entities)

    def __iter__(self) -> Iterator[Entity]:
        return iter(self.entities)

    @cached_property
    def _corners(self) -> tuple[np.ndarray, ...]:
        """``(xlo, ylo, xhi, yhi)`` float64, one whole-column pass each."""
        boxes = list(map(attrgetter("mbr"), self.entities))
        return tuple(
            _read_only(np.fromiter(map(attrgetter(corner), boxes), np.float64, len(boxes)))
            for corner in ("xlo", "ylo", "xhi", "yhi")
        )

    @cached_property
    def _columns(self) -> tuple[np.ndarray, ...]:
        ids = list(map(attrgetter("eid"), self.entities))
        eid = np.array(ids, dtype=None if ids else np.int64)
        if eid.dtype.kind != "i":
            bad = next(i for i in ids if np.array(i).dtype.kind != "i")
            raise ValueError(f"data set {self.name!r}: id {bad!r} is not an int64 integer")
        return (_read_only(eid.astype(np.int64, copy=False)), *self._corners)

    def columns(self) -> tuple[np.ndarray, ...]:
        """``(eid int64, xlo, ylo, xhi, yhi float64)``: all of a data set
        that does not depend on the join it is in.  Built on first use,
        then kept and shared by every caller, hence read-only.  Ids must
        be integers in int64 range (one dtype inference over the id list
        decides): others would be silently cast, or die in NumPy.  The
        corners alone (:meth:`mbr`, :meth:`coverage`) take any id."""
        return self._columns

    def mbr(self) -> Rect:
        """MBR of the whole data space: the corner columns' extremes."""
        if not self.entities:
            raise ValueError(f"data set {self.name!r} is empty")
        xlo, ylo, xhi, yhi = self._corners
        return Rect(float(xlo.min()), float(ylo.min()), float(xhi.max()), float(yhi.max()))

    def coverage(self) -> float:
        """Total entity MBR area over the data-space MBR area (Table 3)."""
        space = self.mbr().area
        if space == 0.0:
            return 0.0
        xlo, ylo, xhi, yhi = self._corners
        # Python's left-to-right sum: np.sum adds pairwise, moving Table 3's last bit.
        return sum(((xhi - xlo) * (yhi - ylo)).tolist()) / space

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


def _read_only(column: np.ndarray) -> np.ndarray:
    column.setflags(write=False)
    return column
