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
from repro.filtertree.levels import quantize_array
from repro.geometry.entity import Entity
from repro.geometry.rect import Rect
from repro.storage.manager import StorageManager
from repro.storage.pagedfile import PagedFile
from repro.storage.records import DESCRIPTOR


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
    def _ids(self) -> np.ndarray | None:
        """The ids as one int64 column, or ``None`` when some id is not
        an integer in int64 range (one dtype inference over the id list
        decides: others would be silently cast, or die in NumPy)."""
        ids = list(map(attrgetter("eid"), self.entities))
        eid = np.array(ids, dtype=None if ids else np.int64)
        return _read_only(eid.astype(np.int64, copy=False)) if eid.dtype.kind == "i" else None

    @cached_property
    def _columns(self) -> tuple[np.ndarray, ...]:
        if self._ids is None:
            bad = next(e.eid for e in self.entities if np.array(e.eid).dtype.kind != "i")
            raise ValueError(f"data set {self.name!r}: id {bad!r} is not an int64 integer")
        return (self._ids, *self._corners)

    def columns(self) -> tuple[np.ndarray, ...]:
        """``(eid int64, xlo, ylo, xhi, yhi float64)``: all of a data set
        that does not depend on the join it is in.  Built on first use,
        then kept and shared by every caller, hence read-only.  Ids must
        be int64 integers (``ValueError`` names the first that is not);
        the corners alone (:meth:`mbr`, :meth:`coverage`) and ledger
        mode take any id."""
        return self._columns

    def boxes(self, margin: float = 0.0) -> tuple[np.ndarray, ...]:
        """The filter step's ``(xlo, ylo, xhi, yhi)``: every MBR expanded
        by ``margin`` per side and clipped to the unit square — the IEEE
        operations of ``Rect.expanded(margin).clamped()``, column-wise
        into new arrays — or, with no margin, the data set's own corners.
        Both execution modes filter these boxes."""
        if margin < 0:
            raise ValueError("margin must be non-negative")
        xlo, ylo, xhi, yhi = self._corners
        if margin == 0.0:
            return xlo, ylo, xhi, yhi
        return (
            *(np.clip(low - margin, 0.0, 1.0) for low in (xlo, ylo)),
            *(np.clip(high + margin, 0.0, 1.0) for high in (xhi, yhi)),
        )

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

    def descriptors(
        self, margin: float = 0.0, curve: SpaceFillingCurve | None = None
    ) -> np.ndarray:
        """This data set as one read-only :data:`DESCRIPTOR` array, one
        column pass per field: the :meth:`boxes` of ``margin``, and the
        ``curve`` keys of their centres if given (else zero).  Ids that
        are not int64 integers are written as their entity's position
        (:meth:`descriptor_ids`)."""
        rows = np.zeros(len(self.entities), dtype=DESCRIPTOR)
        rows["eid"] = np.arange(len(rows)) if self._ids is None else self._ids
        for name, column in zip(("xlo", "ylo", "xhi", "yhi"), self.boxes(margin)):
            rows[name] = column
        if curve is not None:
            qx = quantize_array((rows["xlo"] + rows["xhi"]) / 2, curve.side, "center x")
            qy = quantize_array((rows["ylo"] + rows["yhi"]) / 2, curve.side, "center y")
            rows["hkey"] = curve.keys(qx, qy)
        return _read_only(rows)

    def write_descriptors(
        self,
        storage: StorageManager,
        file_name: str,
        margin: float = 0.0,
        curve: SpaceFillingCurve | None = None,
    ) -> PagedFile:
        """Materialize this data set as a descriptor file
        (:meth:`descriptors`).  A ``curve`` precomputes the Hilbert
        values into the descriptors (the paper's "part of the
        descriptors of each spatial entity" option, section 3.1);
        otherwise S3J computes them on the fly."""
        handle = storage.create_file(file_name)
        handle.extend(self.descriptors(margin, curve))
        handle.flush()
        return handle

    def descriptor_ids(self) -> list | None:
        """The entity ids by descriptor id when :meth:`write_descriptors`
        writes positions (some id is not an int64 integer), else
        ``None``: the descriptors carry the ids themselves."""
        return None if self._ids is not None else [entity.eid for entity in self.entities]


def _read_only(column: np.ndarray) -> np.ndarray:
    column.setflags(write=False)
    return column
