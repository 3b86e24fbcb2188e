"""Spatial data sets: named, immutable, validated columns.

Mirrors the paper's Table 3: every data set has a name, a type, a size
(entity count), and a *coverage* — "the total area occupied by the
entities over the area of the MBR of the data space".

A data set *is* its ``(eid, xlo, ylo, xhi, yhi)`` columns, checked once
at construction against the one input rule: corners finite and inside
the unit square, ``lo <= hi``, ids unique int64 integers.  No engine
reads an :class:`Entity`; one is minted only at the edge (refinement).
"""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.curves.base import SpaceFillingCurve
from repro.filtertree.levels import quantize_array
from repro.geometry.entity import Entity
from repro.geometry.rect import Rect
from repro.storage.manager import StorageManager
from repro.storage.pagedfile import PagedFile
from repro.storage.records import DESCRIPTOR

CORNERS = ("xlo", "ylo", "xhi", "yhi")
Geometry = tuple[type, tuple[np.ndarray, ...]]


class SpatialDataset:
    """A named spatial data set, built from entities or from columns
    (:meth:`from_columns`).  Its contents are fixed at construction, so
    everything derived from them may be kept."""

    def __init__(self, name: str, entities: Iterable[Entity], description: str = "") -> None:
        entities = tuple(entities)
        boxes = [entity.mbr for entity in entities]
        corners = [np.fromiter(map(attrgetter(c), boxes), np.float64, len(boxes)) for c in CORNERS]
        self._freeze(name, description, [entity.eid for entity in entities], corners, None)
        vars(self)["entities"] = entities  # the view is the caller's own tuple

    @classmethod
    def from_columns(
        cls, name: str, eid: Sequence[int], *corners: Sequence[float],
        geometry: Geometry | None = None, description: str = "",
    ) -> SpatialDataset:
        """A data set of the rows of ``eid`` and the four ``corners``
        columns (``xlo, ylo, xhi, yhi``), no entity built.  ``geometry`` is
        ``(shape, columns)``: row ``i``'s exact geometry is ``shape`` of
        row ``i`` of ``columns`` (a :class:`~repro.geometry.shapes.Segment`
        of its endpoints, a :class:`~repro.geometry.shapes.Point` of its
        coordinates); without it an entity's geometry is its MBR."""
        dataset = cls.__new__(cls)
        xlo, ylo, xhi, yhi = (np.array(column, dtype=np.float64) for column in corners)
        if geometry is not None:
            shape, columns = geometry
            geometry = (shape, tuple(_read_only(np.array(c, np.float64)) for c in columns))
        dataset._freeze(name, description, eid, (xlo, ylo, xhi, yhi), geometry)
        return dataset

    def _freeze(self, name, description, ids, corners, geometry: Geometry | None) -> None:
        """Check and keep the columns.  One dtype inference over all ids
        decides (an id outside int64 would be cast, or die inside NumPy)."""
        eid = np.array(ids, dtype=None if len(ids) else np.int64)
        if eid.dtype.kind != "i":
            row = next(i for i, one in enumerate(ids) if np.array(one).dtype.kind != "i")
            rule = f"id {ids[row]!r} is not an int64 integer"
            raise ValueError(f"data set {name!r}, row {row}: {rule}")
        columns = tuple(map(_read_only, (eid.astype(np.int64, copy=False), *corners)))
        _check(name, *columns)
        vars(self).update(name=name, description=description, geometry=geometry, _columns=columns)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"a SpatialDataset is immutable (setting {name!r})")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"a SpatialDataset is immutable (deleting {name!r})")

    def __len__(self) -> int:
        return len(self._columns[0])

    def __iter__(self) -> Iterator[Entity]:
        return iter(self.entities)

    @cached_property
    def entities(self) -> tuple[Entity, ...]:
        """The rows as entities, minted from the columns (and the per-row
        geometry) on first use and kept; a batch join mints none."""
        eid, xlo, ylo, xhi, yhi = (column.tolist() for column in self._columns)
        boxes = list(map(Rect, xlo, ylo, xhi, yhi))
        shapes = boxes
        if self.geometry is not None:
            shape, columns = self.geometry
            shapes = map(shape, *(column.tolist() for column in columns))
        return tuple(map(Entity, eid, boxes, shapes))

    def columns(self) -> tuple[np.ndarray, ...]:
        """``(eid int64, xlo, ylo, xhi, yhi float64)``: all of a data set
        that does not depend on the join it is in, read-only and shared
        by every caller."""
        return self._columns

    def boxes(self, margin: float = 0.0) -> tuple[np.ndarray, ...]:
        """The filter step's ``(xlo, ylo, xhi, yhi)``: every MBR expanded
        by ``margin`` per side and clipped to the unit square — the IEEE
        operations of ``Rect.expanded(margin).clamped()``, column-wise
        into new arrays — or, with no margin, the data set's own corners.
        Both execution modes filter these boxes."""
        if margin < 0:
            raise ValueError("margin must be non-negative")
        xlo, ylo, xhi, yhi = self._columns[1:]
        if margin == 0.0:
            return xlo, ylo, xhi, yhi
        return (
            *(np.clip(low - margin, 0.0, 1.0) for low in (xlo, ylo)),
            *(np.clip(high + margin, 0.0, 1.0) for high in (xhi, yhi)),
        )

    def mbr(self) -> Rect:
        """MBR of the whole data space: the corner columns' extremes."""
        if not len(self):
            raise ValueError(f"data set {self.name!r} is empty")
        xlo, ylo, xhi, yhi = self._columns[1:]
        return Rect(float(xlo.min()), float(ylo.min()), float(xhi.max()), float(yhi.max()))

    def coverage(self) -> float:
        """Total entity MBR area over the data-space MBR area (Table 3)."""
        space = self.mbr().area
        if space == 0.0:
            return 0.0
        xlo, ylo, xhi, yhi = self._columns[1:]
        # Python's left-to-right sum: np.sum adds pairwise, moving Table 3's last bit.
        return sum(((xhi - xlo) * (yhi - ylo)).tolist()) / space

    def size_pages(self, storage: StorageManager) -> int:
        """The paper's ``S_f``: file size in pages under the default
        entity-descriptor layout."""
        per_page = storage.descriptors_per_page()
        return -(-len(self) // per_page)

    def entity_by_id(self) -> dict[int, Entity]:
        """Lookup table id -> entity (used by the refinement step)."""
        return {entity.eid: entity for entity in self.entities}

    def descriptors(
        self, margin: float = 0.0, curve: SpaceFillingCurve | None = None
    ) -> np.ndarray:
        """This data set as one read-only :data:`DESCRIPTOR` array, one
        column pass per field: the ids, the :meth:`boxes` of ``margin``,
        and the ``curve`` keys of their centres if given (else zero)."""
        rows = np.zeros(len(self), dtype=DESCRIPTOR)
        rows["eid"] = self._columns[0]
        for name, column in zip(CORNERS, self.boxes(margin)):
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


def _check(name: str, eid: np.ndarray, *corners: np.ndarray) -> None:
    """The one input rule, vectorised; a violation is one ``ValueError``
    naming the data set, the first row that breaks it, and the rule."""

    def refuse(row: int, rule: str) -> None:
        raise ValueError(f"data set {name!r}, row {row} (id {eid[row]}): {rule}")

    for field, column in zip(CORNERS, corners):
        # Written so that NaN, which fails every comparison, fails it.
        if column.size and not (column.min() >= 0.0 and column.max() <= 1.0):
            row = int(np.argmin((column >= 0.0) & (column <= 1.0)))
            refuse(row, f"{field} coordinate outside the unit square ({float(column[row])})")
    xlo, ylo, xhi, yhi = corners
    for low, high, rule in ((xlo, xhi, "xlo > xhi"), (ylo, yhi, "ylo > yhi")):
        inverted = low > high
        if inverted.any():
            refuse(int(np.argmax(inverted)), rule)
    if len(eid) > 1 and not (eid[1:] > eid[:-1]).all():
        order = np.argsort(eid, kind="stable")
        repeats = order[1:][eid[order[1:]] == eid[order[:-1]]]
        if repeats.size:
            refuse(int(repeats.min()), "duplicate id")


def _read_only(column: np.ndarray) -> np.ndarray:
    column.setflags(write=False)
    return column
