"""The shifted-copy transform producing LB' and MG'.

Section 5.2.1: "the center of each spatial entity in the original data
set is taken as the position of the lower left corner of an entity of
the same size in the new data set" — i.e. every entity is translated
by half its MBR extent in +x and +y.
"""

from __future__ import annotations

import numpy as np

from repro.join.dataset import SpatialDataset


def shifted_copy(dataset: SpatialDataset, name: str | None = None) -> SpatialDataset:
    """The paper's primed data sets (LB -> LB', MG -> MG'), column by column.
    A data set built from entities has no per-row geometry: the entities
    of its copy are their shifted MBRs."""
    eid, xlo, ylo, xhi, yhi = dataset.columns()
    # Keep the shifted entity inside the unit square.
    dx = np.minimum((xhi - xlo) / 2, 1.0 - xhi)
    dy = np.minimum((yhi - ylo) / 2, 1.0 - yhi)
    geometry = dataset.geometry
    if geometry is not None:
        shape, columns = geometry
        # A point's and a segment's columns alternate x and y.
        geometry = (shape, tuple(c + (dx, dy)[i % 2] for i, c in enumerate(columns)))
    return SpatialDataset.from_columns(
        name or f"{dataset.name}'", eid, xlo + dx, ylo + dy, xhi + dx, yhi + dy,
        geometry=geometry, description=f"shifted copy of {dataset.name}",
    )
