"""Synthetic and real-data-like workload generators (Table 3).

Every generator is deterministic given its seed and emits a
:class:`~repro.join.dataset.SpatialDataset` straight from its random
draws as columns (ids, MBR corners, and a road's endpoints or a point's
coordinates), inside the unit square; no ``Entity`` is built unless a
caller iterates the data set:

- :func:`~repro.datagen.uniform.uniform_squares` — the UN1/UN2/UN3
  uniformly distributed square data sets, parameterized by coverage.
- :func:`~repro.datagen.triangular.triangular_squares` — the TR data
  set: square sizes ``d = 2^-l`` with ``l`` triangular-distributed.
- :func:`~repro.datagen.tiger.road_segments` — TIGER/Line-like road
  segment data sets standing in for the Long Beach (LB) and Montgomery
  (MG) county extracts (see DESIGN.md substitutions).
- :func:`~repro.datagen.cfd.cfd_points` — a CFD-vertex-like point data
  set: a dense cluster around an airfoil cross-section with a sparse
  far field.
- :func:`~repro.datagen.shift.shifted_copy` — the LB'/MG' transform:
  each entity's center becomes the lower-left corner of an equal-size
  entity (column arithmetic).
- :mod:`~repro.datagen.paper` — the full Table 3 catalog at a chosen
  scale factor.
"""

from repro.datagen.cfd import cfd_points
from repro.datagen.paper import paper_datasets, table3_rows
from repro.datagen.shift import shifted_copy
from repro.datagen.tiger import road_segments
from repro.datagen.triangular import triangular_squares
from repro.datagen.uniform import uniform_squares, uniform_squares_by_coverage

__all__ = [
    "cfd_points",
    "paper_datasets",
    "road_segments",
    "shifted_copy",
    "table3_rows",
    "triangular_squares",
    "uniform_squares",
    "uniform_squares_by_coverage",
]
