"""Columnar datasets: the in-memory layout of the fast path.

One :class:`ColumnarDataset` holds everything the memory-mode join
needs about one input as parallel NumPy arrays — entity id, filter-step
MBR corners, Filter-Tree level, and the curve key of the cell holding
the MBR center.  Ids and corners are the data set's own
(:meth:`~repro.join.dataset.SpatialDataset.columns`, built once per data
set); what depends on the join is added here with whole-column passes
(:meth:`~repro.filtertree.levels.LevelAssigner.levels` and
:meth:`~repro.curves.base.SpaceFillingCurve.keys`): no Python statement
runs per entity, and no PagedFile or BufferPool is touched.

The boxes are exactly the descriptor boxes of the ledger path: each
entity's MBR expanded by the predicate margin per side and clamped to
the unit square, so the two execution modes filter identical geometry
and their pair sets can be compared byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.curves.base import SpaceFillingCurve
from repro.curves.hilbert import HilbertCurve
from repro.filtertree.levels import LevelAssigner, quantize_array
from repro.join.dataset import SpatialDataset


@dataclass(frozen=True)
class ColumnarDataset:
    """One join input as parallel columns (struct-of-arrays).

    All arrays share one length; ``level`` is capped at the assigner's
    ``max_level`` and ``cell`` is the curve key, at order ``depth``, of
    the ``2^depth`` grid cell holding the (expanded) MBR center: the top
    ``2*depth`` bits of the center's full-order key, by the curve's
    prefix property.  The level-``l`` cell containing a box is
    ``cell >> 2*(depth - l)`` for ``l <= min(level, depth)``.
    """

    eid: np.ndarray  # int64
    xlo: np.ndarray  # float64
    ylo: np.ndarray
    xhi: np.ndarray
    yhi: np.ndarray
    level: np.ndarray  # int64, in [0, max_level]
    cell: np.ndarray  # int64 curve keys at order ``depth``
    depth: int

    def __len__(self) -> int:
        return len(self.eid)

    @classmethod
    def from_dataset(
        cls,
        dataset: SpatialDataset,
        margin: float = 0.0,
        curve: SpaceFillingCurve | None = None,
        assigner: LevelAssigner | None = None,
        depth: int | None = None,
    ) -> ColumnarDataset:
        """Add this join's columns to a :class:`SpatialDataset`'s own.

        ``margin`` is the predicate's MBR margin, applied by
        :meth:`SpatialDataset.boxes` — what
        :meth:`SpatialDataset.write_descriptors` applies too — so both
        modes classify identical boxes.  ``depth`` is how many curve
        levels ``cell`` resolves (default: the assigner's ``max_level``);
        each costs the curve kernel one pass over the input.
        """
        curve = curve or HilbertCurve()
        assigner = assigner or LevelAssigner(curve.order, min(16, curve.order))
        depth = assigner.max_level if depth is None else depth
        eid = dataset.columns()[0]
        xlo, ylo, xhi, yhi = dataset.boxes(margin)
        level = assigner.levels(xlo, ylo, xhi, yhi)
        qx = quantize_array((xlo + xhi) / 2, curve.side, "center x")
        qy = quantize_array((ylo + yhi) / 2, curve.side, "center y")
        if depth:
            shift = curve.order - depth
            cell = type(curve)(order=depth).keys(qx >> shift, qy >> shift)
        else:  # a curve has at least order 1; the one depth-0 cell is 0
            cell = np.zeros(len(eid), dtype=np.int64)
        return cls(eid, xlo, ylo, xhi, yhi, level, cell, depth)
