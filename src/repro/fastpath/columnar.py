"""Columnar datasets: the in-memory layout of the fast path.

One :class:`ColumnarDataset` holds everything the memory-mode join
needs about one input as parallel NumPy arrays — entity id, filter-step
MBR corners, Filter-Tree level, and the Hilbert key of the MBR center —
built **once** per input with the PR 1 batched kernels
(:meth:`~repro.filtertree.levels.LevelAssigner.levels`,
:meth:`~repro.curves.base.SpaceFillingCurve.keys`) and never touched by
a PagedFile or BufferPool.

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
    ``max_level`` and ``key`` is the Hilbert key of the (expanded) MBR
    center at full curve order — the level-``l`` cell containing the
    box is its top ``2*l`` bits (the curve's prefix property).
    """

    name: str
    eid: np.ndarray  # int64
    xlo: np.ndarray  # float64
    ylo: np.ndarray
    xhi: np.ndarray
    yhi: np.ndarray
    level: np.ndarray  # int64, in [0, max_level]
    key: np.ndarray  # int64 Hilbert center keys
    order: int

    def __len__(self) -> int:
        return len(self.eid)

    @classmethod
    def from_dataset(
        cls,
        dataset: SpatialDataset,
        margin: float = 0.0,
        curve: SpaceFillingCurve | None = None,
        assigner: LevelAssigner | None = None,
    ) -> ColumnarDataset:
        """Build the columns from a :class:`SpatialDataset`.

        ``margin`` is the predicate's MBR margin; expansion and clamping
        use the exact expressions of
        :meth:`SpatialDataset.write_descriptors`, so memory mode and
        ledger mode classify identical boxes.
        """
        curve = curve or HilbertCurve()
        assigner = assigner or LevelAssigner(
            order=curve.order, max_level=min(16, curve.order)
        )
        n = len(dataset)
        eid = np.empty(n, dtype=np.int64)
        boxes = np.empty((n, 4), dtype=np.float64)
        for row, entity in enumerate(dataset):
            box = (
                entity.mbr
                if margin == 0.0
                else entity.mbr.expanded(margin).clamped()
            )
            eid[row] = entity.eid
            boxes[row] = (box.xlo, box.ylo, box.xhi, box.yhi)
        xlo, ylo, xhi, yhi = boxes.T
        if n:
            level = assigner.levels(xlo, ylo, xhi, yhi)
            qx = quantize_array((xlo + xhi) / 2, curve.side, "center x")
            qy = quantize_array((ylo + yhi) / 2, curve.side, "center y")
            key = curve.keys(qx, qy)
        else:
            level = np.empty(0, dtype=np.int64)
            key = np.empty(0, dtype=np.int64)
        return cls(
            name=dataset.name,
            eid=eid,
            xlo=np.ascontiguousarray(xlo),
            ylo=np.ascontiguousarray(ylo),
            xhi=np.ascontiguousarray(xhi),
            yhi=np.ascontiguousarray(yhi),
            level=level,
            key=key,
            order=curve.order,
        )
