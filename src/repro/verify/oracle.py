"""The brute-force oracle: the answers every engine must produce.

All-pairs MBR intersection over margin-expanded, unit-square-clamped
boxes — exactly the boxes :meth:`SpatialDataset.write_descriptors`
materializes for the filter step, under the library-wide
closed-interval semantics (boundary contact counts).  Quadratic, but
vectorized with NumPy so verification workloads of a few thousand
entities stay fast; the oracle shares no code with any of the join
algorithms beyond :class:`~repro.geometry.rect.Rect`.
:func:`oracle_window` is the same test against one query window — the
only brute-force window/point scan in the package.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.rect import Rect
from repro.join.dataset import SpatialDataset
from repro.join.result import Pair
from repro.verify.cases import VerifyCase


def descriptor_boxes(
    dataset: SpatialDataset, margin: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """``(eids, boxes)`` arrays of the filter-step boxes: each entity's
    MBR expanded by ``margin`` per side and clamped to the unit square
    (the exact box the descriptor files carry)."""
    # Not ``dataset.columns()``: the oracle shares no code with what it judges.
    eids = np.empty(len(dataset), dtype=np.int64)
    boxes = np.empty((len(dataset), 4), dtype=np.float64)
    for row, entity in enumerate(dataset):
        box = (
            entity.mbr
            if margin == 0.0
            else entity.mbr.expanded(margin).clamped()
        )
        eids[row] = entity.eid
        boxes[row] = (box.xlo, box.ylo, box.xhi, box.yhi)
    return eids, boxes


def oracle_pairs(
    dataset_a: SpatialDataset,
    dataset_b: SpatialDataset,
    margin: float = 0.0,
) -> frozenset[Pair]:
    """Every pair of MBR-intersecting entities, canonicalized the same
    way the algorithms' results are (self join when both arguments are
    the same object)."""
    self_join = dataset_a is dataset_b
    eids_a, boxes_a = descriptor_boxes(dataset_a, margin)
    eids_b, boxes_b = (eids_a, boxes_a) if self_join else descriptor_boxes(dataset_b, margin)

    # Closed-interval intersection, broadcast to an |A| x |B| mask.
    a = boxes_a[:, None, :]
    b = boxes_b[None, :, :]
    mask = (
        (a[..., 0] <= b[..., 2])
        & (b[..., 0] <= a[..., 2])
        & (a[..., 1] <= b[..., 3])
        & (b[..., 1] <= a[..., 3])
    )
    rows, cols = np.nonzero(mask)
    pairs = zip(eids_a[rows].tolist(), eids_b[cols].tolist())
    if self_join:  # mirrored pairs fold to (min, max); (e, e) is no pair
        return frozenset((min(p), max(p)) for p in pairs if p[0] != p[1])
    return frozenset(pairs)


def oracle_window(dataset: SpatialDataset, window: Rect) -> tuple[int, ...]:
    """Sorted ids of the entities whose MBR intersects ``window``
    (closed intervals; a point query is the degenerate window
    ``Rect.point(x, y)``)."""
    eids, boxes = descriptor_boxes(dataset)
    mask = (
        (boxes[:, 0] <= window.xhi)
        & (window.xlo <= boxes[:, 2])
        & (boxes[:, 1] <= window.yhi)
        & (window.ylo <= boxes[:, 3])
    )
    return tuple(sorted(eids[mask].tolist()))


def oracle_for_case(case: VerifyCase) -> frozenset[Pair]:
    """The oracle pair set of one verification case."""
    return oracle_pairs(case.dataset_a, case.dataset_b, margin=case.margin)
