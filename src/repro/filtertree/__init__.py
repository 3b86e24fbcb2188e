"""Filter-Tree space decomposition (Sevcik & Koudas, VLDB 1996).

S3J constructs a Filter Tree partition of the space *on the fly*
without building complete Filter Tree indices (section 3).  This
subpackage provides:

- :class:`~repro.filtertree.levels.LevelAssigner` — the paper's
  ``Level(xl, yl, xh, yh)`` function: the number of initial bits in
  which the binary expansions of the MBR corner coordinates agree.
- :mod:`~repro.filtertree.grid` — hierarchical-grid helpers (which
  level-``l`` cells a rectangle overlaps), used by DSB and PBSM.
- :mod:`~repro.filtertree.ranges` — the window access path of the one
  complete Filter-Tree index,
  :class:`~repro.service.index.PersistentIndex`.
"""

from repro.filtertree.grid import cell_of_point, cells_overlapping
from repro.filtertree.levels import LevelAssigner, common_prefix_bits

__all__ = [
    "LevelAssigner",
    "cell_of_point",
    "cells_overlapping",
    "common_prefix_bits",
]
