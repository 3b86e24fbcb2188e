"""Filter-Tree space decomposition (Sevcik & Koudas, VLDB 1996).

S3J constructs a Filter Tree partition of the space *on the fly*
without building complete Filter Tree indices (section 3).  This
subpackage provides:

- :class:`~repro.filtertree.levels.LevelAssigner` — the paper's
  ``Level(xl, yl, xh, yh)`` function: the number of initial bits in
  which the binary expansions of the MBR corner coordinates agree.
- :func:`~repro.filtertree.levels.quantize_array` — the one cell rule
  (truncate to the grid, top edge clamped) that levels, curve keys and
  the DSB's cells share.
- :mod:`~repro.filtertree.ranges` — the window access path of the one
  complete Filter-Tree index,
  :class:`~repro.service.index.PersistentIndex`.
"""

from repro.filtertree.levels import LevelAssigner

__all__ = ["LevelAssigner"]
