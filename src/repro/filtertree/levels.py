"""The ``Level()`` function: which level file an entity belongs to.

Section 3 of the paper: "The level ``j`` filter is composed of
equally spaced lines in each dimension.  The level of an entity is the
highest one (smallest ``j``) at which the MBR of the entity is
intersected by any line of the filter" — computed as "the number of
initial bits in which ``xl`` and ``xh`` as well as ``yl`` and ``yh``
agree" [SK96].

Concretely, a level-``l`` entity fits wholly inside one cell of the
``2^l x 2^l`` grid but is cut by a line of the ``2^(l+1)`` grid:

- level 0 — cut by the center line of the space (large entities);
- level ``l`` — contained in a cell of side ``2^-l`` (small entities
  fall to large ``l``).
"""

from __future__ import annotations

import numpy as np

from repro.geometry.rect import Rect

DEFAULT_MAX_LEVEL = 16
"""Levels are capped so tiny/point entities do not each get their own
file; the paper reports "typically, 10 to 20" level files."""


class LevelAssigner:
    """Quantizes MBR corners and computes Filter-Tree levels.

    ``order`` is the quantization precision (bits per dimension);
    ``max_level`` caps the deepest level file (``L`` in the paper).
    """

    def __init__(self, order: int = 16, max_level: int = DEFAULT_MAX_LEVEL) -> None:
        if not 1 <= order <= 31:
            raise ValueError("order must be between 1 and 31")
        if not 0 <= max_level <= order:
            raise ValueError("max_level must be between 0 and order")
        self.order = order
        self.max_level = max_level
        self.side = 1 << order

    def level(self, mbr: Rect) -> int:
        """The paper's ``Level(xl, yl, xh, yh)``.

        Returns the largest ``l`` (capped at ``max_level``) such that
        both quantized corners shift to one cell of the ``2^l`` grid.
        Quantization is exclusive — a high corner on a grid line lands
        in the cell above it — and is the one cell rule the partition,
        the probe and the synchronized scan share (:func:`quantize_array`'s
        rule, inline: one check, one cast per corner).
        """
        xlo, ylo, xhi, yhi = mbr.xlo, mbr.ylo, mbr.xhi, mbr.yhi
        if not (0.0 <= xlo <= xhi <= 1.0 and 0.0 <= ylo <= yhi <= 1.0):
            raise ValueError(f"{mbr} outside the unit square")
        side, top = self.side, self.side - 1
        differ = (min(int(xlo * side), top) ^ min(int(xhi * side), top)) | (
            min(int(ylo * side), top) ^ min(int(yhi * side), top)
        )
        return min(self.order - differ.bit_length(), self.max_level)

    def levels(
        self,
        xlo: np.ndarray,
        ylo: np.ndarray,
        xhi: np.ndarray,
        yhi: np.ndarray,
    ) -> np.ndarray:
        """Vectorized :meth:`level` over arrays of normalized corners."""
        qxlo = quantize_array(xlo, self.side, "xlo")
        qylo = quantize_array(ylo, self.side, "ylo")
        qxhi = quantize_array(xhi, self.side, "xhi")
        qyhi = quantize_array(yhi, self.side, "yhi")
        px = self.order - _bit_lengths(qxlo ^ qxhi)
        py = self.order - _bit_lengths(qylo ^ qyhi)
        return np.minimum(np.minimum(px, py), self.max_level)


def quantize_array(coords: np.ndarray, side: int, field: str) -> np.ndarray:
    """Grid indices of normalized coordinates on a ``side``-cell axis:
    truncate-to-grid with the top edge clamped.  ``field`` names the column in the error a
    value outside the unit square gets — NaN included: the test is
    written so that NaN, which fails every comparison, fails it."""
    values = np.asarray(coords, dtype=np.float64)
    if values.size and not (values.min() >= 0.0 and values.max() <= 1.0):
        raise ValueError(f"{field} coordinate outside the unit square")
    return np.minimum((values * side).astype(np.int64), side - 1)


def _bit_lengths(values: np.ndarray) -> np.ndarray:
    """Vectorized ``int.bit_length`` for non-negative int64 arrays.

    An integer below ``2^53`` is exactly a float64 and its bit length is
    that float's binary exponent, one ``np.frexp`` pass.  Wider values
    would round when cast (``2^63 - 1`` becomes ``2^63``, one bit too
    long), so a value with high 32 bits is measured by those alone.
    """
    work = np.asarray(values, dtype=np.int64)
    if work.size and work.min() < 0:
        raise ValueError("inputs must be non-negative")
    high = work >> 32
    wide = high > 0
    narrow = np.where(wide, high, work).astype(np.float64)
    return np.frexp(narrow)[1] + 32 * wide
