"""Common interface for recursive space-filling curves."""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

DEFAULT_ORDER = 16
"""Default curve order: coordinates are quantized to 16 bits per
dimension, i.e. a 65536 x 65536 grid, matching the "maximum precision"
table-driven computation the paper times at under 10 microseconds."""


class SpaceFillingCurve(ABC):
    """A bijection between the ``2^order x 2^order`` integer grid and the
    key range ``[0, 4^order)`` that recursively subdivides the space.

    The *prefix property* — the top ``2*l`` key bits identify the
    level-``l`` cell, so each cell is one contiguous key range — is what
    lets S3J's synchronized scan treat entities as nested Hilbert-range
    intervals and read each page exactly once.
    """

    name: str = "abstract"

    def __init__(self, order: int = DEFAULT_ORDER) -> None:
        if not 1 <= order <= 31:
            raise ValueError("curve order must be between 1 and 31")
        self.order = order
        self.side = 1 << order
        self.max_key = (1 << (2 * order)) - 1

    def key(self, x: int, y: int) -> int:
        """Curve key of the integer grid cell ``(x, y)``."""
        if not (0 <= x < self.side and 0 <= y < self.side):
            raise ValueError(f"({x}, {y}) outside the {self.side}^2 grid")
        return self.cell_key(x, y, self.order)

    @abstractmethod
    def cell_key(self, x: int, y: int, depth: int) -> int:
        """Key of the cell ``(x, y)`` of the ``2^depth`` grid, computed
        from ``depth`` bits per axis (not bounds-checked).  By the prefix
        property it is the top ``2*depth`` bits of the key of any point
        in the cell, so a coarse cell is keyed without the full order."""

    @abstractmethod
    def point(self, key: int) -> tuple[int, int]:
        """Inverse mapping: the grid cell visited at position ``key``."""

    @abstractmethod
    def keys(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`key`.

        Always returns ``int64`` — the signed dtype matches the scalar
        :meth:`key` Python ints and keeps downstream mixing with other
        ``int64`` arrays from silently promoting to ``float64`` (which
        a ``uint64`` result would).  Keys fit: ``order <= 31`` bounds
        them below ``2^62``.
        """

    def quantize(self, coord: float) -> int:
        """Map a normalized coordinate in ``[0, 1]`` to a grid index."""
        if not 0.0 <= coord <= 1.0:
            raise ValueError(f"coordinate {coord} outside the unit square")
        return min(int(coord * self.side), self.side - 1)

    def key_of_normalized(self, x: float, y: float) -> int:
        """Curve key of a point given in unit-square coordinates.

        This is the paper's ``Hilbert(xc, yc)`` computed on MBR centers
        (:meth:`quantize`'s rule, inline: one check, one cast per axis).
        """
        if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
            raise ValueError(f"point ({x}, {y}) outside the unit square")
        side, top = self.side, self.side - 1
        return self.cell_key(min(int(x * side), top), min(int(y * side), top), self.order)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(order={self.order})"


def curve_by_name(name: str, order: int = DEFAULT_ORDER) -> SpaceFillingCurve:
    """Instantiate a curve from its short name: hilbert, zorder, or gray."""
    from repro.curves.gray import GrayCurve
    from repro.curves.hilbert import HilbertCurve
    from repro.curves.zorder import ZOrderCurve

    registry = {
        "hilbert": HilbertCurve,
        "zorder": ZOrderCurve,
        "z-order": ZOrderCurve,
        "gray": GrayCurve,
    }
    normalized = name.strip().lower()
    if normalized not in registry:
        raise ValueError(f"unknown curve {name!r}; choose from {sorted(registry)}")
    return registry[normalized](order)
