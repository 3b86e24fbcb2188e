"""The Gray-code curve.

Cells are visited in the order of their rank within the binary-reflected
Gray code sequence of their interleaved coordinates — the third curve
family the paper lists as usable by S3J.  Because the inverse Gray
transform is prefix-preserving (each output bit depends only on input
bits at or above it), the curve keeps the nesting/prefix property the
synchronized scan requires.
"""

from __future__ import annotations

import numpy as np

from repro.curves.base import SpaceFillingCurve
from repro.curves.zorder import deinterleave_bits, interleave_bits


def gray_encode(value: int) -> int:
    """Binary-reflected Gray code of ``value``."""
    return value ^ (value >> 1)


def gray_decode(value: int) -> int:
    """Rank of the Gray codeword ``value`` (inverse of :func:`gray_encode`)."""
    shift = 1
    while (value >> shift) > 0:
        value ^= value >> shift
        shift <<= 1
    return value


class GrayCurve(SpaceFillingCurve):
    """2-D Gray-code curve of the given order (bits per dimension)."""

    name = "gray"

    def cell_key(self, x: int, y: int, depth: int) -> int:
        return gray_decode(interleave_bits(x, y, depth))

    def point(self, key: int) -> tuple[int, int]:
        if not 0 <= key <= self.max_key:
            raise ValueError(f"key {key} outside [0, {self.max_key}]")
        return deinterleave_bits(gray_encode(key), self.order)

    def keys(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        from repro.curves.zorder import ZOrderCurve

        morton = ZOrderCurve(self.order).keys(xs, ys)
        value = morton.astype(np.uint64)
        shift = np.uint64(1)
        while int(shift) < 2 * self.order:
            value ^= value >> shift
            shift <<= np.uint64(1)
        return value.astype(np.int64)
