"""The Z-order (Morton) curve — the simplest recursive subdivision
order, listed by the paper as a drop-in alternative to Hilbert."""

from __future__ import annotations

import numpy as np

from repro.curves.base import SpaceFillingCurve


def interleave_bits(x: int, y: int, order: int) -> int:
    """Interleave the low ``order`` bits of x and y (x in even positions
    counting from bit 1, i.e. x supplies the more significant bit of each
    2-bit digit)."""
    key = 0
    for bit in range(order - 1, -1, -1):
        key = (key << 2) | (((x >> bit) & 1) << 1) | ((y >> bit) & 1)
    return key


def deinterleave_bits(key: int, order: int) -> tuple[int, int]:
    """Inverse of :func:`interleave_bits`."""
    x = y = 0
    for bit in range(order - 1, -1, -1):
        digit = (key >> (2 * bit)) & 3
        x = (x << 1) | (digit >> 1)
        y = (y << 1) | (digit & 1)
    return x, y


def _spread_bits64(values: np.ndarray) -> np.ndarray:
    """Spread each bit of a 32-bit lane into the even positions of a
    64-bit lane (the standard magic-mask Morton spread)."""
    v = values.astype(np.uint64)
    v = (v | (v << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    v = (v | (v << np.uint64(2))) & np.uint64(0x3333333333333333)
    v = (v | (v << np.uint64(1))) & np.uint64(0x5555555555555555)
    return v


class ZOrderCurve(SpaceFillingCurve):
    """2-D Morton order of the given order (bits per dimension)."""

    name = "zorder"

    def cell_key(self, x: int, y: int, depth: int) -> int:
        return interleave_bits(x, y, depth)

    def point(self, key: int) -> tuple[int, int]:
        if not 0 <= key <= self.max_key:
            raise ValueError(f"key {key} outside [0, {self.max_key}]")
        return deinterleave_bits(key, self.order)

    def keys(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        x = np.asarray(xs, dtype=np.uint64)
        y = np.asarray(ys, dtype=np.uint64)
        if x.shape != y.shape:
            raise ValueError("xs and ys must have the same shape")
        keys = (_spread_bits64(x) << np.uint64(1)) | _spread_bits64(y)
        # int64, matching the scalar path: keys fit (order <= 31 means
        # key < 2^62), and uint64 results would silently promote to
        # float64 when mixed with int64 arithmetic downstream.
        return keys.astype(np.int64)
