"""The Hilbert space-filling curve.

This is the curve the paper's prototype uses; the authors report a
"table driven routine" computing one value in under 10 microseconds at
maximum precision.  So is this one: the quadrant rotate-and-recurse
algorithm is a four-state machine (the sub-curve's orientation: axes
swapped or not, both coordinates complemented or not) that turns one
bit of ``x`` and ``y`` into two key bits, and :data:`_STEP` is that
machine run four bits at a time — 4 states x 256 inputs, one lookup per
nibble in :meth:`HilbertCurve.cell_key` (a coarse cell walks only its
own nibbles) and one gather per nibble in the vectorized
:meth:`HilbertCurve.keys`.  The bit-at-a-time loop survives
as the reference in ``tests/test_curves.py`` (the per-value CPU cost
the paper measures is modeled by :class:`repro.storage.costs.CpuModel`,
not by Python wall-clock).
"""

from __future__ import annotations

import numpy as np

from repro.curves.base import SpaceFillingCurve

_NIBBLE = 4


def _step_table() -> list[int]:
    """``table[state << 8 | xnibble << 4 | ynibble]`` = the eight key
    bits of the nibble pair ``<< 10 |`` the state it leaves the machine
    in ``<< 8``, ready to index the next step.  State bit 0: the axes
    are swapped; bit 1: both coordinates are complemented (the two
    commute, so their parities are the state)."""
    table = []
    for start in range(4):
        for xs in range(1 << _NIBBLE):
            for ys in range(1 << _NIBBLE):
                state, digits = start, 0
                for bit in reversed(range(_NIBBLE)):
                    rx = (xs >> bit & 1) ^ (state >> 1)
                    ry = (ys >> bit & 1) ^ (state >> 1)
                    if state & 1:
                        rx, ry = ry, rx
                    digits = digits << 2 | (3 * rx) ^ ry
                    if ry == 0:  # the quadrant's sub-curve is transposed,
                        state ^= 1 | rx << 1  # and reflected in the last one
                table.append(digits << 10 | state << 8)
    return table


_STEP = _step_table()
_STEP_ARRAY = np.array(_STEP, dtype=np.int64)


class HilbertCurve(SpaceFillingCurve):
    """2-D Hilbert curve of the given order (bits per dimension)."""

    name = "hilbert"

    def __init__(self, order: int = 16) -> None:
        super().__init__(order)
        # A depth that is no multiple of four runs with leading zero
        # bits.  Each such pair yields key bits 00 and toggles the swap,
        # so starting swapped when their number is odd leaves the
        # machine where the curve of this depth starts: not swapped.
        # (Every depth starts there, so a coarser key is a prefix.)
        self._walks = []  # per depth: (start state, nibble shifts)
        for depth in range(order + 1):
            pad = -depth % _NIBBLE
            shifts = tuple(range(depth + pad - _NIBBLE, -1, -_NIBBLE))
            self._walks.append(((pad & 1) << 8, shifts))
        self._start, self._shifts = self._walks[order]

    def cell_key(self, x: int, y: int, depth: int) -> int:
        state, shifts = self._walks[depth]
        x <<= _NIBBLE
        d = 0
        for shift in shifts:
            step = _STEP[state | x >> shift & 0xF0 | y >> shift & 0x0F]
            d = d << 8 | step >> 10
            state = step & 0x300
        return d

    def point(self, key: int) -> tuple[int, int]:
        if not 0 <= key <= self.max_key:
            raise ValueError(f"key {key} outside [0, {self.max_key}]")
        x = y = 0
        t = key
        s = 1
        while s < self.side:
            rx = 1 & (t // 2)
            ry = 1 & (t ^ rx)
            if ry == 0:
                if rx == 1:
                    x = s - 1 - x
                    y = s - 1 - y
                x, y = y, x
            x += s * rx
            y += s * ry
            t //= 4
            s <<= 1
        return x, y

    def keys(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        x = np.asarray(xs, dtype=np.int64) << _NIBBLE
        y = np.asarray(ys, dtype=np.int64)
        if x.shape != y.shape:
            raise ValueError("xs and ys must have the same shape")
        d = np.zeros(x.shape, dtype=np.int64)
        state = self._start
        for shift in self._shifts:
            step = _STEP_ARRAY[state | x >> shift & 0xF0 | y >> shift & 0x0F]
            d = d << 8 | step >> 10
            state = step & 0x300
        return d
