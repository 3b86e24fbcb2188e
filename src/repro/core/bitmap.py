"""Dynamic Spatial Bitmaps (section 3.2).

DSB projects every entity of the first data set onto a chosen *bitmap
level* ``l`` — a ``2^l x 2^l`` grid whose ``4^l`` cells map one-to-one
onto bits, indexed by the cell's Hilbert value at level ``l``.  While
the second data set is partitioned, entities whose projection finds no
set bit cannot join anything and are filtered out.

Two projection modes for entities *above* the bitmap level (level
``l_e < l``, i.e. entities bigger than a bitmap cell):

- ``precise`` — enumerate the level-``l`` cells the MBR actually
  overlaps ("determining all the partitions at level l that e overlaps
  and computing their Hilbert values");
- ``fast`` — take the whole Hilbert range of the entity's level-``l_e``
  cell ("extending H with all possible bit strings" — faster, but less
  precise because it covers the full cell, not just the entity).

Entities at or below the bitmap level use a single bit: their Hilbert
value truncated to ``2*l`` bits.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.curves.base import SpaceFillingCurve
from repro.filtertree.levels import quantize_array
from repro.storage.iostats import IOStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry

_MODES = ("precise", "fast")


class DynamicSpatialBitmap:
    """A ``4^level``-bit spatial bitmap addressed by Hilbert value.

    ``stats`` is the simulated ledger (every projection charges
    ``bitmap`` CPU ops); ``metrics`` is observability only — set/probe/
    admit/reject counters that never influence a simulated quantity.
    """

    def __init__(
        self,
        level: int,
        curve: SpaceFillingCurve,
        mode: str = "precise",
        stats: IOStats | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if not 0 <= level <= min(curve.order, 13):
            raise ValueError("bitmap level must be between 0 and min(order, 13)")
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")
        self.level = level
        self.curve = curve
        self.mode = mode
        self.stats = stats
        self.metrics = metrics
        self.num_bits = 1 << (2 * level)
        self._bits = bytearray((self.num_bits + 7) // 8)
        self.set_operations = 0
        self.probe_operations = 0
        self.filtered_count = 0

    def pages(self, page_size: int) -> int:
        """Pages needed to store the bitmap: ``2^(2l - p)`` for a page
        of ``2^p`` bits (section 3.2)."""
        page_bits = page_size * 8
        return max(1, -(-self.num_bits // page_bits))

    # -- population (first data set) -----------------------------------

    def set_batch(
        self,
        xlo: np.ndarray,
        ylo: np.ndarray,
        xhi: np.ndarray,
        yhi: np.ndarray,
        hilberts: Sequence[int],
        levels: Sequence[int],
    ) -> None:
        """Project a block of first-data-set entities onto the bitmap."""
        self.set_operations += len(hilberts)
        if self.metrics is not None:
            self.metrics.count("dsb.set_ops", len(hilberts))
        for ranges in self._bit_ranges(xlo, ylo, xhi, yhi, hilberts, levels):
            for lo, hi in ranges:
                self._set_range(lo, hi)

    # -- probing (second data set) ---------------------------------------

    def admits_batch(
        self,
        xlo: np.ndarray,
        ylo: np.ndarray,
        xhi: np.ndarray,
        yhi: np.ndarray,
        hilberts: Sequence[int],
        levels: Sequence[int],
    ) -> list[bool]:
        """Per row of a block of second-data-set entities: True when it
        may have a joining partner (some corresponding bit is set);
        false means the entity can be safely filtered out."""
        answers = [
            any(self._any_in_range(lo, hi) for lo, hi in ranges)
            for ranges in self._bit_ranges(xlo, ylo, xhi, yhi, hilberts, levels)
        ]
        admitted = sum(answers)
        rejected = len(answers) - admitted
        self.probe_operations += len(answers)
        self.filtered_count += rejected
        if self.metrics is not None:
            self.metrics.count("dsb.probes", len(answers))
            self.metrics.count("dsb.admits", admitted)
            self.metrics.count("dsb.rejects", rejected)
        return answers

    # -- internals ---------------------------------------------------------

    def _bit_ranges(
        self,
        xlo: np.ndarray,
        ylo: np.ndarray,
        xhi: np.ndarray,
        yhi: np.ndarray,
        hilberts: Sequence[int],
        levels: Sequence[int],
    ) -> list[list[tuple[int, int]]]:
        """Half-open bit-index ranges covering each row's projection.

        Charges one ``bitmap`` op per row, plus one per cell a precise
        projection enumerates.
        """
        if self.mode == "precise":
            # A box's level-l cells lie between the cells of its
            # corners, quantized by the rule the level function uses.
            side = 1 << self.level
            cx_lo, cy_lo, cx_hi, cy_hi = (
                quantize_array(column, side, name).tolist()
                for column, name in ((xlo, "xlo"), (ylo, "ylo"), (xhi, "xhi"), (yhi, "yhi"))
            )
        order = self.curve.order
        charges = len(hilberts)
        projections = []
        for i, (key, entity_level) in enumerate(zip(hilberts, levels)):
            if entity_level >= self.level:
                # At or below the bitmap level: one bit — the curve key
                # truncated to the bitmap resolution.
                bit = key >> (2 * (order - self.level))
                projections.append([(bit, bit + 1)])
            elif self.mode == "fast":
                # The whole key range of the entity's own (coarser) cell.
                span = 2 * (self.level - entity_level)
                prefix = key >> (2 * (order - entity_level))
                projections.append([(prefix << span, (prefix + 1) << span)])
            else:
                # Precise: only the bitmap cells the MBR actually overlaps,
                # keyed at the bitmap's depth (by the prefix property, the
                # key of any interior point truncated to 2*l bits).
                bits = [
                    self.curve.cell_key(cx, cy, self.level)
                    for cx in range(cx_lo[i], cx_hi[i] + 1)
                    for cy in range(cy_lo[i], cy_hi[i] + 1)
                ]
                charges += len(bits)
                projections.append([(bit, bit + 1) for bit in bits])
        if self.stats is not None:
            self.stats.charge_cpu("bitmap", charges)
        return projections

    def _set_range(self, lo: int, hi: int) -> None:
        """Set bits ``[lo, hi)``, filling whole middle bytes at once.

        ``fast`` mode projects a level-0 entity on a level-13 bitmap to
        a 2^26-bit range; setting those one loop iteration at a time is
        tens of millions of Python operations, while the slice fill
        below is three byte-level writes.
        """
        if hi <= lo:
            return
        if hi - lo == 1:  # the common single-bit case
            self._bits[lo >> 3] |= 1 << (lo & 7)
            return
        first, last = lo >> 3, (hi - 1) >> 3
        head_mask = (0xFF << (lo & 7)) & 0xFF
        tail_mask = 0xFF >> (7 - ((hi - 1) & 7))
        if first == last:
            self._bits[first] |= head_mask & tail_mask
            return
        self._bits[first] |= head_mask
        self._bits[last] |= tail_mask
        if last - first > 1:
            self._bits[first + 1 : last] = b"\xff" * (last - first - 1)

    def _any_in_range(self, lo: int, hi: int) -> bool:
        """True when any bit in ``[lo, hi)`` is set (byte-wise scan)."""
        if hi <= lo:
            return False
        first, last = lo >> 3, (hi - 1) >> 3
        head_mask = (0xFF << (lo & 7)) & 0xFF
        tail_mask = 0xFF >> (7 - ((hi - 1) & 7))
        if first == last:
            return bool(self._bits[first] & head_mask & tail_mask)
        if self._bits[first] & head_mask or self._bits[last] & tail_mask:
            return True
        # Whole middle bytes: strip() runs at C speed over the slice.
        return bool(self._bits[first + 1 : last].strip(b"\x00"))

    def population(self) -> int:
        """Number of set bits."""
        return sum(byte.bit_count() for byte in self._bits)

