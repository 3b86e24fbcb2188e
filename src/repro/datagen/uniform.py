"""Uniformly distributed square data sets (UN1, UN2, UN3)."""

from __future__ import annotations

import math

import numpy as np

from repro.join.dataset import SpatialDataset


def uniform_squares(
    count: int, side: float, seed: int = 0, name: str = "uniform"
) -> SpatialDataset:
    """``count`` axis-aligned ``side x side`` squares, positions uniform
    over the unit square (each square fully inside it)."""
    if count < 0:
        raise ValueError("count must be non-negative")
    if not 0.0 < side <= 1.0:
        raise ValueError("square side must be in (0, 1]")
    rng = np.random.default_rng(seed)
    xlo = rng.uniform(0.0, 1.0 - side, size=count)
    ylo = rng.uniform(0.0, 1.0 - side, size=count)
    return SpatialDataset.from_columns(
        name, np.arange(count), xlo, ylo, xlo + side, ylo + side,
        description=f"{count} uniformly distributed {side:.4g}-side squares",
    )


def uniform_squares_by_coverage(
    count: int, coverage: float, seed: int = 0, name: str = "uniform"
) -> SpatialDataset:
    """Uniform squares sized so total entity area / space area equals
    ``coverage`` (how the paper characterizes UN1=0.4, UN2=0.9,
    UN3=1.6 — Table 3)."""
    if count <= 0:
        raise ValueError("count must be positive")
    if coverage <= 0:
        raise ValueError("coverage must be positive")
    side = math.sqrt(coverage / count)
    if side > 1.0:
        raise ValueError("coverage too high for this count")
    return uniform_squares(count, side, seed=seed, name=name)
