"""The TR data set: squares with triangular-distributed log-sizes.

Section 5.1: "the size of the square entities is d = 2^-l where l has
a [triangular] probability distribution with minimum value x1, maximum
value x3, and the peak ... at x2.  TR contains 50,000 entities and was
generated using x1 = 4, x2 = 18, x3 = 19."

Squares range from side 1/16 (huge, heavily overlapping) down to
2^-19, producing the high size variability that drives SHJ's
replication factor to 10 in the paper's Table 4.
"""

from __future__ import annotations

import numpy as np

from repro.join.dataset import SpatialDataset


def triangular_squares(
    count: int,
    l_min: float = 4.0,
    l_mode: float = 18.0,
    l_max: float = 19.0,
    seed: int = 0,
    name: str = "TR",
    target_coverage: float | None = None,
) -> SpatialDataset:
    """``count`` squares of side ``2^-l`` with ``l ~ Triangular(l_min,
    l_mode, l_max)``, positions uniform (squares kept inside the unit
    square).

    ``target_coverage`` rescales all sides by one constant factor so the
    total entity area over the space area hits the given value — i.e.
    it shifts the whole triangular distribution of ``l`` by a constant.
    The paper states (x1, x2, x3) = (4, 18, 19) *and* coverage 13.96
    for TR (Table 3); those two are mutually inconsistent under the
    literal reading of the generator, and coverage is the
    join-cost-relevant quantity, so the Table 3 catalog pins coverage
    (see EXPERIMENTS.md).
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if not l_min <= l_mode <= l_max:
        raise ValueError("need l_min <= l_mode <= l_max")
    if l_min <= 0:
        raise ValueError("l_min must be positive (sides below 1)")
    rng = np.random.default_rng(seed)
    levels = rng.triangular(l_min, l_mode, l_max, size=count)
    sides = np.exp2(-levels)
    if target_coverage is not None:
        if target_coverage <= 0:
            raise ValueError("target_coverage must be positive")
        sides = _rescale_to_coverage(sides, target_coverage)
    xlo = rng.uniform(0.0, 1.0, size=count) * (1.0 - sides)
    ylo = rng.uniform(0.0, 1.0, size=count) * (1.0 - sides)
    return SpatialDataset.from_columns(
        name, np.arange(count), xlo, ylo, xlo + sides, ylo + sides,
        description=(
            f"{count} squares, side 2^-l, l ~ Triangular"
            f"({l_min:g}, {l_mode:g}, {l_max:g})"
        ),
    )


def _rescale_to_coverage(sides: np.ndarray, target: float) -> np.ndarray:
    """Scale all sides by one factor to hit the target total area,
    iterating because sides are capped at 0.5 (clipping a large square
    loses area that the uncapped squares must make up)."""
    sides = sides.copy()
    for _ in range(8):
        total = float(np.sum(sides * sides))
        if total <= 0 or abs(total - target) / target < 0.005:
            break
        free = sides < 0.5
        capped_area = float(np.sum(sides[~free] ** 2))
        free_area = total - capped_area
        if free_area <= 0 or target <= capped_area:
            break
        factor = np.sqrt((target - capped_area) / free_area)
        sides[free] = np.minimum(sides[free] * factor, 0.5)
    return sides
