"""TIGER/Line-like road segment data sets (LB and MG stand-ins).

We do not ship the Census Bureau TIGER/Line extracts the paper used
(Long Beach County: 53,145 segments, coverage 0.15; Montgomery County:
39,000 segments, coverage 0.12).  This generator synthesizes data with
the same join-relevant properties — entity count, tiny skinny MBRs,
strong spatial clustering along connected road structures — by growing
random-walk road polylines out of a handful of town centers; each walk
step emits one segment, a row of the data set's columns.  See DESIGN.md's
substitution table.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry.shapes import Segment
from repro.join.dataset import SpatialDataset


def road_segments(
    count: int,
    towns: int = 12,
    segment_length: float = 0.0035,
    town_spread: float = 0.08,
    turn_sigma: float = 0.35,
    seed: int = 0,
    name: str = "roads",
) -> SpatialDataset:
    """``count`` short line segments forming road-like polylines.

    ``towns`` cluster centers are scattered over the unit square; road
    walks start near a center with a random heading and advance in
    ``segment_length`` steps, the heading drifting by a Gaussian of
    ``turn_sigma`` radians per step (gentle curves with occasional
    sharp turns).  Walks reflect off the unit-square boundary.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if towns < 1:
        raise ValueError("need at least one town")
    if not 0.0 < segment_length < 0.5:
        raise ValueError("segment_length must be in (0, 0.5)")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.1, 0.9, size=(towns, 2))
    # Bigger towns get more roads: Zipf-ish town weights.
    weights = 1.0 / np.arange(1, towns + 1)
    weights /= weights.sum()

    ends: list[float] = []  # x1, y1, x2, y2 of each segment in turn
    made = 0
    walk_length = max(8, int(math.sqrt(count)))
    while made < count:
        town = rng.choice(towns, p=weights)
        cx, cy = centers[town]
        x = float(np.clip(cx + rng.normal(0.0, town_spread), 0.0, 1.0))
        y = float(np.clip(cy + rng.normal(0.0, town_spread), 0.0, 1.0))
        heading = rng.uniform(0.0, 2.0 * math.pi)
        # One call draws the walk's turns one by one, as one call per
        # step did: only the last walk draws turns it does not take.
        for turn in rng.normal(0.0, turn_sigma, size=walk_length).tolist():
            heading += turn
            nx = x + segment_length * math.cos(heading)
            ny = y + segment_length * math.sin(heading)
            # Reflect at the boundary to keep roads inside the space.
            if not 0.0 <= nx <= 1.0:
                heading = math.pi - heading
                nx = min(max(nx, 0.0), 1.0)
            if not 0.0 <= ny <= 1.0:
                heading = -heading
                ny = min(max(ny, 0.0), 1.0)
            if nx != x or ny != y:
                ends += (x, y, nx, ny)
                made += 1
                if made == count:
                    break
            x, y = nx, ny
    x1, y1, x2, y2 = np.array(ends, dtype=np.float64).reshape(-1, 4).T
    corners = np.minimum(x1, x2), np.minimum(y1, y2), np.maximum(x1, x2), np.maximum(y1, y2)
    return SpatialDataset.from_columns(
        name, np.arange(count), *corners, geometry=(Segment, (x1, y1, x2, y2)),
        description=(
            f"{count} road-like segments ({towns} towns, "
            f"step {segment_length:g})"
        ),
    )
