"""Exact geometry payloads for the refinement step.

The filter step of a spatial join works on MBRs; candidate pairs are
then checked against the *actual* geometries (Orenstein's two-step
evaluation, section 2 of the paper).  These classes carry the actual
geometries: points, line segments (TIGER road data), and simple
polygons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.geometry.rect import Rect


@dataclass(frozen=True, slots=True)
class Point:
    """A point in the plane."""

    x: float
    y: float

    def mbr(self) -> Rect:
        """A degenerate MBR covering just this point."""
        return Rect.point(self.x, self.y)

    def distance_to(self, other: Point) -> float:
        """Euclidean distance to another point."""
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True, slots=True)
class Segment:
    """A line segment, the entity type of the TIGER/Line data sets."""

    x1: float
    y1: float
    x2: float
    y2: float

    def mbr(self) -> Rect:
        """The axis-aligned bounding box of the two endpoints."""
        return Rect(
            min(self.x1, self.x2),
            min(self.y1, self.y2),
            max(self.x1, self.x2),
            max(self.y1, self.y2),
        )

    @property
    def length(self) -> float:
        return math.hypot(self.x2 - self.x1, self.y2 - self.y1)

    def intersects(self, other: Segment) -> bool:
        """Exact segment-segment intersection (shared endpoints count)."""
        return _segments_intersect(
            (self.x1, self.y1),
            (self.x2, self.y2),
            (other.x1, other.y1),
            (other.x2, other.y2),
        )

    def distance_to_point(self, x: float, y: float) -> float:
        """Euclidean distance from a point to this segment.

        No foot point ``p1 + t * (p2 - p1)`` is formed: rounding can put it
        on the very point measured from (``8e-224 - 1`` is ``-1.0``).  A
        clamped projection measures to the endpoint, an inner one ``|cross|
        / length`` from the products :meth:`intersects` takes the sign of."""
        px, py = self.x2 - self.x1, self.y2 - self.y1
        norm = px * px + py * py
        t = ((x - self.x1) * px + (y - self.y1) * py) / norm if norm else 0.0
        if t <= 0.0:
            return math.hypot(x - self.x1, y - self.y1)
        if t >= 1.0:
            return math.hypot(x - self.x2, y - self.y2)
        return abs((x - self.x1) * py - (y - self.y1) * px) / math.sqrt(norm)

    def distance_to(self, other: Segment) -> float:
        """Minimum distance between two segments (zero when they cross)."""
        if self.intersects(other):
            return 0.0
        return min(
            self.distance_to_point(other.x1, other.y1),
            self.distance_to_point(other.x2, other.y2),
            other.distance_to_point(self.x1, self.y1),
            other.distance_to_point(self.x2, self.y2),
        )


@dataclass(frozen=True, slots=True)
class Polygon:
    """A simple polygon given by its vertex ring (no self-intersection).

    Sufficient for region entities such as parking lots or land parcels
    in the paper's motivating examples.
    """

    vertices: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.vertices) < 3:
            raise ValueError("a polygon needs at least three vertices")

    def mbr(self) -> Rect:
        """The axis-aligned bounding box of the vertex ring."""
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        return Rect(min(xs), min(ys), max(xs), max(ys))

    def edges(self) -> list[Segment]:
        """The boundary as a list of segments (ring order, closed)."""
        ring = list(self.vertices)
        return [
            Segment(*ring[i], *ring[(i + 1) % len(ring)]) for i in range(len(ring))
        ]

    def contains_point(self, x: float, y: float) -> bool:
        """Even-odd ray casting; boundary points count as inside."""
        inside = False
        n = len(self.vertices)
        for i in range(n):
            x1, y1 = self.vertices[i]
            x2, y2 = self.vertices[(i + 1) % n]
            if Segment(x1, y1, x2, y2).distance_to_point(x, y) == 0.0:
                return True
            if (y1 > y) != (y2 > y):
                x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
                if x < x_cross:
                    inside = not inside
        return inside

    def intersects(self, other: Polygon) -> bool:
        """Exact polygon overlap: edge crossing or full containment."""
        for e1 in self.edges():
            for e2 in other.edges():
                if e1.intersects(e2):
                    return True
        return self.contains_point(*other.vertices[0]) or other.contains_point(
            *self.vertices[0]
        )

    def distance_to(self, other: Polygon) -> float:
        """Minimum distance between two polygons (zero when they meet)."""
        if self.intersects(other):
            return 0.0
        return min(
            e1.distance_to(e2) for e1 in self.edges() for e2 in other.edges()
        )


def _orientation(p: tuple[float, float], q: tuple[float, float], r: tuple[float, float]) -> int:
    """Sign of the cross product (q - p) x (r - p): 1 ccw, -1 cw, 0 collinear."""
    val = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    if val > 0:
        return 1
    if val < 0:
        return -1
    return 0


def _on_segment(p: tuple[float, float], q: tuple[float, float], r: tuple[float, float]) -> bool:
    """Given collinear p, q, r: does q lie on segment pr?"""
    return (
        min(p[0], r[0]) <= q[0] <= max(p[0], r[0])
        and min(p[1], r[1]) <= q[1] <= max(p[1], r[1])
    )


def _segments_intersect(
    p1: tuple[float, float],
    p2: tuple[float, float],
    p3: tuple[float, float],
    p4: tuple[float, float],
) -> bool:
    """Classic orientation-based segment intersection, robust for
    collinear and touching configurations."""
    o1 = _orientation(p1, p2, p3)
    o2 = _orientation(p1, p2, p4)
    o3 = _orientation(p3, p4, p1)
    o4 = _orientation(p3, p4, p2)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and _on_segment(p1, p3, p2):
        return True
    if o2 == 0 and _on_segment(p1, p4, p2):
        return True
    if o3 == 0 and _on_segment(p3, p1, p4):
        return True
    if o4 == 0 and _on_segment(p3, p2, p4):
        return True
    return False
