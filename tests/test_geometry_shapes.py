"""Tests for repro.geometry.shapes."""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.geometry.shapes import Point, Polygon, Segment

coords = st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)


class TestPoint:
    def test_mbr_is_degenerate(self):
        p = Point(0.3, 0.4)
        assert p.mbr().as_tuple() == (0.3, 0.4, 0.3, 0.4)

    def test_distance(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == pytest.approx(5.0)


class TestSegment:
    def test_mbr_covers_endpoints(self):
        s = Segment(0.8, 0.1, 0.2, 0.9)
        assert s.mbr().as_tuple() == (0.2, 0.1, 0.8, 0.9)

    def test_length(self):
        assert Segment(0, 0, 3, 4).length == pytest.approx(5.0)

    def test_crossing_segments_intersect(self):
        assert Segment(0, 0, 1, 1).intersects(Segment(0, 1, 1, 0))

    def test_parallel_disjoint(self):
        assert not Segment(0, 0, 1, 0).intersects(Segment(0, 0.1, 1, 0.1))

    def test_shared_endpoint_counts(self):
        assert Segment(0, 0, 0.5, 0.5).intersects(Segment(0.5, 0.5, 1, 0))

    def test_collinear_overlapping(self):
        assert Segment(0, 0, 0.6, 0).intersects(Segment(0.4, 0, 1, 0))

    def test_collinear_disjoint(self):
        assert not Segment(0, 0, 0.3, 0).intersects(Segment(0.4, 0, 1, 0))

    def test_t_junction(self):
        assert Segment(0, 0, 1, 0).intersects(Segment(0.5, 0, 0.5, 1))

    def test_distance_to_point_interior(self):
        assert Segment(0, 0, 1, 0).distance_to_point(0.5, 0.3) == pytest.approx(0.3)

    def test_distance_to_point_beyond_end(self):
        d = Segment(0, 0, 1, 0).distance_to_point(1.3, 0.4)
        assert d == pytest.approx(0.5)

    def test_distance_degenerate_segment(self):
        s = Segment(0.5, 0.5, 0.5, 0.5)
        assert s.distance_to_point(0.5, 0.9) == pytest.approx(0.4)

    def test_distance_between_crossing_is_zero(self):
        assert Segment(0, 0, 1, 1).distance_to(Segment(0, 1, 1, 0)) == 0.0

    def test_distance_between_parallel(self):
        d = Segment(0, 0, 1, 0).distance_to(Segment(0, 0.2, 1, 0.2))
        assert d == pytest.approx(0.2)

    @given(coords, coords, coords, coords)
    def test_intersects_self(self, x1, y1, x2, y2):
        s = Segment(x1, y1, x2, y2)
        assert s.intersects(s)

    @given(
        st.tuples(coords, coords, coords, coords),
        st.tuples(coords, coords, coords, coords),
    )
    def test_intersects_symmetric(self, p, q):
        a = Segment(*p)
        b = Segment(*q)
        assert a.intersects(b) == b.intersects(a)

    @given(
        st.tuples(coords, coords, coords, coords),
        st.tuples(coords, coords, coords, coords),
    )
    # Disjoint segments whose foot point p1 + t * (p2 - p1) rounds onto
    # the other one: at an endpoint (8.1e-224 - 1 is -1.0), and inside
    # (the true distance is about 2.3e-186).
    @example(p=(0.0, 0.0, 0.0, 0.0), q=(0.0, 1.0, 0.0, 8.123549742053098e-224))
    @example(
        p=(1.0, 0.0, 1.2228746908023415e-17, 1.8527281103747487e-169),
        q=(1.2228746908023415e-17, 0.0, 0.0, 1.0),
    )
    def test_distance_consistent_with_intersection(self, p, q):
        a = Segment(*p)
        b = Segment(*q)
        if a.intersects(b):
            assert a.distance_to(b) == 0.0
        else:
            assert a.distance_to(b) > 0.0


def unit_triangle():
    return Polygon(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))


class TestPolygon:
    def test_needs_three_vertices(self):
        with pytest.raises(ValueError):
            Polygon(((0, 0), (1, 1)))

    def test_mbr(self):
        assert unit_triangle().mbr().as_tuple() == (0.0, 0.0, 1.0, 1.0)

    def test_contains_interior_point(self):
        assert unit_triangle().contains_point(0.2, 0.2)

    def test_excludes_exterior_point(self):
        assert not unit_triangle().contains_point(0.8, 0.8)

    def test_boundary_point_counts(self):
        assert unit_triangle().contains_point(0.5, 0.0)

    def test_vertex_counts(self):
        assert unit_triangle().contains_point(0.0, 0.0)

    def test_edge_count(self):
        assert len(unit_triangle().edges()) == 3

    def test_overlapping_polygons(self):
        other = Polygon(((0.1, 0.1), (0.9, 0.1), (0.1, 0.9)))
        assert unit_triangle().intersects(other)

    def test_disjoint_polygons(self):
        other = Polygon(((2.0, 2.0), (3.0, 2.0), (2.0, 3.0)))
        assert not unit_triangle().intersects(other)

    def test_nested_polygon_intersects(self):
        inner = Polygon(((0.1, 0.1), (0.2, 0.1), (0.1, 0.2)))
        assert unit_triangle().intersects(inner)
        assert inner.intersects(unit_triangle())

    def test_distance_between_disjoint(self):
        other = Polygon(((2.0, 0.0), (3.0, 0.0), (2.0, 1.0)))
        assert unit_triangle().distance_to(other) == pytest.approx(1.0)

    def test_distance_zero_when_nested(self):
        inner = Polygon(((0.1, 0.1), (0.2, 0.1), (0.1, 0.2)))
        assert unit_triangle().distance_to(inner) == 0.0

    def test_concave_polygon_containment(self):
        # A "U" shape: the notch interior is outside the polygon.
        u_shape = Polygon(
            (
                (0.0, 0.0),
                (1.0, 0.0),
                (1.0, 1.0),
                (0.7, 1.0),
                (0.7, 0.3),
                (0.3, 0.3),
                (0.3, 1.0),
                (0.0, 1.0),
            )
        )
        assert u_shape.contains_point(0.15, 0.9)  # left prong
        assert u_shape.contains_point(0.85, 0.9)  # right prong
        assert not u_shape.contains_point(0.5, 0.9)  # inside the notch
        assert u_shape.contains_point(0.5, 0.15)  # the base


class TestCrossTypeGeometry:
    def test_point_distances_match_segment_math(self):
        s = Segment(0.0, 0.0, 1.0, 0.0)
        assert s.distance_to_point(0.25, 0.1) == pytest.approx(0.1)
        assert s.distance_to_point(-0.3, 0.4) == pytest.approx(0.5)

    def test_segment_through_polygon(self):
        s = Segment(-0.5, 0.2, 1.5, 0.2)
        edges_hit = [e for e in unit_triangle().edges() if e.intersects(s)]
        assert edges_hit

    def test_diagonal_distance(self):
        a = Segment(0, 0, 0, 1)
        b = Segment(1, 2, 2, 2)
        assert a.distance_to(b) == pytest.approx(math.hypot(1, 1))
