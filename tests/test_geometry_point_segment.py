"""Unit tests for repro.geometry.point."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.point import Point

coords = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)


class TestPoint:
    def test_distance(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == pytest.approx(5.0)

    def test_squared_distance(self):
        assert Point(1, 1).squared_distance_to(Point(2, 3)) == pytest.approx(5.0)

    def test_within_distance_boundary_inclusive(self):
        assert Point(0, 0).within_distance(Point(0, 1), 1.0)
        assert not Point(0, 0).within_distance(Point(0, 1.0001), 1.0)

    def test_within_distance_negative_raises(self):
        with pytest.raises(ValueError):
            Point(0, 0).within_distance(Point(1, 1), -0.5)

    def test_translation_preserves_oid(self):
        p = Point(0.1, 0.2, oid=7)
        q = p.translated(0.3, -0.1)
        assert q.oid == 7
        assert q.x == pytest.approx(0.4)

    def test_iteration_and_tuple(self):
        p = Point(0.5, 0.75)
        assert tuple(p) == (0.5, 0.75)
        assert p.as_tuple() == (0.5, 0.75)

    def test_equality_ignores_oid(self):
        assert Point(1.0, 2.0, oid=1) == Point(1.0, 2.0, oid=99)

    @given(coords, coords, coords, coords)
    @settings(max_examples=60)
    def test_distance_symmetry(self, x1, y1, x2, y2):
        a, b = Point(x1, y1), Point(x2, y2)
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))
