"""Planar geometry primitives used throughout the reproduction.

The spatial objects handled by the paper are points and small rectangles
(minimum bounding rectangles, MBRs).  This subpackage provides:

* :class:`~repro.geometry.point.Point` -- an immutable 2D point.
* :class:`~repro.geometry.rect.Rect` -- an axis-aligned rectangle / MBR.
* :class:`~repro.geometry.grid.RegularGrid` -- the regular k x k grid
  decomposition used by all partition-based join strategies.
* vectorised array operations over ``(N, 4)`` MBR arrays in
  :mod:`repro.geometry.rect_array`.
* join predicates (:mod:`repro.geometry.predicates`).
"""

from __future__ import annotations

from repro.geometry.point import Point
from repro.geometry.rect import Rect, UNIT_RECT
from repro.geometry.grid import RegularGrid, quadrants
from repro.geometry.predicates import (
    JoinPredicate,
    IntersectionPredicate,
    WithinDistancePredicate,
    predicate_for,
)
from repro.geometry import rect_array

__all__ = [
    "Point",
    "Rect",
    "UNIT_RECT",
    "RegularGrid",
    "quadrants",
    "JoinPredicate",
    "IntersectionPredicate",
    "WithinDistancePredicate",
    "predicate_for",
    "rect_array",
]
