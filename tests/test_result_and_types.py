"""Tests for JoinSpec finalisation and JoinResult."""

from __future__ import annotations

import pytest

from repro.core.join_types import JoinKind, JoinSpec
from repro.core.result import JoinResult, TraceEvent
from repro.geometry.rect import Rect


class TestJoinSpec:
    def test_factories(self):
        assert JoinSpec.intersection().kind is JoinKind.INTERSECTION
        assert JoinSpec.distance(0.5).epsilon == 0.5
        iceberg = JoinSpec.iceberg(0.1, 3)
        assert iceberg.is_semi_join and iceberg.min_matches == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            JoinSpec(kind=JoinKind.DISTANCE, epsilon=0.0)
        with pytest.raises(ValueError):
            JoinSpec(kind=JoinKind.INTERSECTION, epsilon=0.1)
        with pytest.raises(ValueError):
            JoinSpec(kind=JoinKind.DISTANCE, epsilon=0.1, min_matches=2)

    def test_predicates(self):
        assert JoinSpec.intersection().predicate().probe_radius() == 0.0
        assert JoinSpec.distance(0.25).predicate().probe_radius() == 0.25

    def test_finalise_deduplicates_pairs(self):
        spec = JoinSpec.distance(0.1)
        answer = spec.finalise([(1, 2), (1, 2), (3, 4)])
        assert answer.pairs == [(1, 2), (3, 4)]
        assert answer.objects == []

    def test_finalise_iceberg_counts_distinct_partners(self):
        spec = JoinSpec.iceberg(0.1, 2)
        pairs = [(1, 10), (1, 11), (1, 11), (2, 10), (3, 10), (3, 11), (3, 12)]
        answer = spec.finalise(pairs)
        assert answer.objects == [1, 3]

    def test_describe(self):
        assert "iceberg" in JoinSpec.iceberg(0.2, 5).describe()
        assert "eps=0.2" in JoinSpec.distance(0.2).describe()


class TestJoinResult:
    def _result(self) -> JoinResult:
        return JoinResult(
            algorithm="upjoin",
            spec=JoinSpec.distance(0.1),
            pairs={(1, 2), (3, 4)},
            total_bytes=1234,
            bytes_r=1000,
            bytes_s=234,
            total_cost=1234.0,
            trace=[TraceEvent(0, Rect(0, 0, 1, 1), "start", "upjoin", 10, 20)],
        )

    def test_counts_and_sorting(self):
        result = self._result()
        assert result.num_pairs == 2
        assert result.sorted_pairs() == [(1, 2), (3, 4)]
        assert result.matches_pairs({(1, 2), (3, 4)})
        assert not result.matches_pairs({(1, 2)})

    def test_summary_mentions_key_numbers(self):
        text = self._result().summary()
        assert "1234" in text and "upjoin" in text

    def test_trace_formatting(self):
        result = self._result()
        assert "start" in result.format_trace()
        assert result.format_trace(max_events=0) == ""
