"""The memoizing analysis cache."""

import pytest

from repro.campaigns.cache import AnalysisCache
from repro.campaigns.scenario import WorkloadSpec
from repro.core.multiplexer import (
    FcfsMultiplexerAnalysis,
    StrictPriorityMultiplexerAnalysis,
    aggregate_flows,
    compute_arrival_curve,
    compute_class_bounds,
    compute_service_curve,
)
from repro.flows.priorities import PriorityClass


@pytest.fixture()
def cache() -> AnalysisCache:
    return AnalysisCache()


SPEC = WorkloadSpec(station_count=8, seed=3)


class TestAggregates:
    def test_aggregates_match_a_direct_pass_over_the_messages(self, cache):
        direct = aggregate_flows(SPEC.build().messages)
        cached = cache.aggregates(SPEC)
        assert set(cached) == set(direct)
        for cls in direct:
            assert cached[cls].count == direct[cls].count
            assert cached[cls].burst == pytest.approx(direct[cls].burst)
            assert cached[cls].rate == pytest.approx(direct[cls].rate)
            assert cached[cls].max_burst == direct[cls].max_burst

    def test_scaled_aggregates_match_the_materialised_replication(self, cache):
        spec = WorkloadSpec(station_count=8, seed=3, replication=4)
        materialised = aggregate_flows(spec.build().messages)
        derived = cache.aggregates(spec)
        for cls in materialised:
            assert derived[cls].count == materialised[cls].count
            assert derived[cls].burst == pytest.approx(
                materialised[cls].burst)
            assert derived[cls].rate == pytest.approx(materialised[cls].rate)
            assert derived[cls].max_burst == pytest.approx(
                materialised[cls].max_burst)

    def test_replicated_specs_share_the_base_message_set(self, cache):
        cache.aggregates(SPEC)
        cache.aggregates(WorkloadSpec(station_count=8, seed=3, replication=2))
        cache.aggregates(WorkloadSpec(station_count=8, seed=3, replication=8))
        # One base build (miss), the other two rungs reuse it (hits).
        assert cache.stats["base_sets"].misses == 1
        assert cache.stats["base_aggregates"].misses == 1
        assert cache.stats["base_aggregates"].hits == 2

    def test_repeated_lookups_hit(self, cache):
        cache.aggregates(SPEC)
        cache.aggregates(SPEC)
        assert cache.stats["aggregates"].hits == 1
        assert cache.stats["aggregates"].misses == 1


class TestBounds:
    """The closed forms agree with the analyses on the cached aggregates."""

    def test_fcfs_bounds_match_the_multiplexer_analysis(self, cache):
        messages = SPEC.build().messages
        expected = FcfsMultiplexerAnalysis(
            capacity=10e6, technology_delay=16e-6).bound(messages)
        bounds = compute_class_bounds(cache.aggregates(SPEC), 10e6, 16e-6,
                                      "fcfs")
        for cls, bound in bounds.items():
            assert bound.delay == pytest.approx(expected.delay)

    def test_priority_bounds_match_the_multiplexer_analysis(self, cache):
        messages = SPEC.build().messages
        expected = StrictPriorityMultiplexerAnalysis(
            capacity=10e6, technology_delay=16e-6).class_bounds(messages)
        bounds = compute_class_bounds(cache.aggregates(SPEC), 10e6, 16e-6,
                                      "strict-priority")
        assert set(bounds) == set(expected)
        for cls in expected:
            assert bounds[cls].delay == pytest.approx(expected[cls].delay)

    def test_saturated_class_maps_to_none(self, cache):
        spec = WorkloadSpec(station_count=8, seed=3, replication=64)
        bounds = compute_class_bounds(cache.aggregates(spec), 1e6, 0.0,
                                      "strict-priority")
        assert bounds[PriorityClass.BACKGROUND] is None
        # The urgent class alone does not saturate a 1 Mbps link.
        assert bounds[PriorityClass.URGENT] is not None


class TestCurves:
    def test_service_curve_matches_the_residual_curve(self, cache):
        messages = SPEC.build().messages
        expected = StrictPriorityMultiplexerAnalysis(
            capacity=10e6, technology_delay=16e-6).residual_service_curve(
                messages, PriorityClass.PERIODIC)
        curve = compute_service_curve(cache.aggregates(SPEC), 10e6, 16e-6,
                                      "strict-priority",
                                      PriorityClass.PERIODIC)
        assert curve.rate == pytest.approx(expected.rate)
        assert curve.delay == pytest.approx(expected.delay)

    def test_fcfs_service_curve_is_the_link_after_t_techno(self, cache):
        curve = compute_service_curve(cache.aggregates(SPEC), 10e6, 16e-6,
                                      "fcfs", None)
        assert curve.rate == 10e6
        assert curve.delay == 16e-6

    def test_arrival_curve_aggregates_up_to_the_class(self, cache):
        aggregates = cache.aggregates(SPEC)
        curve = compute_arrival_curve(aggregates, PriorityClass.PERIODIC)
        expected_bucket = sum(a.burst for cls, a in aggregates.items()
                              if cls <= PriorityClass.PERIODIC)
        assert curve.bucket == pytest.approx(expected_bucket)

    def test_full_arrival_curve_covers_every_class(self, cache):
        aggregates = cache.aggregates(SPEC)
        curve = compute_arrival_curve(aggregates, None)
        assert curve.bucket == pytest.approx(
            sum(a.burst for a in aggregates.values()))
        assert curve.token_rate == pytest.approx(
            sum(a.rate for a in aggregates.values()))


class TestClassDeadlines:
    def test_deadlines_are_replication_invariant(self, cache):
        base = cache.class_deadlines(SPEC)
        scaled = cache.class_deadlines(
            WorkloadSpec(station_count=8, seed=3, replication=4))
        assert base == scaled
        assert base[PriorityClass.URGENT] == pytest.approx(3e-3)
        assert base[PriorityClass.BACKGROUND] is None
