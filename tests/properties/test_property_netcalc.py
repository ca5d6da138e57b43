"""Property-based tests of the network-calculus core."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.netcalc import (
    AggregateArrivalCurve,
    ConstantRateServiceCurve,
    RateLatencyServiceCurve,
    StairArrivalCurve,
    TokenBucketArrivalCurve,
    backlog_bound,
    convolve_rate_latency,
    delay_bound,
    output_arrival_curve,
)

bursts = st.floats(min_value=1.0, max_value=1e6)
rates = st.floats(min_value=1.0, max_value=1e6)
capacities = st.floats(min_value=1e6 + 1, max_value=1e9)
latencies = st.floats(min_value=0.0, max_value=0.01)
intervals = st.floats(min_value=0.0, max_value=10.0)


class TestArrivalCurveProperties:
    @given(burst=bursts, rate=rates, t1=intervals, t2=intervals)
    def test_token_bucket_is_monotone(self, burst, rate, t1, t2):
        curve = TokenBucketArrivalCurve(burst, rate)
        low, high = sorted((t1, t2))
        assert curve(low) <= curve(high) + 1e-9

    @given(burst=bursts, rate=rates, t1=intervals, t2=intervals)
    def test_token_bucket_is_subadditive(self, burst, rate, t1, t2):
        """alpha(t1 + t2) <= alpha(t1) + alpha(t2) for a valid arrival curve."""
        curve = TokenBucketArrivalCurve(burst, rate)
        assert curve(t1 + t2) <= curve(t1) + curve(t2) + 1e-6

    @given(size=bursts, period=st.floats(min_value=1e-3, max_value=1.0),
           jitter=st.floats(min_value=0.0, max_value=0.5),
           t=intervals)
    def test_stair_curve_dominated_by_its_token_bucket_hull(self, size,
                                                            period, jitter,
                                                            t):
        stair = StairArrivalCurve(message_size=size, period=period,
                                  jitter=jitter)
        hull = stair.to_token_bucket()
        assert stair(t) <= hull(t) + 1e-6

    @given(size=bursts, period=st.floats(min_value=1e-3, max_value=1.0),
           t1=intervals, t2=intervals)
    def test_stair_curve_is_monotone(self, size, period, t1, t2):
        curve = StairArrivalCurve(message_size=size, period=period)
        low, high = sorted((t1, t2))
        assert curve(low) <= curve(high) + 1e-9

    @given(params=st.lists(st.tuples(bursts, rates), min_size=1, max_size=5),
           t=intervals)
    def test_aggregate_equals_the_sum_of_components(self, params, t):
        curves = [TokenBucketArrivalCurve(b, r) for b, r in params]
        aggregate = AggregateArrivalCurve(curves)
        assert aggregate(t) == sum(curve(t) for curve in curves)

    @given(params=st.lists(st.tuples(bursts, rates), min_size=1,
                           max_size=12), data=st.data())
    def test_aggregate_rate_and_burst_ignore_component_order(self, params,
                                                             data):
        curves = [TokenBucketArrivalCurve(b, r) for b, r in params]
        aggregate = AggregateArrivalCurve(curves)
        shuffled = AggregateArrivalCurve(data.draw(st.permutations(curves)))
        assert (shuffled.rate, shuffled.burst) == \
            (aggregate.rate, aggregate.burst)


class TestBoundProperties:
    @given(burst=bursts, rate=rates, capacity=capacities, latency=latencies)
    def test_delay_bound_is_non_negative(self, burst, rate, capacity,
                                         latency):
        alpha = TokenBucketArrivalCurve(burst, rate)
        beta = RateLatencyServiceCurve(rate=capacity, delay=latency)
        assert delay_bound(alpha, beta) >= 0

    @given(burst=bursts, rate=rates, capacity=capacities, latency=latencies)
    def test_backlog_bound_at_least_the_burst(self, burst, rate, capacity,
                                              latency):
        alpha = TokenBucketArrivalCurve(burst, rate)
        beta = RateLatencyServiceCurve(rate=capacity, delay=latency)
        assert backlog_bound(alpha, beta) >= burst

    @given(burst=bursts, rate=rates, c1=capacities, c2=capacities)
    def test_delay_bound_decreases_with_capacity(self, burst, rate, c1, c2):
        alpha = TokenBucketArrivalCurve(burst, rate)
        slow, fast = sorted((c1, c2))
        slow_bound = delay_bound(alpha, ConstantRateServiceCurve(slow))
        fast_bound = delay_bound(alpha, ConstantRateServiceCurve(fast))
        assert fast_bound <= slow_bound + 1e-12

    @given(b1=bursts, b2=bursts, rate=rates, capacity=capacities)
    def test_delay_bound_increases_with_burst(self, b1, b2, rate, capacity):
        small, large = sorted((b1, b2))
        beta = ConstantRateServiceCurve(capacity)
        assert delay_bound(TokenBucketArrivalCurve(small, rate), beta) <= \
            delay_bound(TokenBucketArrivalCurve(large, rate), beta) + 1e-12

    @given(burst=bursts, rate=rates, capacity=capacities, latency=latencies)
    @settings(max_examples=50)
    def test_output_curve_dominates_the_input(self, burst, rate, capacity,
                                              latency):
        alpha = TokenBucketArrivalCurve(burst, rate)
        beta = RateLatencyServiceCurve(rate=capacity, delay=latency)
        output = output_arrival_curve(alpha, beta)
        for t in (0.0, 0.001, 0.1, 1.0):
            assert output(t) >= alpha(t) - 1e-6

    @given(r1=capacities, r2=capacities, l1=latencies, l2=latencies)
    def test_tandem_convolution_properties(self, r1, r2, l1, l2):
        first = RateLatencyServiceCurve(rate=r1, delay=l1)
        second = RateLatencyServiceCurve(rate=r2, delay=l2)
        tandem = convolve_rate_latency(first, second)
        assert tandem.rate == min(r1, r2)
        assert tandem.delay == l1 + l2
        # The tandem curve never offers more service than either element.
        for t in (0.0, 0.005, 0.05):
            assert tandem(t) <= first(t) + 1e-6
            assert tandem(t) <= second(t) + 1e-6
