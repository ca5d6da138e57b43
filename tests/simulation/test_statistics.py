"""Statistics collectors."""

import math

import pytest

from repro.simulation.statistics import (
    Counter,
    LatencyRecorder,
    SummaryStatistics,
    TimeWeightedAverage,
    safe_max,
)


class TestLatencyRecorder:
    def test_summary_of_known_samples(self):
        recorder = LatencyRecorder("test")
        recorder.extend([1.0, 2.0, 3.0, 4.0])
        summary = recorder.summary()
        assert summary.count == 4
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.mean == pytest.approx(2.5)
        assert summary.p50 == pytest.approx(2.5)

    def test_jitter_is_max_minus_min(self):
        recorder = LatencyRecorder()
        recorder.extend([0.002, 0.005, 0.003])
        assert recorder.summary().jitter == pytest.approx(0.003)

    def test_empty_summary_is_nan(self):
        summary = LatencyRecorder().summary()
        assert summary.count == 0
        assert math.isnan(summary.mean)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder().record(-0.001)

    def test_maximum_and_minimum_properties(self):
        recorder = LatencyRecorder()
        recorder.extend([0.5, 0.1, 0.3])
        assert recorder.maximum == 0.5
        assert recorder.minimum == 0.1

    def test_maximum_of_empty_recorder_is_nan(self):
        assert math.isnan(LatencyRecorder().maximum)

    def test_samples_returns_copy(self):
        recorder = LatencyRecorder()
        recorder.record(1.0)
        samples = recorder.samples
        samples.append(99.0)
        assert recorder.count == 1

    def test_percentiles_are_ordered(self):
        recorder = LatencyRecorder()
        recorder.extend(float(i) for i in range(100))
        summary = recorder.summary()
        assert summary.p50 <= summary.p95 <= summary.p99 <= summary.maximum


class TestSummaryStatistics:
    def test_empty_constructor(self):
        empty = SummaryStatistics.empty()
        assert empty.count == 0
        assert math.isnan(empty.maximum)


class TestCounter:
    def test_increment_default_is_one(self):
        counter = Counter("frames")
        counter.increment()
        counter.increment()
        assert counter.value == 2

    def test_increment_by_amount(self):
        counter = Counter()
        counter.increment(5)
        assert counter.value == 5

    def test_reset(self):
        counter = Counter()
        counter.increment(3)
        counter.reset()
        assert counter.value == 0


class TestTimeWeightedAverage:
    def test_constant_signal_average(self):
        signal = TimeWeightedAverage(initial_value=2.0)
        signal.update(10.0, 2.0)
        assert signal.average() == pytest.approx(2.0)

    def test_step_signal_average(self):
        signal = TimeWeightedAverage(initial_value=0.0)
        signal.update(1.0, 4.0)   # 0 for 1 s
        signal.update(3.0, 0.0)   # 4 for 2 s
        assert signal.average() == pytest.approx(8.0 / 3.0)

    def test_average_with_explicit_until(self):
        signal = TimeWeightedAverage(initial_value=1.0)
        signal.update(1.0, 3.0)
        assert signal.average(until=2.0) == pytest.approx((1.0 + 3.0) / 2.0)

    def test_maximum_tracks_peak(self):
        signal = TimeWeightedAverage()
        signal.update(1.0, 10.0)
        signal.update(2.0, 5.0)
        assert signal.maximum == 10.0

    def test_time_going_backwards_rejected(self):
        signal = TimeWeightedAverage()
        signal.update(2.0, 1.0)
        with pytest.raises(ValueError):
            signal.update(1.0, 1.0)

    def test_zero_duration_average_is_nan(self):
        assert math.isnan(TimeWeightedAverage().average())

    def test_close_extends_last_interval(self):
        signal = TimeWeightedAverage(initial_value=2.0)
        signal.close(5.0)
        assert signal.average() == pytest.approx(2.0)


class TestSafeMax:
    def test_regular_max(self):
        assert safe_max([1.0, 3.0, 2.0]) == 3.0

    def test_empty_returns_default(self):
        assert safe_max([], default=0.0) == 0.0
        assert safe_max([], default=7.0) == 7.0

    def test_nan_returns_default(self):
        assert safe_max([float("nan")], default=0.0) == 0.0


class TestLatencyRecorderBuffer:
    """The ``array('d')`` sample buffer behind the recorder."""

    def test_growth_beyond_initial_capacity(self):
        recorder = LatencyRecorder()
        count = 1027
        for index in range(count):
            recorder.record(float(index))
        assert recorder.count == count
        assert recorder.samples == [float(i) for i in range(count)]
        assert recorder.maximum == float(count - 1)

    def test_extend_grows_in_one_step(self):
        recorder = LatencyRecorder()
        values = [float(i) for i in range(768)]
        recorder.extend(values)
        assert recorder.samples == values

    def test_sink_appends_like_record(self):
        recorder = LatencyRecorder()
        reference = LatencyRecorder()
        sink = recorder.sink
        for index in range(300):
            sink(0.001 * index)
            reference.record(0.001 * index)
        assert recorder.samples == reference.samples
        assert recorder.summary() == reference.summary()

    def test_recording_continues_after_a_summary(self):
        # summary() reads the buffer through a numpy view; the view must be
        # gone once it returns, or the array could no longer grow.
        recorder = LatencyRecorder()
        recorder.record(0.002)
        first = recorder.summary()
        recorder.sink(0.004)
        recorder.extend([0.006])
        assert recorder.maximum == 0.006
        assert recorder.summary().count == first.count + 2

    def test_extend_rejects_negative_values_atomically(self):
        recorder = LatencyRecorder()
        recorder.record(1.0)
        with pytest.raises(ValueError):
            recorder.extend([2.0, -1.0])
        # The batch was rejected as a whole.
        assert recorder.count == 1

    def test_extend_empty_iterable_is_a_noop(self):
        recorder = LatencyRecorder()
        recorder.extend([])
        assert recorder.count == 0

    def test_single_sample_percentiles(self):
        recorder = LatencyRecorder()
        recorder.record(0.004)
        summary = recorder.summary()
        assert summary.count == 1
        assert summary.p50 == summary.p95 == summary.p99 == 0.004
        assert summary.minimum == summary.maximum == 0.004
        assert summary.std == 0.0
        assert summary.jitter == 0.0

    def test_summary_matches_reference_implementation(self):
        import numpy as np
        recorder = LatencyRecorder()
        values = [0.001 * (i % 17) + 0.0005 for i in range(1000)]
        recorder.extend(values)
        summary = recorder.summary()
        data = np.asarray(values)
        assert summary.mean == pytest.approx(float(data.mean()))
        assert summary.std == pytest.approx(float(data.std()))
        assert summary.p95 == pytest.approx(float(np.percentile(data, 95)))
