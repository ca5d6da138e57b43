"""The synthetic real-case workload generator."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PriorityClass, units
from repro.errors import InvalidWorkloadError
from repro.workloads import RealCaseParameters, generate_real_case
from repro.workloads.realcase import _cdf, _draw_index, _pick

#: SHA-256 of the generator's output over :func:`_stream_configurations`
#: x seeds 0-49, recorded when the draws still went through
#: ``Generator.choice``.  A change here means every seeded workload moved.
STREAM_DIGEST = (
    "e4f87570cee7e89fd706bddcda209038d911e0b5b5a26e9b05b847eb359a8490")


class TestStructure:
    def test_default_population(self, real_case):
        params = RealCaseParameters()
        expected_per_station = (params.periodic_per_station
                                + params.urgent_per_station
                                + params.medium_per_station
                                + params.background_per_station)
        assert len(real_case) == params.station_count * expected_per_station
        assert len(real_case.stations()) == params.station_count

    def test_period_extremes_match_the_paper(self, real_case):
        assert real_case.smallest_period() == pytest.approx(units.ms(20))
        assert real_case.largest_period() == pytest.approx(units.ms(160))

    def test_every_priority_class_is_populated(self, real_case):
        by_priority = real_case.by_priority()
        for cls in PriorityClass:
            assert by_priority[cls], cls

    def test_urgent_messages_have_the_3ms_deadline(self, real_case):
        for message in real_case.by_priority()[PriorityClass.URGENT]:
            assert message.deadline == pytest.approx(units.ms(3))
            assert message.period >= units.ms(20)

    def test_medium_sporadic_deadlines_are_in_the_paper_range(self, real_case):
        for message in real_case.by_priority()[PriorityClass.SPORADIC]:
            assert units.ms(20) <= message.deadline <= units.ms(160)

    def test_sporadic_interarrival_at_least_one_minor_frame(self, real_case):
        for message in real_case.sporadic():
            assert message.period >= units.ms(20) - 1e-12

    def test_message_sizes_are_on_the_16_bit_word_grid(self, real_case):
        for message in real_case:
            assert message.size % units.BITS_PER_1553_WORD == 0

    def test_traffic_converges_on_the_mission_computer(self, real_case):
        by_destination = real_case.by_destination()
        mission_computer = "station-00"
        assert len(by_destination[mission_computer]) >= \
            max(len(messages) for station, messages in by_destination.items()
                if station != mission_computer)


class TestCalibration:
    """The defaults must exhibit the paper's three headline properties."""

    def test_total_burst_exceeds_the_3ms_fcfs_threshold(self, real_case):
        # FCFS bound = total burst / 10 Mbps: above 3 ms needs > 30 kbits.
        assert real_case.total_burst() > 30_000

    def test_ethernet_utilization_is_low(self, real_case):
        assert real_case.utilization(units.mbps(10)) < 0.1

    def test_1553_utilization_is_high_but_below_one(self, real_case):
        utilization = real_case.total_rate() / units.mbps(1)
        assert 0.2 < utilization < 1.0


class TestDeterminism:
    def test_same_seed_same_set(self):
        first = generate_real_case(seed=7)
        second = generate_real_case(seed=7)
        assert [m.name for m in first] == [m.name for m in second]
        assert [m.size for m in first] == [m.size for m in second]
        assert [m.destination for m in first] == [m.destination for m in second]

    def test_different_seed_differs(self):
        first = generate_real_case(seed=7)
        second = generate_real_case(seed=8)
        assert [m.size for m in first] != [m.size for m in second]

    def test_custom_parameters(self):
        params = RealCaseParameters(station_count=8, periodic_per_station=3,
                                    urgent_per_station=1,
                                    medium_per_station=1,
                                    background_per_station=0)
        message_set = generate_real_case(params, seed=1)
        assert len(message_set) == 8 * 5
        assert len(message_set.stations()) == 8


def _stream_configurations():
    custom = RealCaseParameters(
        station_count=9, period_weights=(0.25, 0.05, 0.3, 0.4),
        medium_deadlines=(units.ms(10), units.ms(50), units.ms(120)),
        convergence_ratio=0.35)
    return [RealCaseParameters(station_count=count)
            for count in (4, 5, 16, 33)] + [custom]


class TestStream:
    """The draws read numpy's random stream exactly as ``choice`` does."""

    def test_the_generated_stream_is_pinned(self):
        digest = hashlib.sha256()
        for params in _stream_configurations():
            for seed in range(50):
                for m in generate_real_case(params, seed=seed):
                    digest.update(repr((
                        m.name, m.kind.name, m.period, m.size, m.source,
                        m.destination, m.deadline,
                        sorted(m.metadata.items()))).encode())
                    digest.update(b"\n")
        assert digest.hexdigest() == STREAM_DIGEST

    @settings(max_examples=200, deadline=None)
    @given(weights=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=8)
           .filter(lambda ws: sum(ws) > 0),
           seed=st.integers(0, 2**32 - 1),
           draws=st.integers(1, 8))
    def test_the_weighted_draw_matches_choice(self, weights, seed, draws):
        total = sum(weights)
        p = [weight / total for weight in weights]
        cdf = _cdf(p)
        ours = np.random.default_rng(seed)
        numpy = np.random.default_rng(seed)
        for _ in range(draws):
            assert _draw_index(ours, cdf) == int(numpy.choice(len(p), p=p))
        assert ours.bit_generator.state == numpy.bit_generator.state

    @settings(max_examples=200, deadline=None)
    @given(length=st.integers(1, 200), seed=st.integers(0, 2**32 - 1),
           draws=st.integers(1, 8))
    def test_the_uniform_draw_matches_choice(self, length, seed, draws):
        items = [f"item-{index}" for index in range(length)]
        ours = np.random.default_rng(seed)
        numpy = np.random.default_rng(seed)
        for _ in range(draws):
            assert _pick(ours, items) == str(numpy.choice(items))
        assert ours.bit_generator.state == numpy.bit_generator.state


class TestParameterValidation:
    def test_too_few_stations_rejected(self):
        with pytest.raises(InvalidWorkloadError):
            RealCaseParameters(station_count=2)

    def test_period_weights_must_sum_to_one(self):
        with pytest.raises(InvalidWorkloadError):
            RealCaseParameters(period_weights=(0.5, 0.5, 0.5, 0.5))

    def test_negative_period_weights_rejected(self):
        with pytest.raises(InvalidWorkloadError, match="non-negative"):
            RealCaseParameters(period_weights=(-0.1, 0.3, 0.4, 0.4))

    def test_nan_period_weights_rejected(self):
        with pytest.raises(InvalidWorkloadError):
            RealCaseParameters(period_weights=(float("nan"), 0.3, 0.3, 0.4))

    def test_one_period_weight_per_ladder_period(self):
        with pytest.raises(InvalidWorkloadError, match="ladder"):
            RealCaseParameters(period_weights=(0.5, 0.5))

    def test_sinks_must_differ(self):
        with pytest.raises(InvalidWorkloadError):
            RealCaseParameters(mission_computer_index=1,
                               concentrator_index=1)

    def test_convergence_ratio_bounds(self):
        with pytest.raises(InvalidWorkloadError):
            RealCaseParameters(convergence_ratio=1.5)

    def test_empty_medium_deadlines_rejected(self):
        with pytest.raises(InvalidWorkloadError, match="medium deadlines"):
            RealCaseParameters(medium_deadlines=())

    @pytest.mark.parametrize("overrides", [
        {"urgent_deadline": 0.0},
        {"urgent_deadline": -units.ms(3)},
        {"urgent_deadline": float("nan")},
        {"medium_deadlines": (units.ms(20), 0.0)},
        {"medium_deadlines": (-units.ms(40),)},
    ], ids=["urgent-zero", "urgent-negative", "urgent-nan", "medium-zero",
            "medium-negative"])
    def test_non_positive_deadlines_rejected(self, overrides):
        with pytest.raises(InvalidWorkloadError, match="positive"):
            RealCaseParameters(**overrides)

    @pytest.mark.parametrize("overrides", [
        {"urgent_words": (3, 1)},
        {"urgent_words": (0, 2)},
        {"medium_words": (7, 6)},
        {"background_words": (-1, 64)},
        {"periodic_word_ranges": ((1, 8), (4, 16), (32, 8), (8, 24))},
    ], ids=["urgent-reversed", "urgent-zero", "medium-reversed",
            "background-negative", "periodic-reversed"])
    def test_unusable_word_ranges_rejected(self, overrides):
        with pytest.raises(InvalidWorkloadError, match="low <= high"):
            RealCaseParameters(**overrides)

    def test_one_word_range_per_ladder_period(self):
        with pytest.raises(InvalidWorkloadError, match="ladder"):
            RealCaseParameters(periodic_word_ranges=((1, 8), (4, 16)))

    @pytest.mark.parametrize("overrides", [
        {"mission_computer_index": 40},
        {"mission_computer_index": -1},
        {"concentrator_index": 16},
        {"station_count": 6, "concentrator_index": 6},
    ], ids=["mission-40", "mission-negative", "concentrator-16",
            "concentrator-past-6"])
    def test_sink_indices_name_existing_stations(self, overrides):
        with pytest.raises(InvalidWorkloadError, match="stations"):
            RealCaseParameters(**overrides)

    def test_single_word_ranges_and_last_station_sinks_generate(self):
        parameters = RealCaseParameters(
            station_count=5, urgent_words=(2, 2), mission_computer_index=4,
            concentrator_index=3, medium_deadlines=(units.ms(40),))
        message_set = generate_real_case(parameters, seed=1)
        destinations = {message.destination for message in message_set}
        assert "station-04" in destinations
        assert all(message.destination != "station-05"
                   for message in message_set)
