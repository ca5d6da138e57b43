"""The struct-of-arrays message view and the lazy replicated sets.

The equivalence battery required by the array backend: aggregates computed
through :class:`MessageArrays` (and through the arithmetic replication
shortcut) must match the per-message reference loop — bit-identically for
plain sets, and to within arithmetic-rescaling precision for replicated
ones — on the paper's case study at scales 1 through 32.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Message, MessageSet, units
from repro.flows.arrays import MessageArrays
from repro.flows.message_set import ReplicatedMessageSet
from repro.flows.priorities import PriorityClass, assign_priority
from repro.core.multiplexer import aggregate_flows, aggregate_from_arrays
from repro.workloads.sweeps import scale_station_count


def _reference_aggregates(messages):
    """Literal transcription of the per-message aggregation loop."""
    bursts, rates, max_bursts, counts = {}, {}, {}, {}
    for message in messages:
        cls = assign_priority(message)
        burst = float(message.burst)
        bursts[cls] = bursts.get(cls, 0.0) + burst
        rates[cls] = rates.get(cls, 0.0) + float(message.rate)
        max_bursts[cls] = max(max_bursts.get(cls, 0.0), burst)
        counts[cls] = counts.get(cls, 0) + 1
    return {cls: (bursts[cls], rates[cls], max_bursts[cls], counts[cls])
            for cls in sorted(bursts)}


class TestMessageArrays:
    def test_columns_align_with_messages(self, tiny_message_set):
        arrays = tiny_message_set.arrays()
        messages = tiny_message_set.messages
        assert arrays.names == tuple(m.name for m in messages)
        assert list(arrays.periods) == [m.period for m in messages]
        assert list(arrays.sizes) == [m.size for m in messages]
        assert list(arrays.rates) == [m.rate for m in messages]
        assert list(arrays.priorities) == [assign_priority(m).value
                                           for m in messages]

    def test_deadlines_use_nan_for_none(self, tiny_message_set):
        arrays = tiny_message_set.arrays()
        for message, deadline in zip(tiny_message_set.messages,
                                     arrays.deadlines):
            if message.deadline is None:
                assert np.isnan(deadline)
            else:
                assert deadline == message.deadline

    def test_view_is_cached_until_mutation(self, tiny_message_set):
        first = tiny_message_set.arrays()
        assert tiny_message_set.arrays() is first
        tiny_message_set.add(Message.periodic(
            "extra", period=units.ms(40), size=units.words1553(4),
            source="station-00", destination="station-02"))
        second = tiny_message_set.arrays()
        assert second is not first
        assert len(second) == len(first) + 1

    def test_aggregate_quantities_match_message_loops(self, real_case):
        arrays = real_case.arrays()
        assert arrays.total_rate() == sum(m.rate for m in real_case)
        assert arrays.total_burst() == sum(m.burst for m in real_case)
        assert arrays.max_burst() == max(m.burst for m in real_case)

    def test_class_deadlines_match_reference_scan(self, real_case):
        expected = {}
        for cls, messages in real_case.by_priority().items():
            if not messages:
                continue
            with_deadline = [m.deadline for m in messages
                             if m.deadline is not None]
            expected[cls] = min(with_deadline) if with_deadline else None
        assert real_case.class_deadlines() == expected


class TestAggregateEquivalence:
    def test_bit_identical_on_the_case_study(self, real_case):
        reference = _reference_aggregates(real_case.messages)
        via_arrays = aggregate_from_arrays(real_case.arrays())
        assert {cls: (a.burst, a.rate, a.max_burst, a.count)
                for cls, a in via_arrays.items()} == reference

    def test_message_set_dispatch_uses_the_arrays(self, real_case):
        assert aggregate_flows(real_case) == \
            aggregate_flows(real_case.messages)

    @pytest.mark.parametrize("scale", [1, 2, 4, 8, 16, 32])
    def test_scaled_aggregates_match_materialized_loop(self, real_case,
                                                       scale):
        scaled = scale_station_count(real_case, scale)
        fast = aggregate_flows(scaled)
        # Reference: materialise every replica and run the message loop.
        reference = _reference_aggregates(list(scaled))
        assert set(fast) == set(reference)
        for cls, aggregate in fast.items():
            burst, rate, max_burst, count = reference[cls]
            assert aggregate.count == count
            assert aggregate.max_burst == max_burst
            assert aggregate.burst == pytest.approx(burst, rel=1e-12)
            assert aggregate.rate == pytest.approx(rate, rel=1e-12)


class TestReplicatedMessageSet:
    @pytest.fixture()
    def replicated(self, tiny_message_set):
        return scale_station_count(tiny_message_set, 3)

    def test_aggregates_do_not_materialize(self, tiny_message_set):
        replicated = scale_station_count(tiny_message_set, 4)
        assert isinstance(replicated, ReplicatedMessageSet)
        assert len(replicated) == 4 * len(tiny_message_set)
        assert replicated.total_rate() == \
            pytest.approx(4 * tiny_message_set.total_rate())
        assert replicated.total_burst() == \
            pytest.approx(4 * tiny_message_set.total_burst())
        assert replicated.max_burst() == tiny_message_set.max_burst()
        assert replicated.class_deadlines() == \
            tiny_message_set.class_deadlines()
        assert not replicated.is_materialized

    def test_materialized_names_follow_the_replica_scheme(self, replicated,
                                                          tiny_message_set):
        names = [m.name for m in replicated]
        base = [m.name for m in tiny_message_set]
        assert names == (base + [f"{n}-r1" for n in base]
                         + [f"{n}-r2" for n in base])
        assert replicated.is_materialized

    def test_replica_stations_are_disjoint(self, replicated,
                                           tiny_message_set):
        assert len(replicated.stations()) == \
            3 * len(tiny_message_set.stations())

    def test_scale_one_returns_the_original(self, tiny_message_set):
        assert scale_station_count(tiny_message_set, 1) is tiny_message_set

    def test_mutation_drops_the_arithmetic_shortcuts(self, replicated):
        extra = Message.periodic(
            "extra", period=units.ms(20), size=units.words1553(10),
            source="new-station", destination="station-00")
        replicated.add(extra)
        assert replicated.arithmetic_replication is None
        assert len(replicated) == 3 * 5 + 1
        assert replicated.total_burst() == \
            sum(m.burst for m in replicated)
        assert "extra" in replicated

    def test_replication_below_one_rejected(self, tiny_message_set):
        from repro.errors import InvalidWorkloadError
        with pytest.raises(InvalidWorkloadError):
            ReplicatedMessageSet(tiny_message_set, 0)

    def test_materialization_snapshots_the_base(self, tiny_message_set):
        """Once materialised, the replica is frozen: later base mutations
        must not leak into its aggregates (they no longer reach its
        messages)."""
        replicated = scale_station_count(tiny_message_set, 2)
        names = [m.name for m in replicated]  # materialise
        tiny_message_set.add(Message.periodic(
            "post-snapshot", period=units.ms(20),
            size=units.words1553(50),
            source="station-09", destination="station-00"))
        assert replicated.arithmetic_replication is None
        assert len(replicated) == len(names)
        assert [m.name for m in replicated] == names
        assert replicated.total_rate() == \
            sum(m.rate for m in replicated)
        from repro.core.multiplexer import aggregate_flows
        total = sum(a.count for a in aggregate_flows(replicated).values())
        assert total == len(names)

    def test_base_mutation_before_materialization_is_visible(
            self, tiny_message_set):
        replicated = scale_station_count(tiny_message_set, 2)
        version = replicated.version
        tiny_message_set.add(Message.periodic(
            "pre-snapshot", period=units.ms(20), size=units.words1553(5),
            source="station-09", destination="station-00"))
        assert replicated.version > version
        assert len(replicated) == 2 * len(tiny_message_set)
        assert "pre-snapshot-r1" in [m.name for m in replicated]

    def test_colliding_replica_names_rejected_like_eager_replication(self):
        from repro.errors import InvalidWorkloadError
        base = MessageSet([
            Message.periodic("a", period=units.ms(20),
                             size=units.words1553(4),
                             source="s0", destination="sink"),
            Message.periodic("a-r1", period=units.ms(20),
                             size=units.words1553(4),
                             source="s1", destination="sink"),
        ])
        replicated = scale_station_count(base, 2)
        with pytest.raises(InvalidWorkloadError):
            list(replicated)
