"""Property-based equivalence: incremental 1553B packing vs the reference.

The schedule builder keeps a per-minor-frame load vector updated in O(1)
per placement and picks phases with a numpy argmin; these tests pit it
against a literal transcription of the original greedy algorithm (re-sum
every transaction duration for every candidate phase) on randomized message
sets and require *bit-identical* results — same intervals, same phases,
same transaction tables, same minor-frame durations.
"""

from __future__ import annotations

import operator
from functools import reduce

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Message, MessageSet, units
from repro.milstd1553.schedule import MajorFrameSchedule
from repro.milstd1553.transaction import (
    TransferFormat,
    transactions_for_message,
)

MINOR = units.ms(20)
MAJOR = units.ms(160)
FRAMES = 8


# ---------------------------------------------------------------------------
# Reference implementation: the original O(M^2 * F) greedy packing
# ---------------------------------------------------------------------------

def _reference_interval(message: Message) -> int:
    interval = int(message.period / MINOR + 1e-9)
    interval = max(1, min(interval, FRAMES))
    while FRAMES % interval != 0:
        interval -= 1
    return interval


def _left_to_right(values) -> float:
    """The seed's float sums, added in order (never compensated)."""
    return reduce(operator.add, values, 0)


def _reference_build(message_set: MessageSet,
                     transfer_format: TransferFormat):
    """(phases, intervals, slot name lists, slot load sums) — seed greedy."""
    slots: list[list] = [[] for _ in range(FRAMES)]
    phases: dict[str, int] = {}
    intervals: dict[str, int] = {}
    periodic = sorted(message_set.periodic(),
                      key=lambda m: (m.period, -m.size, m.name))
    for message in periodic:
        interval = _reference_interval(message)
        intervals[message.name] = interval
        message_duration = _left_to_right(
            t.duration for t in transactions_for_message(
                message, transfer_format))
        best_phase, best_load = 0, float("inf")
        for phase in range(interval):
            load = max(
                _left_to_right(t.duration for t in slots[i])
                + message_duration
                for i in range(phase, FRAMES, interval))
            if load < best_load:
                best_phase, best_load = phase, load
        phases[message.name] = best_phase
        for transaction in transactions_for_message(message,
                                                    transfer_format):
            for slot_index in range(best_phase, FRAMES, interval):
                slots[slot_index].append(transaction)
    names = [[t.name for t in slot] for slot in slots]
    loads = [_left_to_right(t.duration for t in slot) for slot in slots]
    return phases, intervals, names, loads


# ---------------------------------------------------------------------------
# Randomized message sets
# ---------------------------------------------------------------------------

@st.composite
def periodic_message_sets(draw, max_size=24):
    """Random periodic populations; duplicate (period, size) pairs are
    deliberately likely, so phase tie-breaking gets exercised."""
    count = draw(st.integers(min_value=1, max_value=max_size))
    messages = []
    for index in range(count):
        period_ms = draw(st.sampled_from([20, 40, 80, 160]))
        words = draw(st.integers(min_value=1, max_value=96))
        messages.append(Message.periodic(
            f"m{index:02d}", period=units.ms(period_ms),
            size=units.words1553(words),
            source=f"s{index % 6}", destination="sink"))
    if draw(st.booleans()):
        messages.append(Message.sporadic(
            "alarm", min_interarrival=units.ms(20),
            size=units.words1553(2), source="s0", destination="sink",
            deadline=units.ms(3)))
    return MessageSet(messages, name="prop-set")


class TestPackingEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(message_set=periodic_message_sets(),
           transfer_format=st.sampled_from(list(TransferFormat)))
    def test_incremental_packing_matches_reference(self, message_set,
                                                   transfer_format):
        ref_phases, ref_intervals, ref_names, ref_loads = _reference_build(
            message_set, transfer_format)
        schedule = MajorFrameSchedule(message_set,
                                      transfer_format=transfer_format)
        assert schedule._phases == ref_phases
        assert schedule._intervals == ref_intervals
        assert [[t.name for t in slot.transactions]
                for slot in schedule.slots] == ref_names
        # Bit-identical loads: same additions in the same order.
        assert [slot.periodic_duration()
                for slot in schedule.slots] == ref_loads
        assert list(schedule.periodic_loads()) == ref_loads

    @settings(max_examples=40, deadline=None)
    @given(message_set=periodic_message_sets(max_size=12))
    def test_load_vector_matches_slot_sums(self, message_set):
        schedule = MajorFrameSchedule(message_set)
        assert [float(load) for load in schedule.periodic_loads()] == \
            [slot.periodic_duration() for slot in schedule.slots]
