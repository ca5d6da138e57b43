"""The discrete-event simulation engine."""

import pytest

from repro.errors import SchedulingInPastError
from repro.simulation import Simulator


class TestScheduling:
    def test_clock_starts_at_zero_by_default(self):
        assert Simulator().now == 0.0

    def test_clock_can_start_elsewhere(self):
        assert Simulator(start_time=5.0).now == 5.0

    def test_schedule_relative_delay(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.5, fired.append, "a")
        sim.run()
        assert fired == ["a"]
        assert sim.now == 1.5

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(2.0, fired.append, "b")
        sim.run()
        assert sim.now == 2.0

    def test_negative_delay_rejected(self):
        with pytest.raises(SchedulingInPastError):
            Simulator().schedule(-0.1, lambda: None)

    def test_schedule_at_in_the_past_rejected(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(SchedulingInPastError):
            sim.schedule_at(5.0, lambda: None)

    def test_zero_delay_fires_immediately(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.0, fired.append, 1)
        sim.run()
        assert fired == [1]


class TestExecutionOrder:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, order.append, "late")
        sim.schedule(1.0, order.append, "early")
        sim.schedule(2.0, order.append, "middle")
        sim.run()
        assert order == ["early", "middle", "late"]

    def test_same_time_events_fire_in_scheduling_order(self):
        sim = Simulator()
        order = []
        for label in ("first", "second", "third"):
            sim.schedule(1.0, order.append, label)
        sim.run()
        assert order == ["first", "second", "third"]

    def test_callbacks_can_schedule_new_events(self):
        sim = Simulator()
        fired = []

        def chain(count):
            fired.append(count)
            if count < 3:
                sim.schedule(1.0, chain, count + 1)

        sim.schedule(0.0, chain, 0)
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 3.0

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []


class TestRunControls:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "kept")
        sim.schedule(5.0, fired.append, "dropped")
        sim.run(until=2.0)
        assert fired == ["kept"]
        assert sim.now == 2.0
        assert sim.pending_events == 1

    def test_run_until_advances_clock_even_without_events(self):
        sim = Simulator()
        sim.run(until=4.0)
        assert sim.now == 4.0

    def test_max_events_limits_processing(self):
        sim = Simulator()
        fired = []
        for index in range(10):
            sim.schedule(float(index), fired.append, index)
        sim.run(max_events=4)
        assert fired == [0, 1, 2, 3]

    def test_stop_inside_callback_halts_the_loop(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append("a"), sim.stop()))
        sim.schedule(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a"]

    def test_step_processes_one_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(2.0, fired.append, 2)
        assert sim.step() is True
        assert fired == [1]
        assert sim.step() is True
        assert sim.step() is False

    def test_events_processed_counter(self):
        sim = Simulator()
        for index in range(5):
            sim.schedule(float(index), lambda: None)
        sim.run()
        assert sim.events_processed == 5


class TestFastPathScheduling:
    """post/post_at/dispatch_immediate — the model hot-path API."""

    def test_post_fires_like_schedule(self):
        sim = Simulator()
        fired = []
        sim.post(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a", "b"]
        assert sim.events_processed == 2

    def test_post_and_schedule_share_the_sequence_counter(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "event")
        sim.post(1.0, fired.append, "fast")
        sim.schedule(1.0, fired.append, "event-2")
        sim.run()
        assert fired == ["event", "fast", "event-2"]

    def test_post_at_uses_absolute_time(self):
        sim = Simulator()
        fired = []
        sim.post_at(2.5, fired.append, "x")
        sim.run()
        assert sim.now == 2.5
        assert fired == ["x"]

    def test_dispatch_immediate_counts_as_processed(self):
        sim = Simulator()
        fired = []
        sim.dispatch_immediate(fired.append, "now")
        assert fired == ["now"]
        assert sim.events_processed == 1
        assert sim.now == 0.0

    def test_cancelled_event_skipped_in_fast_loop(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "cancelled")
        sim.post(2.0, fired.append, "kept")
        event.cancel()
        sim.run()
        assert fired == ["kept"]
        assert sim.events_processed == 1

    def test_stop_halts_the_fast_loop(self):
        sim = Simulator()
        fired = []
        sim.post(1.0, lambda arg: (fired.append(arg), sim.stop()), "a")
        sim.post(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a"]
        assert sim.pending_events == 1

    def test_bounded_run_handles_fast_entries(self):
        sim = Simulator()
        fired = []
        sim.post(1.0, fired.append, "kept")
        sim.post(5.0, fired.append, "dropped")
        sim.run(until=2.0)
        assert fired == ["kept"]
        assert sim.now == 2.0
        sim2 = Simulator()
        for index in range(5):
            sim2.post(float(index), fired.append, index)
        sim2.run(max_events=2)
        assert sim2.events_processed == 2


class TestSameInstantSlot:
    """post_now parks an entry due now; firing order stays the heap's."""

    def test_post_now_fires_at_the_current_instant(self):
        sim = Simulator()
        fired = []
        sim.post(1.0, lambda _: sim.post_now(fired.append, sim.now), None)
        sim.run()
        assert fired == [1.0]
        assert sim.events_processed == 2

    def test_an_entry_due_at_the_same_instant_keeps_its_place(self):
        sim = Simulator()
        fired = []

        def first(_):
            fired.append("first")
            sim.post_now(fired.append, "parked")
            sim.post(0.0, fired.append, "later")

        sim.post(1.0, first, None)
        sim.post(1.0, fired.append, "tied")
        sim.run()
        assert fired == ["first", "tied", "parked", "later"]
        assert sim.events_processed == 4

    def test_a_second_post_now_goes_behind_the_first(self):
        sim = Simulator()
        fired = []

        def first(_):
            sim.post_now(fired.append, "a")
            sim.post_now(fired.append, "b")

        sim.post(1.0, first, None)
        sim.run()
        assert fired == ["a", "b"]

    def test_a_parked_entry_outlives_stop(self):
        sim = Simulator()
        fired = []

        def first(_):
            sim.post_now(fired.append, "parked")
            sim.stop()

        sim.post(1.0, first, None)
        sim.run()
        assert fired == []
        assert sim.pending_events == 1
        sim.run()
        assert fired == ["parked"]
        assert sim.now == 1.0

    def test_step_and_bounded_runs_take_parked_entries(self):
        sim = Simulator()
        fired = []
        sim.post_now(fired.append, "a")
        assert sim.pending_events == 1
        assert sim.step()
        assert fired == ["a"]
        sim.post(1.0, lambda _: sim.post_now(fired.append, "b"), None)
        sim.post(3.0, fired.append, "c")
        sim.run(until=2.0)
        assert fired == ["a", "b"]
        assert sim.now == 2.0
        assert sim.pending_events == 1

    @pytest.mark.parametrize("seed", range(20))
    def test_random_programs_fire_as_with_post(self, seed):
        """The slot reproduces ``post(0, ...)``'s order on tie-heavy runs."""
        import random

        def replay(use_slot):
            rng = random.Random(seed)
            plan = {}
            sim = Simulator()
            fired = []

            def fire(label):
                fired.append((sim.now, label))
                if label not in plan:
                    plan[label] = [
                        (rng.random() < 0.5, rng.choice((0.0, 0.0, 0.5, 1.0)))
                        for _ in range(rng.randrange(3))
                    ] if len(plan) < 400 else []
                for index, (now, delay) in enumerate(plan[label]):
                    child = f"{label}.{index}"
                    if now and use_slot:
                        sim.post_now(fire, child)
                    elif now:
                        sim.post(0.0, fire, child)
                    else:
                        sim.post(delay, fire, child)

            for root in range(6):
                sim.post(float(root % 3), fire, str(root))
            sim.run()
            return fired, sim.events_processed, sim.now

        assert replay(True) == replay(False)
