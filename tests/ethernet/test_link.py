"""Link transmitters (one direction of a full-duplex link)."""

import pytest

from repro import Message, PriorityClass, units
from repro.ethernet.frame import MessageInstance, frames_for_instance
from repro.ethernet.link import LinkTransmitter
from repro.ethernet.switch import EthernetSwitch
from repro.shaping import FifoQueue, StrictPriorityQueues
from repro.simulation import Simulator
from repro.simulation.trace import TraceRecorder


def make_frame(size_words=16, priority=PriorityClass.PERIODIC, name="m"):
    message = Message.periodic(name, period=units.ms(20),
                               size=units.words1553(size_words),
                               source="a", destination="b")
    instance = MessageInstance(message=message, sequence=0, release_time=0.0)
    return frames_for_instance(instance, priority)[0]


def make_transmitter(simulator, delivered, queue=None, capacity=units.mbps(10),
                     propagation=0.0):
    if queue is None:
        queue = FifoQueue()
    return LinkTransmitter(simulator=simulator, name="a->b",
                           capacity=capacity, propagation_delay=propagation,
                           queue=queue, deliver=delivered.append)


class TestTransmission:
    def test_single_frame_delivered_after_transmission_time(self):
        sim = Simulator()
        delivered = []
        transmitter = make_transmitter(sim, delivered)
        frame = make_frame()
        transmitter.enqueue(frame)
        sim.run()
        assert delivered == [frame]
        assert sim.now == pytest.approx(frame.size / units.mbps(10))

    def test_propagation_delay_added(self):
        sim = Simulator()
        delivered = []
        transmitter = make_transmitter(sim, delivered, propagation=1e-5)
        frame = make_frame()
        transmitter.enqueue(frame)
        sim.run()
        assert sim.now == pytest.approx(frame.size / units.mbps(10) + 1e-5)

    def test_frames_serialised_back_to_back(self):
        sim = Simulator()
        delivered = []
        transmitter = make_transmitter(sim, delivered)
        first, second = make_frame(name="m1"), make_frame(name="m2")
        transmitter.enqueue(first)
        transmitter.enqueue(second)
        sim.run()
        assert delivered == [first, second]
        assert sim.now == pytest.approx((first.size + second.size) / 1e7)

    def test_statistics(self):
        sim = Simulator()
        delivered = []
        transmitter = make_transmitter(sim, delivered)
        frame = make_frame()
        transmitter.enqueue(frame)
        sim.run()
        assert transmitter.frames_sent.value == 1
        assert transmitter.bits_sent == frame.size
        assert transmitter.busy_time == pytest.approx(frame.size / 1e7)
        assert transmitter.utilization(1.0) == pytest.approx(frame.size / 1e7)

    def test_priority_queue_reorders_waiting_frames(self):
        sim = Simulator()
        delivered = []
        transmitter = make_transmitter(sim, delivered,
                                       queue=StrictPriorityQueues())
        background = make_frame(priority=PriorityClass.BACKGROUND, name="bg1")
        blocking = make_frame(priority=PriorityClass.BACKGROUND, name="bg2")
        urgent = make_frame(priority=PriorityClass.URGENT, name="urg")
        # The first background frame starts transmitting (non-preemption);
        # the urgent frame then overtakes the second background frame.
        transmitter.enqueue(background)
        transmitter.enqueue(blocking)
        transmitter.enqueue(urgent)
        sim.run()
        assert [frame.flow_name for frame in delivered] == [
            "bg1", "urg", "bg2"]

    def test_non_preemption(self):
        """A frame already in transmission is never interrupted."""
        sim = Simulator()
        delivered = []
        transmitter = make_transmitter(sim, delivered,
                                       queue=StrictPriorityQueues())
        background = make_frame(priority=PriorityClass.BACKGROUND, name="bg")
        urgent = make_frame(priority=PriorityClass.URGENT, name="urg")
        transmitter.enqueue(background)
        # Enqueue the urgent frame while the background one is on the wire.
        sim.schedule(background.size / units.mbps(10) / 2,
                     transmitter.enqueue, urgent)
        sim.run()
        assert [frame.flow_name for frame in delivered] == ["bg", "urg"]
        # The urgent frame completes only after the background one finishes
        # plus its own transmission time.
        assert sim.now == pytest.approx(
            (background.size + urgent.size) / units.mbps(10))


class TestDrops:
    def test_queue_overflow_counts_drops(self):
        sim = Simulator()
        delivered = []
        frame = make_frame()
        queue = FifoQueue(capacity=frame.size * 1.5)
        transmitter = make_transmitter(sim, delivered, queue=queue)
        # The first frame goes straight to the server (leaves the queue), the
        # second occupies the queue and the third overflows it.
        transmitter.enqueue(make_frame(name="m1"))
        transmitter.enqueue(make_frame(name="m2"))
        accepted = transmitter.enqueue(make_frame(name="m3"))
        assert not accepted
        assert transmitter.drops == 1
        sim.run()
        assert len(delivered) == 2


class TestValidation:
    def test_invalid_capacity_rejected(self):
        with pytest.raises(Exception):
            LinkTransmitter(Simulator(), "x", capacity=0,
                            propagation_delay=0.0, queue=FifoQueue(),
                            deliver=lambda frame: None)

    def test_negative_propagation_rejected(self):
        with pytest.raises(Exception):
            LinkTransmitter(Simulator(), "x", capacity=1e6,
                            propagation_delay=-1.0, queue=FifoQueue(),
                            deliver=lambda frame: None)

    def test_utilization_requires_positive_duration(self):
        sim = Simulator()
        transmitter = make_transmitter(sim, [])
        with pytest.raises(Exception):
            transmitter.utilization(0.0)


def _replay(queue, traced):
    """Feed one mixed-priority frame pattern through a transmitter."""
    sim = Simulator()
    delivered = []
    transmitter = LinkTransmitter(
        simulator=sim, name="a->b", capacity=units.mbps(10),
        propagation_delay=0.0, queue=queue,
        deliver=lambda frame: delivered.append((frame.flow_name,
                                                repr(sim.now))),
        trace=TraceRecorder(enabled=traced))
    classes = tuple(PriorityClass)
    for index in range(40):
        frame = make_frame(size_words=1 + (index * 7) % 32,
                           priority=classes[(index * 3) % 4],
                           name=f"m{index}")
        sim.post(0.0001 * (index // 3), transmitter.enqueue, frame)
    sim.run()
    return (delivered, repr(transmitter.busy_time), repr(queue.max_occupancy),
            repr(queue.occupancy), queue.drops, sim.events_processed)


class TestFastPaths:
    """Untraced unbounded queues push, pop and cut through inline; traced
    runs and bounded queues keep ``queue.push``/``queue.pop``."""

    @pytest.mark.parametrize("make_queue", [
        FifoQueue, StrictPriorityQueues,
        lambda: FifoQueue(capacity=2_000.0),
        lambda: StrictPriorityQueues(capacity_per_class=2_000.0)],
        ids=["fifo", "priority", "bounded-fifo", "bounded-priority"])
    def test_untraced_runs_match_the_traced_reference(self, make_queue):
        untraced = _replay(make_queue(), traced=False)
        assert untraced == _replay(make_queue(), traced=True)

    def test_idle_cut_through_accounts_the_frame_in_bits(self):
        sim = Simulator()
        queue = StrictPriorityQueues()
        transmitter = make_transmitter(sim, [], queue=queue)
        frame = make_frame(priority=PriorityClass.URGENT)
        transmitter.enqueue(frame)
        lane = queue.queue(PriorityClass.URGENT)
        # Straight onto the wire: nothing waits, and the maximum is the
        # float occupancy push-then-pop would have left behind.
        assert len(queue) == 0
        assert lane.occupancy == 0.0
        assert repr(lane.max_occupancy) == repr(0.0 + frame.size)
        assert isinstance(lane.max_occupancy, float)


class TestSwitchRelay:
    def _wire(self, traced):
        sim = Simulator()
        trace = TraceRecorder(enabled=traced)
        delivered = []
        switch = EthernetSwitch(sim, "sw", technology_delay=1e-5,
                                trace=trace)
        port = LinkTransmitter(simulator=sim, name="sw->b",
                               capacity=units.mbps(10), propagation_delay=0.0,
                               queue=FifoQueue(), trace=trace,
                               deliver=lambda f: delivered.append(sim.now))
        switch.attach_output_port("b", port)
        switch.add_forwarding_entry("b", "b")
        uplink = LinkTransmitter(simulator=sim, name="a->sw",
                                 capacity=units.mbps(10),
                                 propagation_delay=0.0, queue=FifoQueue(),
                                 deliver=switch.receive, trace=trace,
                                 relay=switch.ingress)
        for _ in range(3):
            uplink.enqueue(make_frame())
        sim.run()
        return delivered, sim.events_processed, trace

    def test_relay_posts_what_receive_posts(self):
        relayed, relayed_events, _ = self._wire(traced=False)
        received, received_events, trace = self._wire(traced=True)
        assert relayed == received
        assert relayed_events == received_events
        # Traced runs go through receive, which records the reception.
        assert sum(entry.category == "switch.receive"
                   for entry in trace) == 3
