"""A golden cell that pins the kernel's same-instant tie order.

The golden grid of ``test_golden_equivalence.py`` does not distinguish a
run loop that lets a parked same-instant entry overtake an
earlier-sequenced heap entry due at the same instant.  This hand-built
cell does: two stations send a sporadic ``urgent`` flow whose minimal
inter-arrival is exactly two ``low`` frames' transmission time, so its
releases land on the instants where ``low-0``/``low-1`` finish and the
order of those ties decides which frame the uplink serves next.

The expected digest was captured from the reference kernel; ``urgent``
peaks at 0.4544 ms there, and at 0.5248 ms when ties are reordered.
"""

from __future__ import annotations

from repro import units
from repro.analysis.validation import star_for_stations
from repro.ethernet.frame import wire_burst
from repro.ethernet.network_sim import EthernetNetworkSimulator
from repro.flows.messages import Message
from tests.simulation.golden_fixture import _digest

#: Per flow: (sample count, SHA-256 of the ordered sample reprs, worst).
EXPECTED_FLOWS = {
    "low-0": (16, "6a9a9c887bbfa492333e9a72bc7f1ceab2656e6f4341509eaf6a7b28"
                  "ceae86b6", "0.0003344000000000229"),
    "low-1": (16, "9f4c10549eedd9eaffddbc8fe6a6c0b9536ed0ab197003b376a7b741"
                  "1cb9fcc9", "0.0004991999999993668"),
    "urgent": (1409, "d6f46532deb975bd71e2c118fc5fd5e2e207f9ceb40fdcd44684ad"
                     "dd9a2d7bb8", "0.0004544"),
    "urgent2": (1409, "7f0ffc9c962230d2b847730b0f19de12bf0d70ddd940c42f5fae8e"
                      "7d0434d814", "0.00029760000000000203"),
}
EXPECTED_EVENTS = 19950


def tie_order_messages() -> list[Message]:
    """Two bulk frames and two sporadic flows released on their ties."""
    low = [Message.periodic(f"low-{index}", units.ms(20), units.bytes_(100),
                            "station-00", "station-01")
           for index in range(2)]
    period = 2 * wire_burst(low[0]) / units.mbps(10)
    urgent = [Message.sporadic(name, period, 64, source, "station-01",
                               deadline=units.ms(3))
              for name, source in (("urgent", "station-00"),
                                   ("urgent2", "station-02"))]
    return low + urgent


def capture_tie_cell() -> dict:
    """Simulate the tie-order cell: FCFS, synchronized, seed 1, 320 ms."""
    network = star_for_stations(("station-00", "station-01", "station-02"),
                                units.mbps(10), units.us(16))
    simulator = EthernetNetworkSimulator(
        network, tie_order_messages(), policy="fcfs",
        scenario="synchronized", seed=1)
    results = simulator.run(duration=units.ms(320))
    return {
        "flows": {name: (recorder.count, _digest(recorder.samples),
                         repr(max(recorder.samples)))
                  for name, recorder in sorted(results.flow_latencies.items())},
        "events_processed": simulator.simulator.events_processed,
    }


def test_urgent_peak_pins_the_tie_order():
    cell = capture_tie_cell()
    assert cell["flows"]["urgent"][2] == "0.0004544"


def test_tie_order_cell_matches_reference():
    cell = capture_tie_cell()
    assert cell["events_processed"] == EXPECTED_EVENTS
    assert cell["flows"] == EXPECTED_FLOWS
