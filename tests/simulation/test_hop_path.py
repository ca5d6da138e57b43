"""Pin the Python work the simulator does per delivered message instance.

The cell is the paper star of ``generate_real_case(seed=5)`` (16
stations) under random releases, seed 2, over 1280 ms: 2,846 delivered
instances and 19,922 processed events.  A profile hook counts the Python
calls whose code lives in the ``repro`` package and the ``heappush``
calls while :meth:`EthernetNetworkSimulator.run` runs.

Before the same-instant slot, the idle cut-through, the switch relay and
the direct sample sinks, this cell made 29.4 calls per delivered
instance under FCFS and 35.6 under strict priority, with 5.00 heap
pushes per instance and the same 19,922 events.
"""

import heapq
import os
import sys

import pytest

import repro
from repro import units
from repro.analysis.validation import star_for_stations
from repro.ethernet.network_sim import EthernetNetworkSimulator
from repro.workloads import generate_real_case

PACKAGE = os.path.dirname(repro.__file__) + os.sep


def _profile_run(policy):
    message_set = generate_real_case(seed=5)
    simulator = EthernetNetworkSimulator(
        star_for_stations(message_set.stations(), units.mbps(10),
                          units.us(16)), message_set.messages,
        policy=policy, scenario="random", seed=2)
    counts = {"calls": 0, "pushes": 0}
    push = heapq.heappush

    def hook(frame, event, arg):
        if event == "call":
            if frame.f_code.co_filename.startswith(PACKAGE):
                counts["calls"] += 1
        elif event == "c_call" and arg is push:
            counts["pushes"] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        results = simulator.run(duration=units.ms(1280))
    finally:
        sys.setprofile(previous)
    delivered = results.instances_delivered
    return (delivered, simulator.simulator.events_processed,
            counts["calls"] / delivered, counts["pushes"] / delivered)


@pytest.mark.parametrize("policy,max_calls",
                         [("fcfs", 16.0), ("strict-priority", 18.0)])
def test_hop_path_work_per_delivered_instance(policy, max_calls):
    delivered, events, calls, pushes = _profile_run(policy)
    assert delivered == 2846
    assert events == 19922
    assert calls <= max_calls
    assert pushes <= 4.0
