#!/usr/bin/env python3
"""AFDX-style virtual links over a dual-switch topology.

The paper motivates switched Ethernet for military aircraft by the A380's
AFDX experience.  This example describes a small flight-control traffic set
with the AFDX vocabulary (virtual links with a BAG and a maximal frame
size), routes it over a two-switch federated topology and computes the
end-to-end delay bounds per flow with the strict-priority multiplexers,
including the burst inflation a flow picks up at each hop.

Run with::

    python examples/afdx_virtual_links.py
"""

from repro import EndToEndAnalysis, units
from repro.flows import VirtualLink
from repro.reporting import format_ms, render_table, yes_no
from repro.topology import dual_switch_topology


def build_virtual_links() -> list[VirtualLink]:
    """A handful of flight-control virtual links across the two bays."""
    return [
        VirtualLink("vl-fcs-commands", bag=units.ms(2),
                    max_frame_size=units.bytes_(200),
                    source="station-00", destination="station-04",
                    deadline=units.ms(3)),
        VirtualLink("vl-ins-nav", bag=units.ms(8),
                    max_frame_size=units.bytes_(400),
                    source="station-01", destination="station-05",
                    deadline=units.ms(20)),
        VirtualLink("vl-air-data", bag=units.ms(16),
                    max_frame_size=units.bytes_(300),
                    source="station-02", destination="station-04",
                    deadline=units.ms(40)),
        VirtualLink("vl-engine-status", bag=units.ms(32),
                    max_frame_size=units.bytes_(600),
                    source="station-06", destination="station-01",
                    deadline=units.ms(80)),
        VirtualLink("vl-maintenance", bag=units.ms(128),
                    max_frame_size=units.bytes_(1500),
                    source="station-07", destination="station-03",
                    deadline=None),
    ]


def main() -> None:
    links = build_virtual_links()
    network = dual_switch_topology(stations_per_switch=4,
                                   capacity=units.mbps(10))
    messages = [vl.to_message() for vl in links]

    print("Virtual links:")
    for vl in links:
        print(f"  {vl.name}: BAG {format_ms(vl.bag)}, "
              f"s_max {vl.max_frame_size / 8:.0f} bytes, "
              f"rate {vl.rate / 1e3:.1f} kbps, standard BAG: "
              f"{yes_no(vl.is_standard_bag)}")
    print()

    analysis = EndToEndAnalysis(network, policy="strict-priority")
    result = analysis.analyze(messages)

    rows = []
    for bound in result:
        hops = " -> ".join(hop.node for hop in bound.hops)
        rows.append((bound.name, bound.priority.name, hops,
                     format_ms(bound.deadline), format_ms(bound.total_delay),
                     yes_no(bound.meets_deadline)))
    print(render_table(
        ["virtual link", "class", "multiplexing points", "deadline",
         "end-to-end bound", "ok?"],
        rows, title="End-to-end bounds over the dual-switch topology"))

    print("All deadlines met:", result.all_deadlines_met)


if __name__ == "__main__":
    main()
