#!/usr/bin/env python3
"""Simulate the switched Ethernet network and validate the analytic bounds.

Builds the single-switch star connecting the case-study stations, runs the
frame-level discrete-event simulation under the adversarial synchronised
release scenario for both multiplexing policies, and checks that every
analytic end-to-end bound dominates the worst simulated delay.

Run with::

    python examples/network_simulation.py
"""

from repro import EthernetNetworkSimulator, generate_real_case, units
from repro.analysis.validation import star_for_stations, validate_bounds
from repro.flows.priorities import PriorityClass
from repro.reporting import format_ms, render_table, yes_no


def main() -> None:
    message_set = generate_real_case()
    network = star_for_stations(message_set.stations(), units.mbps(10),
                                units.us(16))
    print(f"Topology: {len(network.stations)} stations around "
          f"{len(network.switches)} switch, "
          f"{len(network.spec.links)} full-duplex 10 Mbps links\n")

    # Raw simulation results for the strict-priority policy -----------------
    simulator = EthernetNetworkSimulator(network, message_set.messages,
                                         policy="strict-priority",
                                         scenario="synchronized", seed=1)
    results = simulator.run(duration=units.ms(320))
    print(f"Simulated 320 ms: {results.instances_delivered}/"
          f"{results.instances_sent} instances delivered, "
          f"{results.frames_dropped} frames dropped")
    busiest = max(results.link_utilization.items(), key=lambda item: item[1])
    print(f"Busiest link: {busiest[0]} at {busiest[1] * 100:.1f} % "
          f"utilisation\n")

    class_rows = []
    for cls in PriorityClass:
        summary = results.class_summary(cls)
        if summary.count == 0:
            continue
        class_rows.append((cls.label, summary.count,
                           format_ms(summary.mean), format_ms(summary.p99),
                           format_ms(summary.maximum)))
    print(render_table(
        ["priority class", "instances", "mean delay", "p99 delay",
         "worst delay"],
        class_rows, title="Simulated delays (strict priority, synchronised)"))

    # Bound-vs-simulation validation -----------------------------------------
    validation_rows = [
        (row.policy, row.priority.name, format_ms(row.analytic_bound),
         format_ms(row.simulated_worst), f"{row.tightness * 100:.0f} %",
         yes_no(row.bound_holds))
        for row in validate_bounds(message_set,
                                   simulation_duration=units.ms(320))
    ]
    print(render_table(
        ["policy", "class", "analytic bound", "simulated worst",
         "tightness", "bound holds"],
        validation_rows, title="Analytic bounds vs simulated worst case"))


if __name__ == "__main__":
    main()
