#!/usr/bin/env python3
"""Multi-hop graph topologies: load, route, bound.

The paper analyses a single switched multiplexer; this example shows the
repository's generalisation to arbitrary multi-hop graphs.  It loads the
diamond topology document from ``examples/topologies/diamond.json`` (two
equal-cost two-switch branches between the entry and exit switches),
routes the synthetic case-study traffic with the deterministic shortest
-path engine, and computes per-flow end-to-end delay bounds by summing
the paper's multiplexer bound over every egress port on the route, each
flow's burst inflated by the delay it may have gathered upstream.

Run with::

    python examples/multihop_graph.py
"""

from pathlib import Path

from repro.analysis.validation import wire_level_messages
from repro.core.endtoend import EndToEndAnalysis
from repro.reporting import format_ms, render_table
from repro.topology import RoutingEngine, load_topology_file
from repro.workloads import RealCaseParameters, generate_real_case

TOPOLOGY_FILE = Path(__file__).resolve().parent / "topologies" / "diamond.json"


def main() -> None:
    spec = load_topology_file(TOPOLOGY_FILE).validated()
    print(f"loaded {spec.name}: {len(spec.end_systems)} end systems, "
          f"{len(spec.switches)} switches, {len(spec.links)} links")

    # The deterministic routing engine: same shortest path in every
    # process, ECMP ties broken lexicographically.
    engine = RoutingEngine(spec)
    sample = engine.shortest_path("station-00", "station-04")
    print(f"route station-00 -> station-04: {' -> '.join(sample)}")

    # The synthetic case-study traffic, analysed at wire level (framing
    # overheads included) along each flow's routed path.
    message_set = generate_real_case(RealCaseParameters(station_count=8),
                                     seed=7)
    wire = wire_level_messages(message_set)
    network = spec.to_network()
    for policy in ("fcfs", "strict-priority"):
        outcome = EndToEndAnalysis(network, policy=policy).analyze(wire)
        rows = [(cls.label, format_ms(bound.total_delay), len(bound.hops),
                 " -> ".join(bound.flow.path))
                for cls, bound in sorted(outcome.worst_per_class().items())]
        print(render_table(
            ["class", "worst bound", "hops", "worst path"], rows,
            title=f"Per-class worst end-to-end bounds ({policy})"))


if __name__ == "__main__":
    main()
