"""Property: the scheduled fixed point equals re-running every port.

Random ring and random-mesh fabrics carry random flows, from light load
to overload.  Whatever the template — acyclic with a feed-forward
schedule, or cyclic and iterated pass by pass — ``run_fixed_point``
must leave exactly the state, and give exactly the verdict, of the
reference that re-runs every port on every pass.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import units
from repro.analysis.engines.iteration import network_template, run_fixed_point
from repro.flows.messages import Message, MessageKind
from repro.topology.graph import random_graph_spec, ring_graph_spec

from tests.analysis.test_routed_template import RULES, every_port_fixed_point

#: ``(kind, deadline)`` pairs covering the four priority classes.
CLASSES = ((MessageKind.SPORADIC, units.ms(2)), (MessageKind.PERIODIC, None),
           (MessageKind.SPORADIC, units.ms(20)),
           (MessageKind.SPORADIC, None))

flow_draws = st.lists(
    st.tuples(st.integers(0, 63), st.integers(1, 63),
              st.integers(0, len(CLASSES) - 1),
              st.integers(1, 20), st.integers(100, 12_000)),
    min_size=1, max_size=12)

fabrics = st.tuples(st.sampled_from(["ring", "random"]),
                    st.integers(2, 10), st.integers(3, 6),
                    st.integers(0, 2**16))


def network_and_messages(fabric, flows):
    """The drawn fabric and flows, each between two distinct stations."""
    family, stations, switches, seed = fabric
    spec = (ring_graph_spec(stations, switch_count=switches)
            if family == "ring" else
            random_graph_spec(stations, switch_count=switches, seed=seed))
    messages = []
    for number, (source, offset, cls, period_ms, size) in enumerate(flows):
        kind, deadline = CLASSES[cls]
        source %= stations
        destination = (source + 1 + offset % (stations - 1)) % stations
        messages.append(Message(
            f"flow-{number:02d}", kind, units.ms(period_ms), float(size),
            f"station-{source:02d}", f"station-{destination:02d}",
            deadline=deadline))
    return spec.to_network(), messages


#: One light star-like mesh (acyclic) and one ring whose routes wrap.
ACYCLIC = (("random", 4, 3, 0), [(0, 1, 1, 10, 1000), (2, 1, 0, 5, 500)])
CYCLIC = (("ring", 5, 5, 0), [(index, 1, 1, 20, 400) for index in range(5)])


@pytest.mark.parametrize("policy", ["fcfs", "strict-priority"])
@pytest.mark.parametrize("rule_name", sorted(RULES))
def test_scheduled_fixed_point_equals_every_port_passes(rule_name, policy):
    rule = RULES[rule_name](policy)
    cyclic_seen = set()

    @settings(max_examples=40, deadline=None)
    @given(fabric=fabrics, flows=flow_draws)
    @example(fabric=ACYCLIC[0], flows=ACYCLIC[1])
    @example(fabric=CYCLIC[0], flows=CYCLIC[1])
    def check(fabric, flows):
        template = network_template(*network_and_messages(fabric, flows))
        cyclic_seen.add(template.schedule is None)
        run, reference = template.instantiate(), template.instantiate()
        assert run_fixed_point(template, run, rule, template.schedule) == \
            every_port_fixed_point(template, reference, rule)
        assert run.upstream == reference.upstream
        assert run.delays == reference.delays
        assert run.details == reference.details
        assert run.diverged == reference.diverged
        assert run.partitions == reference.partitions

    check()
    assert cyclic_seen == {True, False}
