"""Golden per-flow output of the routed fixed-point analyses.

``GraphPathAnalysis``, ``EndToEndAnalysis`` and the holistic and
trajectory engines all bound a multi-hop route by applying a per-port
delay rule at every egress port and inflating each burst by its upstream
delay until the bounds settle.  The digests below are canonical-JSON
SHA-256 values of their complete output — per-hop rate, latency and
delay, port and class backlogs, ``converged``, per-flow hop bounds and
per-class engine bounds — recorded before the four analyses shared one
fixed-point core, so any change to that core must reproduce them byte
for byte.  One ring is loaded so that burst inflation never settles,
which pins the divergence path (``converged=False``, unstable flows)
as well.

Links with a non-zero propagation delay are pinned separately: the
graph analysis stays byte-identical there, while the other three
accumulate upstream delay in a different addition order than they once
did and are held to ``rel=1e-12``.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro import units
from repro.analysis.engines import get_engine
from repro.analysis.multihop import GraphPathAnalysis
from repro.analysis.validation import wire_level_messages
from repro.core.endtoend import EndToEndAnalysis
from repro.flows.messages import Message, MessageKind
from repro.store import fingerprint
from repro.topology.builders import (dual_switch_topology, single_switch_star,
                                     tree_topology)
from repro.topology.graph import (diamond_graph_spec, random_graph_spec,
                                  ring_graph_spec)
from repro.workloads.realcase import RealCaseParameters, generate_real_case

POLICIES = ("fcfs", "strict-priority")
STATIONS = 8
ITERATIVE_ENGINES = ("holistic", "trajectory")

#: One-way propagation delay of every link in the latency variant.
PROPAGATION = units.us(5)


def real_case_messages() -> list[Message]:
    """The seeded 8-station case study, sized at wire level."""
    message_set = generate_real_case(
        RealCaseParameters(station_count=STATIONS), seed=7)
    return wire_level_messages(message_set)


def diverging_ring():
    """A five-switch ring whose burst inflation never settles.

    Every ring station sends two 1 Mbps flows two switches clockwise,
    so each ring link's traffic depends on the link before it all the
    way round.  Ten extra stations exchange flows in pairs behind one
    access switch, share no port with the ring and stay stable.
    """
    spec = ring_graph_spec(15, switch_count=5)
    messages = []
    for index in range(5):
        for copy in range(2):
            messages.append(Message(
                f"ring-{index}-{copy}", MessageKind.PERIODIC,
                units.ms(4), 4000.0, f"station-{index:02d}",
                f"station-{(index + 2) % 5:02d}"))
        messages.append(Message(
            f"local-{index}", MessageKind.PERIODIC, units.ms(20), 800.0,
            f"station-{index + 5:02d}", f"station-{index + 10:02d}"))
    return spec, messages


GRAPHS = {
    "graph-diamond": lambda: diamond_graph_spec(STATIONS),
    "graph-ring": lambda: ring_graph_spec(STATIONS),
    "graph-random": lambda: random_graph_spec(STATIONS, seed=3),
}

NETWORKS = {
    "star": lambda propagation=0.0: single_switch_star(
        STATIONS, propagation_delay=propagation),
    "dual-switch": lambda propagation=0.0: dual_switch_topology(
        STATIONS // 2, propagation_delay=propagation),
    "tree": lambda propagation=0.0: tree_topology(
        2, STATIONS // 2, propagation_delay=propagation),
}


def with_latency(spec):
    """``spec`` with every link's propagation latency set."""
    return dataclasses.replace(spec, links=tuple(
        dataclasses.replace(link, latency=PROPAGATION)
        for link in spec.links))


def graph_digest(name: str, policy: str) -> str:
    spec = GRAPHS[name]()
    return fingerprint(GraphPathAnalysis(spec, policy=policy).analyze(
        real_case_messages()))


def network_digest(name: str, policy: str) -> str:
    analysis = EndToEndAnalysis(NETWORKS[name](), policy=policy)
    return fingerprint(analysis.analyze(real_case_messages()))


def engine_bounds(engine: str, topology: str, policy: str,
                  propagation: float = 0.0) -> dict:
    """``{class name: bound}`` of one engine on one named topology."""
    if topology in GRAPHS:
        spec = GRAPHS[topology]()
        if propagation:
            spec = with_latency(spec)
        network = spec.to_network()
    else:
        spec = None
        network = NETWORKS[topology](propagation)
    mapping = get_engine(engine).network_class_bounds(
        real_case_messages(), policy, network=network, graph_spec=spec)
    return {priority.name: bound for priority, bound in mapping.items()}


def endtoend_worst(topology: str, policy: str) -> dict:
    """Per-class worst end-to-end bound with propagation on every link."""
    analysis = EndToEndAnalysis(NETWORKS[topology](PROPAGATION),
                                policy=policy)
    worst = analysis.analyze(real_case_messages()).worst_per_class()
    return {priority.name: bound.total_delay
            for priority, bound in worst.items()}


GRAPH_DIGESTS = {
    ("graph-diamond", "fcfs"):
        "e481791e94246908b7e0228e216a5fccdf0e849f16bee58fee8cc1ae6e91f8ff",
    ("graph-diamond", "strict-priority"):
        "925ff344c1d38a07ebb04e0bd660134bc75bfb841b3c0489394bd49cb3b76d0e",
    ("graph-random", "fcfs"):
        "646a087d03080c72a82d769c25703468186dd817e25e9d96b17608811f75a221",
    ("graph-random", "strict-priority"):
        "d1d4f7fa394c8be13a6c6985764490081678e6fb56ac415d8e90fe8001a28bbc",
    ("graph-ring", "fcfs"):
        "64b5ad0b735b5ace9710db223c2b7060e1ad63faa30bd144b77f8185920868b1",
    ("graph-ring", "strict-priority"):
        "8dfa0adcbc2d0492fe316f52e66ee11c1b1d40dd308a1550ba7262a2699b6dfc",
}

DIVERGING_DIGESTS = {
    ("graph", "fcfs"):
        "fc6cdcef66e4bd534d9d1e9936009b4bfb9ac4d3382af62dea739f46e1938443",
    ("graph", "strict-priority"):
        "fc6cdcef66e4bd534d9d1e9936009b4bfb9ac4d3382af62dea739f46e1938443",
    ("holistic", "fcfs"):
        "041a3eff954d3b32eb1665093672989cac58c0807156afe32b4db22a111e9272",
    ("holistic", "strict-priority"):
        "041a3eff954d3b32eb1665093672989cac58c0807156afe32b4db22a111e9272",
    ("trajectory", "fcfs"):
        "041a3eff954d3b32eb1665093672989cac58c0807156afe32b4db22a111e9272",
    ("trajectory", "strict-priority"):
        "041a3eff954d3b32eb1665093672989cac58c0807156afe32b4db22a111e9272",
}

NETWORK_DIGESTS = {
    ("dual-switch", "fcfs"):
        "1caa2cc213a97da4a61e2da10739373d4ba8cbe459de7b688d866e932e143cd2",
    ("dual-switch", "strict-priority"):
        "58c8162ade254bbdbb049b1a64d365a8a06d662345326648f735e7f2f7082ec5",
    ("star", "fcfs"):
        "1cf33053abd9f59277921dfc4ab22611e5e1650268d36c383f3fdad033317c3c",
    ("star", "strict-priority"):
        "01d837434546558fc044a757547c1ed1ccbbe659ca755e88d13cfa39ea8b6c20",
    ("tree", "fcfs"):
        "3f75ad806a7c81930a07be26d9f9e20087b4142117c7441de4171aa8ef3e83f4",
    ("tree", "strict-priority"):
        "e670dfa641b1b3e81cbb5876e70f6240020fcf302be451885cc62023900b148f",
}

ENGINE_DIGESTS = {
    ("holistic", "dual-switch", "fcfs"):
        "79d76314adad276f289f560958b1e6fac60cd3a027a7fefa803cb8a54e1e0321",
    ("holistic", "dual-switch", "strict-priority"):
        "004444f4449d9714f683eeee5c9dffb1ed8ab86652e54ef44b4977f1e3342413",
    ("holistic", "graph-diamond", "fcfs"):
        "66037e81a64659d9e83995b7838c966d28e4b0c42db1fc41b53fdde30f0104d6",
    ("holistic", "graph-diamond", "strict-priority"):
        "a069929cd941fe11a0fb60a4dd31edbdd9f094ae835052739995372e1b3efdd5",
    ("holistic", "graph-random", "fcfs"):
        "54fb7a70f2b5893ced4b3529f6f581b81fb84b756aad4a1231447febff8bc1c5",
    ("holistic", "graph-random", "strict-priority"):
        "787fb24385c1c130ebc79d703c061f323e9a50b1053f5955921e0bbd8ff9ac14",
    ("holistic", "graph-ring", "fcfs"):
        "aca0ebaa42d83605afd15196678c3b018afdec592b71b48eb2d4a4ddbc23b76d",
    ("holistic", "graph-ring", "strict-priority"):
        "0d772de7a5e7b678ba0d8dd0db2d5fe45cad2e60a54f15d2e21b5ff21dbfd416",
    ("holistic", "star", "fcfs"):
        "ffb6a532c2bac0eb333762643c7729346ea478e43cf60d303054ec157d29bf5b",
    ("holistic", "star", "strict-priority"):
        "8fdd822c84c2fd9ebc4ff5285bbe4104b398f82cd307bd7da38b06ea1dc7e1a9",
    ("holistic", "tree", "fcfs"):
        "66037e81a64659d9e83995b7838c966d28e4b0c42db1fc41b53fdde30f0104d6",
    ("holistic", "tree", "strict-priority"):
        "a069929cd941fe11a0fb60a4dd31edbdd9f094ae835052739995372e1b3efdd5",
    ("trajectory", "dual-switch", "fcfs"):
        "f333cc4cffb6f1133a303eb29d14de76f17ece514e3f86d7394eab9de1696795",
    ("trajectory", "dual-switch", "strict-priority"):
        "ae431a9a14286bcefc26331792f63ba35b66ec73a2464defc726fecc86fd9df2",
    ("trajectory", "graph-diamond", "fcfs"):
        "dc1ae3dce65dccbd1bf4ba6c56dd3215513eec9e7fae530685e2f2421e5a5d55",
    ("trajectory", "graph-diamond", "strict-priority"):
        "1597f6ed89fa8a998f479485e716cc437c78847eec763b67908b2863368fecae",
    ("trajectory", "graph-random", "fcfs"):
        "1f0885622247450c6395924fd4d9bf93fa786af92a5a982ebd819da64834d9e8",
    ("trajectory", "graph-random", "strict-priority"):
        "6fbba4729020a861cedc93674542c597754cb04509ac10662861ea7c4dc84240",
    ("trajectory", "graph-ring", "fcfs"):
        "e3baa596b1f0e1a3cffbb812b66c76868d7b2552ddf331d9770f937e841a79e9",
    ("trajectory", "graph-ring", "strict-priority"):
        "469d160a9c297a92cf92644a436337d4a3f736ccad2651ec0f4c988a8eddd9c8",
    ("trajectory", "star", "fcfs"):
        "d482f6c8dc8b4534be9f4f764fef726c35dc942bd1c6b19fe56ceca32c589739",
    ("trajectory", "star", "strict-priority"):
        "a075249d1194f056ebcefd1784ca6080559ef24300acf1fce814860f37401d2f",
    ("trajectory", "tree", "fcfs"):
        "dc1ae3dce65dccbd1bf4ba6c56dd3215513eec9e7fae530685e2f2421e5a5d55",
    ("trajectory", "tree", "strict-priority"):
        "1597f6ed89fa8a998f479485e716cc437c78847eec763b67908b2863368fecae",
}

LATENCY_GRAPH_DIGESTS = {
    ("graph-diamond", "fcfs"):
        "57679d6ecd81822f1320de05dcda67a7bd60b691c673ac983598af2ca9e1ff28",
    ("graph-diamond", "strict-priority"):
        "1dc3c701d28a7683667b99ca62470603d63ad72c9e9cf6d6ee32d8a571807012",
    ("graph-random", "fcfs"):
        "94687587997ecb4212ae92ba4b581d0cdedce2cff030d521c8480ccf946595d0",
    ("graph-random", "strict-priority"):
        "d730484c71e7abe2730490f412ec3e5904bb890d724f19051b455a59be5f9731",
    ("graph-ring", "fcfs"):
        "2e25cac031170bd9db2fb2e1527a0cb5a037fa3a3fbfe2290e2cd790158dd319",
    ("graph-ring", "strict-priority"):
        "2c7cd08b8a7dd600752eff72e8104bccec1702b4ed77634098c27389d393d110",
}

LATENCY_VALUES = {
    ("endtoend", "dual-switch", "fcfs"): {
        "BACKGROUND": 0.00546315486408544,
        "PERIODIC": 0.00547915486408544,
        "SPORADIC": 0.00547915486408544,
        "URGENT": 0.00546315486408544,
    },
    ("endtoend", "dual-switch", "strict-priority"): {
        "BACKGROUND": 0.005647495523412966,
        "PERIODIC": 0.003619621274994797,
        "SPORADIC": 0.005026940277832761,
        "URGENT": 0.0008722207984775936,
    },
    ("endtoend", "tree", "fcfs"): {
        "BACKGROUND": 0.008104786348038379,
        "PERIODIC": 0.008120786348038379,
        "SPORADIC": 0.008120786348038379,
        "URGENT": 0.008104786348038379,
    },
    ("endtoend", "tree", "strict-priority"): {
        "BACKGROUND": 0.00833543457467639,
        "PERIODIC": 0.00522119313588236,
        "SPORADIC": 0.00731165061081409,
        "URGENT": 0.001248950166026983,
    },
    ("holistic", "graph-ring", "fcfs"): {
        "BACKGROUND": 0.005966697166557625,
        "PERIODIC": 0.005966697166557625,
        "SPORADIC": 0.005966697166557625,
        "URGENT": 0.005966697166557625,
    },
    ("holistic", "graph-ring", "strict-priority"): {
        "BACKGROUND": 0.005918510590209765,
        "PERIODIC": 0.0041680796698660705,
        "SPORADIC": 0.005478053073771216,
        "URGENT": 0.0011790168211865538,
    },
    ("holistic", "tree", "fcfs"): {
        "BACKGROUND": 0.00849863832708526,
        "PERIODIC": 0.008516619479459421,
        "SPORADIC": 0.008516619479459421,
        "URGENT": 0.00849863832708526,
    },
    ("holistic", "tree", "strict-priority"): {
        "BACKGROUND": 0.008360383067347965,
        "PERIODIC": 0.005319059306221998,
        "SPORADIC": 0.007428162590826277,
        "URGENT": 0.0012592328526073219,
    },
    ("trajectory", "graph-ring", "fcfs"): {
        "BACKGROUND": 0.005957561773965232,
        "PERIODIC": 0.005956800144777769,
        "SPORADIC": 0.005962388741504648,
        "URGENT": 0.005923429228522712,
    },
    ("trajectory", "graph-ring", "strict-priority"): {
        "BACKGROUND": 0.005909580160860913,
        "PERIODIC": 0.004161110024025197,
        "SPORADIC": 0.005474199397557973,
        "URGENT": 0.0011699365952052877,
    },
    ("trajectory", "tree", "fcfs"): {
        "BACKGROUND": 0.005934726040427039,
        "PERIODIC": 0.005897419711586807,
        "SPORADIC": 0.005875223676966103,
        "URGENT": 0.005835011908481539,
    },
    ("trajectory", "tree", "strict-priority"): {
        "BACKGROUND": 0.007986941238263228,
        "PERIODIC": 0.004166045587105141,
        "SPORADIC": 0.006835662422281639,
        "URGENT": 0.0011036856373855108,
    },
}


@pytest.mark.parametrize("name,policy", sorted(GRAPH_DIGESTS))
def test_graph_analysis_matches_golden(name, policy):
    assert graph_digest(name, policy) == GRAPH_DIGESTS[(name, policy)]


@pytest.mark.parametrize("policy", POLICIES)
def test_diverging_ring_matches_golden(policy):
    spec, messages = diverging_ring()
    result = GraphPathAnalysis(spec, policy=policy).analyze(messages)
    assert not result.converged
    stable = {bound.name for bound in result.flows if bound.stable}
    assert stable and stable != {bound.name for bound in result.flows}
    assert all(math.isinf(bound.delay) for bound in result.flows
               if bound.name.startswith("ring-"))
    assert fingerprint(result) == DIVERGING_DIGESTS[("graph", policy)]
    network = spec.to_network()
    for engine in ITERATIVE_ENGINES:
        mapping = get_engine(engine).network_class_bounds(
            messages, policy, network=network, graph_spec=spec)
        assert fingerprint({priority.name: bound
                            for priority, bound in mapping.items()}) == \
            DIVERGING_DIGESTS[(engine, policy)]


@pytest.mark.parametrize("name,policy", sorted(NETWORK_DIGESTS))
def test_endtoend_hop_bounds_match_golden(name, policy):
    assert network_digest(name, policy) == NETWORK_DIGESTS[(name, policy)]


@pytest.mark.parametrize("engine,topology,policy", sorted(ENGINE_DIGESTS))
def test_engine_class_bounds_match_golden(engine, topology, policy):
    assert fingerprint(engine_bounds(engine, topology, policy)) == \
        ENGINE_DIGESTS[(engine, topology, policy)]


@pytest.mark.parametrize("name,policy", sorted(LATENCY_GRAPH_DIGESTS))
def test_graph_analysis_with_latency_is_byte_identical(name, policy):
    spec = with_latency(GRAPHS[name]())
    result = GraphPathAnalysis(spec, policy=policy).analyze(
        real_case_messages())
    assert fingerprint(result) == LATENCY_GRAPH_DIGESTS[(name, policy)]


@pytest.mark.parametrize("analysis,topology,policy", sorted(LATENCY_VALUES))
def test_latency_variant_matches_within_rounding(analysis, topology, policy):
    if analysis == "endtoend":
        actual = endtoend_worst(topology, policy)
    else:
        actual = engine_bounds(analysis, topology, policy, PROPAGATION)
    expected = LATENCY_VALUES[(analysis, topology, policy)]
    assert sorted(actual) == sorted(expected)
    for name, value in expected.items():
        assert actual[name] == pytest.approx(value, rel=1e-12)
