"""Golden per-flow output of the routed fixed-point analyses.

``EndToEndAnalysis`` (the network-calculus composition) and the
holistic and trajectory engines all bound a multi-hop route by applying
a per-port delay rule at every egress port and inflating each burst by
its upstream delay until the bounds settle.  The digests below are
canonical-JSON SHA-256 values of their complete output — per-hop
multiplexer bounds, port and class backlogs, ``converged`` and
per-class engine bounds.  They were recorded before the analyses shared
one fixed-point core and refreshed when sums over port members became
correctly rounded (``math.fsum``), and the calculus digests again when
``EndToEndAnalysis`` replaced the left-over-curve composition on graphs
and gained its port and class backlogs; any other change to that core
must reproduce them byte for byte.  One ring is loaded so that burst
inflation never settles, which pins the divergence path
(``converged=False``, unstable flows) as well.

Links with a non-zero propagation delay are pinned separately: the
calculus analysis on graphs stays byte-identical there, while the
other results accumulate upstream delay in a different addition order
than they once did and are held to ``rel=1e-12``.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro import units
from repro.analysis.engines import get_engine
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


def graph_digest(name: str, policy: str, propagation: float = 0.0) -> str:
    spec = GRAPHS[name]()
    if propagation:
        spec = with_latency(spec)
    return fingerprint(EndToEndAnalysis(spec.to_network(), policy=policy)
                       .analyze(real_case_messages()))


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
        "4c5bf42330b38a67277101a1b1c3b306b2074b2d7a220df2365a6f822e070272",
    ("graph-diamond", "strict-priority"):
        "21be0a91a0054c38a14fe3479de699387e7549e309afb362c8f086a003158195",
    ("graph-random", "fcfs"):
        "017b7f90f22af748e7b09655d628ff55b06c06f41694c2fd71121e36ecc440d4",
    ("graph-random", "strict-priority"):
        "ec7f83e6ea4135a88a992ce62fb99d887999726de9bba019acaffe7afb34262c",
    ("graph-ring", "fcfs"):
        "03adb60b1e400a8d533a16fc26496796e67f61948b00918167166fcc674b9f70",
    ("graph-ring", "strict-priority"):
        "6820207be2d9ff820481228b3a277c22a8076a42e7a615136eae267622fbecb3",
}

DIVERGING_DIGESTS = {
    ("calculus", "fcfs"):
        "562392e93daa3e10f68246d96bdd248205b4dd4d2d8d224e953a0dc18c479b97",
    ("calculus", "strict-priority"):
        "7593a4fba226e49f57811094ca7a14041e60254d85d5196e9420e23813c7e206",
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
        "03561ca0835dee1fd01932a68a16e3331078ff86819301ea77dd96ffc4c7d74c",
    ("dual-switch", "strict-priority"):
        "2078ad9ea03642c63d7c74cb06fe7258738adcd4c291e6a012f9ce5a95fdd716",
    ("star", "fcfs"):
        "2e3c38b3d2eaff64ff9a12389e2dde15b3e6c84a5c7b80a39bd867c64b687306",
    ("star", "strict-priority"):
        "3968003c36d0283d427edc46eab158cacb27461a15f1b5322758f5c16c1f922c",
    ("tree", "fcfs"):
        "1d9098f56483cad4c8e5e0ab133d2cfd6f1a6b24302068f7a3c481fb8f7d26b4",
    ("tree", "strict-priority"):
        "88a7a8f958eb6f183397d86072970efab0c05ba56f78a704c39f5c03cf90d7d3",
}

ENGINE_DIGESTS = {
    ("holistic", "dual-switch", "fcfs"):
        "79d76314adad276f289f560958b1e6fac60cd3a027a7fefa803cb8a54e1e0321",
    ("holistic", "dual-switch", "strict-priority"):
        "cf72d9c137a3b2fc258004ff23b3e468da6a1a6e0eb1b649ba24d2fdd8c03e96",
    ("holistic", "graph-diamond", "fcfs"):
        "66037e81a64659d9e83995b7838c966d28e4b0c42db1fc41b53fdde30f0104d6",
    ("holistic", "graph-diamond", "strict-priority"):
        "a069929cd941fe11a0fb60a4dd31edbdd9f094ae835052739995372e1b3efdd5",
    ("holistic", "graph-random", "fcfs"):
        "44ec8bb83a431d0e6ab2d41225692b11104aebde544f27a1382cb3556afe5513",
    ("holistic", "graph-random", "strict-priority"):
        "257704314bc3ab328fcd5e12a022f89566ffdbf43a8d7a42210ec6329f6264ce",
    ("holistic", "graph-ring", "fcfs"):
        "aca0ebaa42d83605afd15196678c3b018afdec592b71b48eb2d4a4ddbc23b76d",
    ("holistic", "graph-ring", "strict-priority"):
        "0d772de7a5e7b678ba0d8dd0db2d5fe45cad2e60a54f15d2e21b5ff21dbfd416",
    ("holistic", "star", "fcfs"):
        "ffb6a532c2bac0eb333762643c7729346ea478e43cf60d303054ec157d29bf5b",
    ("holistic", "star", "strict-priority"):
        "efff43f0993bbfb357ba1fa876657a025c2a5dd21e5fcea583d44ee4ccdb6279",
    ("holistic", "tree", "fcfs"):
        "66037e81a64659d9e83995b7838c966d28e4b0c42db1fc41b53fdde30f0104d6",
    ("holistic", "tree", "strict-priority"):
        "a069929cd941fe11a0fb60a4dd31edbdd9f094ae835052739995372e1b3efdd5",
    ("trajectory", "dual-switch", "fcfs"):
        "90b8b42b0ebeea195aed44f5c9b7518c32bc35fd54f4b4b91396ba87c9fe4c25",
    ("trajectory", "dual-switch", "strict-priority"):
        "7e07b107d40c15bb8f815c85cf370ebe092a58dc2575678aa9d40a534a740352",
    ("trajectory", "graph-diamond", "fcfs"):
        "6191acab4902d1bcac493b25e394e067e45492386a37ece796bc9ab73f077d94",
    ("trajectory", "graph-diamond", "strict-priority"):
        "1597f6ed89fa8a998f479485e716cc437c78847eec763b67908b2863368fecae",
    ("trajectory", "graph-random", "fcfs"):
        "25d3190fd86b6c3cde405431602f7390b6f859495e556076954c0c38cec9fe50",
    ("trajectory", "graph-random", "strict-priority"):
        "6fbba4729020a861cedc93674542c597754cb04509ac10662861ea7c4dc84240",
    ("trajectory", "graph-ring", "fcfs"):
        "e3baa596b1f0e1a3cffbb812b66c76868d7b2552ddf331d9770f937e841a79e9",
    ("trajectory", "graph-ring", "strict-priority"):
        "121ce674281c4a9cd64635309ad15b5ce6e13bd86393268f1d8d7f0fb68acba6",
    ("trajectory", "star", "fcfs"):
        "d482f6c8dc8b4534be9f4f764fef726c35dc942bd1c6b19fe56ceca32c589739",
    ("trajectory", "star", "strict-priority"):
        "a5ae50314ee242f9367048f531423e9ccd3a71479dc641d191a29ddf26d98e27",
    ("trajectory", "tree", "fcfs"):
        "6191acab4902d1bcac493b25e394e067e45492386a37ece796bc9ab73f077d94",
    ("trajectory", "tree", "strict-priority"):
        "1597f6ed89fa8a998f479485e716cc437c78847eec763b67908b2863368fecae",
}

LATENCY_GRAPH_DIGESTS = {
    ("graph-diamond", "fcfs"):
        "7dc9085470e7464d1122bd783502627e7d759b79602be4cbf7f11b97631d2a92",
    ("graph-diamond", "strict-priority"):
        "0b54e3a403453c423faecf4c0848a49bafe5a3db71b4f2cf1043ad080a1b7d60",
    ("graph-random", "fcfs"):
        "a940d2debdf565f76aa757fb1ffb03feb039d4e1e0053b5a1d96229c5da22982",
    ("graph-random", "strict-priority"):
        "a4939f7902954daf942dc5219f114da2f4b7744f2a5bffa11bc72f0780e15111",
    ("graph-ring", "fcfs"):
        "733611a2c365ab380135289aabc4a69d566d4e77c332e64c3123e4da823587fb",
    ("graph-ring", "strict-priority"):
        "819c7818bd7a5fb4d93a8d8166d77590032be27c2095da01c7626de030b75f75",
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
    network = spec.to_network()
    result = EndToEndAnalysis(network, policy=policy).analyze(messages)
    assert not result.converged
    stable = {bound.name for bound in result
              if math.isfinite(bound.total_delay)}
    assert stable and stable != {bound.name for bound in result}
    assert all(math.isinf(bound.total_delay) for bound in result
               if bound.name.startswith("ring-"))
    assert fingerprint(result) == DIVERGING_DIGESTS[("calculus", policy)]
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
    assert graph_digest(name, policy, PROPAGATION) == \
        LATENCY_GRAPH_DIGESTS[(name, policy)]


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
