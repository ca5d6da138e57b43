"""The admission engine's state fingerprint, maintained from per-flow
fragments, is byte for byte the reference whole-table fingerprint.

The engine keeps each admitted flow's canonical-JSON fragment and
digests ``head + ",".join(fragments) + tail``; the reference encodes
``{"scenario", "policy", "flows"}`` from scratch.  Random sequences of
what-ifs, admits, removes and journal replays must keep the two equal
on every decision's snapshot, and the preloaded engines must keep the
fingerprints served before the fragment path existed.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import units
from repro.campaigns import get as get_scenario
from repro.campaigns.scenario import Scenario, TopologySpec, WorkloadSpec
from repro.serve import AdmissionEngine
from repro.store import fingerprint

#: Characters whose JSON escapes (or ordering once escaped) differ from
#: their raw text: space, ``!`` and ``"`` around the quote, the
#: backslash, control characters, and non-ASCII text.
NAME_ALPHABET = (" ", "!", '"', "\\", "\x00", "\x07", "\n", "\x1f", "\x7f",
                 "é", "λ", "中", "\U0001f600", "a", "Z", "-", "0")

#: Full-hex (state, bounds) fingerprints of the preloaded engines.
PRELOADED = {
    ("paper-real-case", "fcfs"): (
        "f9ea3ebd48a422eb243f9720d9100d216338668fdb4d8348aa2ed45c1cb774ce",
        "ae0bf5fd0181eeaed5d47b93147862928201b533c81e3a52cc7478acba6d5f75"),
    ("paper-real-case", "strict-priority"): (
        "9d8f2a2089f60247c3c79ff3657a7817b4d50c0dc0841cd50e2f87e57271f153",
        "961684a3e98b66a0e0b4817a6520c184ca8c640c3bb02b0020ea6d5b1d1d02ac"),
    ("graph-diamond", "fcfs"): (
        "0e13969eab52bbcc524837a998ebc89538663ca59d2e044a9a888927dc1bbf2d",
        "425087b4967444eccc63e34c393c2d4fd4f5f3252df08806d0dac0d9cc307579"),
    ("graph-diamond", "strict-priority"): (
        "2bd68e37162cd193c8f1b8d9bef5c11087b58641c04413640fa5592e7eb2897d",
        "82c81e4028df85b99eaf1a001094d30fc90c2cb3e8544fc21aeb660ae1a20f41"),
}


def star_scenario():
    return Scenario(name="fingerprint-star",
                    description="state fingerprint test scenario",
                    workload=WorkloadSpec(station_count=6, seed=3),
                    topology=TopologySpec("single-switch-star"),
                    capacity=units.mbps(10.0),
                    technology_delay=units.us(16.0),
                    policies=("fcfs", "strict-priority"))


def reference(engine, payloads):
    """The from-scratch state fingerprint of a flow table."""
    return fingerprint({"scenario": engine.scenario,
                        "policy": engine.policy,
                        "flows": list(payloads)})


names = st.text(alphabet=st.sampled_from(NAME_ALPHABET), min_size=1,
                max_size=6)

flows = st.builds(
    lambda name, kind, period, size, source, destination, deadline: {
        "name": name, "kind": kind, "period": period, "size": size,
        "source": f"station-0{source}", "destination":
            f"station-0{destination}", "deadline": deadline},
    names, st.sampled_from(["periodic", "sporadic"]),
    st.sampled_from([0.02, 0.16, 1.0]), st.sampled_from([64.0, 304.0,
                                                          2048.0]),
    st.integers(0, 3), st.integers(4, 5),
    st.sampled_from([None, 0.003, 0.16]))

operations = st.lists(st.one_of(
    st.tuples(st.just("check"), flows),
    st.tuples(st.just("admit"), flows, st.booleans()),
    st.tuples(st.just("remove"), names, st.integers(0, 200)),
    st.tuples(st.just("replay"), flows, st.integers(0, 200))),
    min_size=1, max_size=8)


def run_sequence(engine, steps):
    """Apply ``steps`` to ``engine`` and to a plain list of payloads."""
    table = engine.flow_payloads()
    assert engine.state_fingerprint() == reference(engine, table)
    for step in steps:
        op = step[0]
        if op in ("check", "admit"):
            flow = step[1]
            present = any(entry["name"] == flow["name"] for entry in table)
            decision = engine.check(flow) if op == "check" \
                else engine.admit(flow, force=step[2])
            if decision.applied and op == "admit":
                table.append(flow)
                described = table
            elif present:
                described = table
            else:
                described = table + [flow]
            assert decision.snapshot.state_fingerprint == \
                reference(engine, described)
        elif op == "remove":
            name = table[step[2] % len(table)]["name"] \
                if table and step[2] % 2 else step[1]
            decision = engine.remove(name)
            table = [entry for entry in table if entry["name"] != name]
            assert decision.snapshot.state_fingerprint == \
                reference(engine, table)
        else:
            journaled = []
            if not any(entry["name"] == step[1]["name"] for entry in table):
                journaled.append({"op": "admit", "flow": step[1]})
                table.append(step[1])
            if table:
                name = table[step[2] % len(table)]["name"]
                journaled.append({"op": "remove", "name": name})
                table = [entry for entry in table if entry["name"] != name]
            engine.replay(journaled)
            assert engine.snapshot().state_fingerprint == \
                reference(engine, table)
        assert engine.state_fingerprint() == reference(engine, table)
        assert engine.snapshot().state_fingerprint == \
            engine.state_fingerprint()
    assert engine.verify()


class TestFragmentFingerprint:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(policy=st.sampled_from(["fcfs", "strict-priority"]),
           steps=operations)
    def test_property_star_sequences_keep_the_reference(self, policy, steps):
        run_sequence(AdmissionEngine(star_scenario(), policy), steps)

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(policy=st.sampled_from(["fcfs", "strict-priority"]),
           steps=operations)
    def test_property_graph_sequences_keep_the_reference(self, policy,
                                                         steps):
        run_sequence(AdmissionEngine(get_scenario("graph-diamond"), policy),
                     steps)

    def test_empty_table_fingerprint_is_the_reference(self):
        engine = AdmissionEngine(star_scenario(), preload=False)
        assert engine.state_fingerprint() == reference(engine, [])
        assert engine.verify()


class TestPreloadedGolden:
    @pytest.mark.parametrize("name,policy", sorted(PRELOADED))
    def test_preloaded_fingerprints_are_unchanged(self, name, policy):
        engine = AdmissionEngine(get_scenario(name), policy)
        assert (engine.state_fingerprint(),
                engine.snapshot().bounds_fingerprint()) == \
            PRELOADED[name, policy]
        assert engine.verify()
