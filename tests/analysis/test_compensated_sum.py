"""No bound path reaches the builtin ``sum``.

From Python 3.12 on, the builtin ``sum`` compensates float rounding
(Neumaier's algorithm), so it can differ in the last bits from the
plain left-to-right ``sum`` of earlier versions.  Sums over flows go
through :func:`math.fsum`, which is correctly rounded on every version,
and the sequences that stay left to right add explicitly.  These tests
install a transcription of 3.12's float ``sum`` as the builtin on
whatever version runs them and check that the fixed-point goldens and a
fuzz corpus replay still hold byte for byte, which they could not if a
bound path called the builtin.
"""

import builtins

import pytest

from repro.analysis.multihop import GraphPathAnalysis
from repro.fuzz import load_entries, verify_entry
from repro.store import fingerprint

from tests.analysis.test_fixed_point_golden import (
    DIVERGING_DIGESTS, ENGINE_DIGESTS, GRAPH_DIGESTS, LATENCY_GRAPH_DIGESTS,
    NETWORK_DIGESTS, GRAPHS, diverging_ring, engine_bounds, graph_digest,
    network_digest, real_case_messages, with_latency)

#: The fuzz corpus entry replayed under the compensated ``sum``.
CORPUS_ENTRY = "near-tight-0022b9a5cf4a.json"


def compensated_sum(iterable, /, start=0):
    """CPython 3.12's ``sum``: integers exactly, floats compensated."""
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            if type(item) in (int, bool):
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is not float:
        for item in items:
            result = result + item
        return result
    total = result
    compensation = 0.0
    for item in items:
        if type(item) is int:
            total += float(item)
            continue
        if type(item) is not float:
            result = total + item
            for rest in items:
                result = result + rest
            return result
        added = total + item
        if abs(total) >= abs(item):
            compensation += (total - added) + item
        else:
            compensation += (item - added) + total
        total = added
    if compensation and compensation - compensation == 0.0:
        total += compensation
    return total


@pytest.fixture
def compensated(monkeypatch):
    monkeypatch.setattr(builtins, "sum", compensated_sum)


def test_the_emulation_compensates(compensated):
    values = [0.1] * 10
    total = 0.0
    for value in values:
        total += value
    assert sum(values) == 1.0 != total
    assert sum([1, 2, 3]) == 6 and sum([]) == 0


def test_fixed_point_goldens_hold_under_a_compensated_sum(compensated):
    for (name, policy), digest in GRAPH_DIGESTS.items():
        assert graph_digest(name, policy) == digest, (name, policy)
    for (name, policy), digest in LATENCY_GRAPH_DIGESTS.items():
        result = GraphPathAnalysis(with_latency(GRAPHS[name]()),
                                   policy=policy).analyze(
            real_case_messages())
        assert fingerprint(result) == digest, (name, policy)
    for (name, policy), digest in NETWORK_DIGESTS.items():
        assert network_digest(name, policy) == digest, (name, policy)
    for (engine, topology, policy), digest in ENGINE_DIGESTS.items():
        assert fingerprint(engine_bounds(engine, topology, policy)) == \
            digest, (engine, topology, policy)
    spec, messages = diverging_ring()
    for policy in ("fcfs", "strict-priority"):
        result = GraphPathAnalysis(spec, policy=policy).analyze(messages)
        assert fingerprint(result) == DIVERGING_DIGESTS[("graph", policy)]


def test_a_corpus_entry_replays_under_a_compensated_sum(compensated,
                                                        monkeypatch):
    monkeypatch.setenv("REPRO_STORE_DIR", "/nonexistent/corpus-store")
    [entry] = [entry for entry in load_entries()
               if entry.filename == CORPUS_ENTRY]
    assert verify_entry(entry) == []
