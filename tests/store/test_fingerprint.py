"""Canonical fingerprinting: stability, order-independence, sensitivity."""

import dataclasses
import enum
import hashlib
import json
import math
import subprocess
import sys
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaigns import builtin_scenarios
from repro.flows.priorities import PriorityClass
from repro.fuzz import FuzzCampaign, GeneratorConfig, load_entries
from repro.store import canonical, canonical_json, fingerprint
from repro.store.fingerprint import _sort_key, list_frame, text_fingerprint

_SRC = Path(__file__).resolve().parents[2] / "src"


class Colour(Enum):
    RED = 1
    BLUE = 2


@dataclass(frozen=True)
class Point:
    x: float
    y: float


@dataclass(frozen=True)
class Box:
    label: str
    content: Any


class TestCanonical:
    def test_scalars_pass_through(self):
        for value in (None, True, 0, -3, 1.5, "text"):
            assert canonical(value) == value

    def test_tuples_and_lists_are_interchangeable(self):
        assert canonical((1, 2, (3,))) == canonical([1, 2, [3]])

    def test_dict_order_is_irrelevant(self):
        assert canonical({"a": 1, "b": 2}) == canonical({"b": 2, "a": 1})

    def test_set_order_is_irrelevant(self):
        assert canonical({3, 1, 2}) == canonical({2, 3, 1})

    def test_enums_encode_class_and_member(self):
        assert canonical(Colour.RED) != canonical(Colour.BLUE)
        assert canonical(PriorityClass.URGENT) \
            != canonical(PriorityClass.PERIODIC)

    def test_dataclasses_encode_their_fields(self):
        assert canonical(Point(1.0, 2.0)) == canonical(Point(1.0, 2.0))
        assert canonical(Point(1.0, 2.0)) != canonical(Point(2.0, 1.0))

    def test_non_canonicalisable_objects_are_rejected(self):
        with pytest.raises(TypeError):
            canonical(object())

    def test_non_finite_floats_survive(self):
        text = canonical_json({"a": math.inf, "b": math.nan})
        assert "Infinity" in text and "NaN" in text


class TestFingerprint:
    def test_is_a_sha256_hex_digest(self):
        digest = fingerprint({"x": 1})
        assert len(digest) == 64
        assert all(char in "0123456789abcdef" for char in digest)

    def test_differs_on_any_value_change(self):
        base = {"kind": "cell", "seed": 1, "scenario": "synchronized"}
        assert fingerprint(base) != fingerprint({**base, "seed": 2})
        assert fingerprint(base) != fingerprint({**base,
                                                 "scenario": "staggered"})

    def test_every_builtin_scenario_fingerprint_is_distinct(self):
        digests = {fingerprint(scenario)
                   for scenario in builtin_scenarios()}
        assert len(digests) == len(builtin_scenarios())

    def test_stable_across_process_restarts(self):
        """The digest must not depend on the process's hash seed."""
        payload = ("import sys; sys.path.insert(0, sys.argv[1]); "
                   "from repro.store import fingerprint; "
                   "from repro.campaigns import builtin_scenarios; "
                   "print(fingerprint({'scenarios': builtin_scenarios(), "
                   "'x': {'b': 2, 'a': 1}}))")
        digests = set()
        for hash_seed in ("1", "2"):
            result = subprocess.run(
                [sys.executable, "-c", payload, str(_SRC)],
                capture_output=True, text=True, check=True,
                env={"PYTHONHASHSEED": hash_seed, "PATH": "/usr/bin:/bin"})
            digests.add(result.stdout.strip())
        assert len(digests) == 1

    @given(st.recursive(
        st.none() | st.booleans() | st.integers()
        | st.floats(allow_nan=False) | st.text(),
        lambda children: st.lists(children)
        | st.dictionaries(st.text(), children),
        max_leaves=20))
    def test_property_fingerprint_is_deterministic(self, payload):
        assert fingerprint(payload) == fingerprint(payload)

    @given(st.dictionaries(st.text(min_size=1), st.integers(), min_size=2))
    def test_property_dict_insertion_order_never_matters(self, mapping):
        reversed_mapping = dict(reversed(list(mapping.items())))
        assert fingerprint(mapping) == fingerprint(reversed_mapping)


class TestListFrame:
    """``head + ",".join(item texts) + tail`` is the canonical text."""

    @given(st.dictionaries(st.text(), st.integers() | st.text(),
                           max_size=4),
           st.text(),
           st.lists(st.dictionaries(st.text(), st.floats() | st.text()),
                    max_size=4))
    def test_property_frame_plus_items_is_the_canonical_text(
            self, mapping, key, items):
        mapping.pop(key, None)
        head, tail = list_frame(mapping, key)
        text = head + ",".join(canonical_json(item) for item in items) \
            + tail
        assert text == canonical_json({**mapping, key: items})
        assert text_fingerprint(text) == fingerprint({**mapping, key: items})

    def test_the_key_sorts_among_the_other_pairs(self):
        head, tail = list_frame({"a": 1, "z": 2}, "m")
        assert head.endswith('["m",[') and tail.startswith(']],["z"')

    def test_a_mapping_holding_the_marker_text_is_refused(self):
        with pytest.raises(ValueError, match="marker"):
            list_frame({"name": "\x00list-frame\x00"}, "flows")


def _reference_canonical(obj: Any) -> Any:
    """``canonical`` without its fast paths: every dict sorts by JSON text."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, enum.Enum):
        return {"__enum__": type(obj).__name__, "name": obj.name}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {"__dataclass__": type(obj).__name__,
                "fields": {field.name: _reference_canonical(
                    getattr(obj, field.name))
                    for field in dataclasses.fields(obj)}}
    if isinstance(obj, (list, tuple)):
        return [_reference_canonical(item) for item in obj]
    if isinstance(obj, (set, frozenset)):
        items = [_reference_canonical(item) for item in obj]
        return {"__set__": sorted(items, key=_sort_key)}
    if isinstance(obj, dict):
        pairs = [[_reference_canonical(key), _reference_canonical(value)]
                 for key, value in obj.items()]
        return {"__dict__": sorted(pairs, key=lambda kv: _sort_key(kv[0]))}
    raise TypeError(type(obj).__name__)


def _reference_json(obj: Any) -> str:
    return json.dumps(_reference_canonical(obj), sort_keys=True,
                      separators=(",", ":"), ensure_ascii=True,
                      allow_nan=True)


#: Key characters on both sides of the fast path's "plain" range
#: (``#`` to ``~`` except ``\``): space, ``!``, ``"``, ``\``, control
#: characters, DEL and non-ASCII, next to plain letters and digits.
_KEY_ALPHABET = (" !\"#$\\\x00\x01\x1f\x7f\x80\xe9\u2028\U0001f600"
                 "-.09AZ[]_az{}~")

_KEYS = (st.text(alphabet=_KEY_ALPHABET, max_size=6)
         | st.text(alphabet="#-.09AZ_az~", max_size=6)
         | st.integers(-5, 5)
         | st.sampled_from(list(Colour))
         | st.tuples(st.integers(0, 3), st.text(alphabet="ab\"", max_size=2)))

_NESTED = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False),
    lambda children: (
        st.lists(children, max_size=3)
        | st.dictionaries(_KEYS, children, max_size=5)
        | st.builds(Box, label=st.text(max_size=3), content=children)),
    max_leaves=20)


class TestCanonicalFastPath:
    """The plain-key sort and the field-name cache change no byte."""

    @settings(max_examples=300, deadline=None)
    @given(_NESTED)
    def test_property_canonical_json_equals_the_reference(self, payload):
        assert canonical_json(payload) == _reference_json(payload)

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.text(alphabet=_KEY_ALPHABET, max_size=4),
                           st.integers(), min_size=2))
    def test_property_str_keyed_dicts_equal_the_reference(self, mapping):
        assert canonical_json(mapping) == _reference_json(mapping)

    def test_keys_below_the_quote_sort_by_their_json_text(self):
        # Raw order puts "a" first; JSON text order puts "a!" first,
        # because '!' sorts below the closing quote.
        mapping = {"a": 1, "a!": 2, "a#": 3}
        assert canonical(mapping)["__dict__"] == [["a!", 2], ["a", 1],
                                                  ["a#", 3]]
        assert canonical_json(mapping) == _reference_json(mapping)


def _group_digest(objects) -> str:
    return hashlib.sha256(
        "\n".join(fingerprint(obj) for obj in objects).encode()).hexdigest()


class TestStoreKeysArePinned:
    """Fingerprints recorded before the fast path: store keys stay put."""

    def test_builtin_scenarios(self):
        assert _group_digest(builtin_scenarios()) == (
            "bc315ff11c4ff573983e21a142d713aa4577cc407ecae1e92c9acddaeb306aa5")

    def test_fuzz_corpus_scenarios(self):
        assert _group_digest(entry.scenario for entry in load_entries()) == (
            "e48d84d790c8506e1077d98247e8c8a4504abaa72912d0f2db066bbdd55ba017")

    def test_multi_hop_fuzz_cells(self):
        cells = FuzzCampaign(count=200, seed=0,
                             config=GeneratorConfig.multi_hop()).cells()
        assert _group_digest(cells) == (
            "8cd95a201e5ce26f0ce6cd064f3e7817cd5d5755f19322f31db45b21df47c5fc")
