"""Canonical fingerprinting: stability, order-independence, sensitivity."""

import math
import subprocess
import sys
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.campaigns import builtin_scenarios
from repro.flows.priorities import PriorityClass
from repro.store import canonical, canonical_json, fingerprint
from repro.store.fingerprint import list_frame, text_fingerprint

_SRC = Path(__file__).resolve().parents[2] / "src"


class Colour(Enum):
    RED = 1
    BLUE = 2


@dataclass(frozen=True)
class Point:
    x: float
    y: float


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
