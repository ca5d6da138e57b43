"""Stable content fingerprints for units of work.

A fingerprint is a SHA-256 digest of a *canonical JSON* encoding of a
spec: dataclasses become ``{"__dataclass__": name, "fields": {...}}``
maps, enums become ``{"__enum__": class, "name": member}`` maps, tuples
and lists are interchangeable, and dictionaries are sorted — so the
digest depends only on the **values** of the spec, never on object
identity, dict insertion order, or ``PYTHONHASHSEED``.  Two processes
(or two CI runs on different machines) computing the fingerprint of the
same scenario/cell/experiment spec always agree, which is what lets the
result store address results by content across process restarts.

A fingerprint of a mapping whose one list grows and shrinks (the
admission engine's flow table) need not re-encode the whole list per
change: :func:`list_frame` splits the canonical text around the list's
items, so the digest of ``head + ",".join(item texts) + tail`` is the
same fingerprint, byte for byte, with each item encoded once.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import re
from typing import Any

__all__ = ["canonical", "canonical_json", "fingerprint", "list_frame",
           "text_fingerprint"]

#: Placeholder item whose encoding marks where :func:`list_frame` splits.
_FRAME_MARKER = "\x00list-frame\x00"

#: Declared field names per dataclass type (``None`` for other types).
_FIELD_NAMES: dict[type, tuple[str, ...] | None] = {}

#: Matches a string of "plain" characters, ``#`` to ``~`` except ``\``:
#: JSON writes such a string as itself in quotes, and each of them sorts
#: above the closing ``"``, so plain keys sort raw as their JSON texts do.
_plain = re.compile(r"[#-\[\]-~]*").fullmatch


def canonical(obj: Any) -> Any:
    """Reduce ``obj`` to a JSON-serialisable canonical form.

    Supported inputs: JSON scalars, lists/tuples, sets/frozensets,
    dictionaries (any canonicalisable keys), enums and dataclass
    *instances* (recursively, via their declared fields).  Anything else
    raises ``TypeError`` — fingerprinting an object the store cannot
    represent faithfully would silently collide.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, enum.Enum):
        return {"__enum__": type(obj).__name__, "name": obj.name}
    names = _field_names(type(obj))
    if names is not None:
        return {"__dataclass__": type(obj).__name__,
                "fields": {name: canonical(getattr(obj, name))
                           for name in names}}
    if isinstance(obj, (list, tuple)):
        return [canonical(item) for item in obj]
    if isinstance(obj, (set, frozenset)):
        items = [canonical(item) for item in obj]
        return {"__set__": sorted(items, key=_sort_key)}
    if isinstance(obj, dict):
        if all(type(key) is str for key in obj) and _plain("".join(obj)):
            return {"__dict__": [[key, canonical(obj[key])]
                                 for key in sorted(obj)]}
        pairs = [[canonical(key), canonical(value)]
                 for key, value in obj.items()]
        return {"__dict__": sorted(pairs, key=lambda kv: _sort_key(kv[0]))}
    raise TypeError(f"cannot canonicalise {type(obj).__name__!r} "
                    f"for fingerprinting: {obj!r}")


def _field_names(cls: type) -> tuple[str, ...] | None:
    """The declared field names of dataclass type ``cls``, else ``None``."""
    try:
        return _FIELD_NAMES[cls]
    except KeyError:
        names = (tuple(field.name for field in dataclasses.fields(cls))
                 if dataclasses.is_dataclass(cls) else None)
        _FIELD_NAMES[cls] = names
        return names


def _sort_key(value: Any) -> str:
    """Total order over canonical forms (via their JSON encoding)."""
    return json.dumps(value, sort_keys=True, allow_nan=True)


def canonical_json(obj: Any) -> str:
    """The canonical JSON text whose digest is the fingerprint."""
    return json.dumps(canonical(obj), sort_keys=True,
                      separators=(",", ":"), ensure_ascii=True,
                      allow_nan=True)


def fingerprint(obj: Any) -> str:
    """The SHA-256 hex fingerprint of ``obj``'s canonical form."""
    return text_fingerprint(canonical_json(obj))


def text_fingerprint(text: str) -> str:
    """The SHA-256 hex fingerprint of an already canonical JSON text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def list_frame(mapping: dict, key: Any) -> tuple[str, str]:
    """The canonical JSON of ``mapping`` with a list at ``key``, split
    around the list's items.

    For every list ``items``, ``head + ",".join(canonical_json(item) for
    item in items) + tail`` equals ``canonical_json({**mapping, key:
    items})`` byte for byte: dictionary pairs are ordered by key alone,
    and a list's encoding is its items' encodings joined by commas.
    Raises ``ValueError`` if ``mapping`` already contains the marker
    text the split relies on.
    """
    text = canonical_json({**mapping, key: [_FRAME_MARKER]})
    marker = canonical_json(_FRAME_MARKER)
    if text.count(marker) != 1:
        raise ValueError("mapping contains the list-frame marker text")
    head, _, tail = text.partition(marker)
    return head, tail
