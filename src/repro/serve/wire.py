"""The HTTP/1.1 framing both ends of the admission service speak.

:class:`~repro.serve.server.AdmissionServer` and
:class:`~repro.serve.client.ServeClient` exchange small JSON messages on
persistent connections, so a round trip is mostly framing.  This module
is that framing, and nothing else:

* a head reader — :func:`read_start_line` and :func:`read_fields` read
  the start line and the header fields off a buffered socket file into
  a case-insensitive :class:`Fields` map, with the stdlib's limits of
  :data:`MAX_LINE` bytes per line and :data:`MAX_HEADERS` fields;
  :func:`parse_request_line` and :func:`parse_status_line` split the
  start line, and :func:`read_body` reads a ``Content-Length`` body;
* an encoder — :func:`encode` builds a whole request or response (start
  line, fields, ``Content-Length`` and body) as one buffer, so each
  message goes out in one ``sendall``.

A head that cannot be read raises :class:`FramingError`, a
:class:`ConnectionError` that carries the status a server answers it
with; a connection that closes inside a message raises a plain
:class:`ConnectionError`.
"""

from __future__ import annotations

import time
from http import HTTPStatus

__all__ = ["CONTINUE", "MAX_HEADERS", "MAX_LINE", "Fields", "FramingError",
           "encode", "http_date", "parse_length", "parse_request_line",
           "parse_status_line", "read_body", "read_fields", "read_start_line",
           "status_line"]

#: Longest start line or header line read, in bytes (line end included).
MAX_LINE = 65536

#: Most header fields read from one message head.
MAX_HEADERS = 100

#: The interim response to ``Expect: 100-continue``.
CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"

_REASONS = {status.value: status.phrase for status in HTTPStatus}
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep",
           "Oct", "Nov", "Dec")
_END_OF_HEAD = (b"\r\n", b"\n")


class FramingError(ConnectionError):
    """A message head that breaks HTTP/1.1 framing.

    ``status`` is the error a server answers with before it closes the
    connection; a client gives up on the connection either way.
    """

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class Fields(dict):
    """Header fields keyed by lower-case name.

    A field sent more than once holds its values joined with ``", "``
    (RFC 9110 §5.3).  :meth:`as_sent` gives them back under the names
    the peer used.
    """

    __slots__ = ("_names",)

    def __init__(self) -> None:
        super().__init__()
        self._names: dict[str, str] = {}

    def add(self, name: str, value: str) -> None:
        """Record one received field line."""
        key = name.lower()
        if key in self:
            self[key] = f"{self[key]}, {value}"
        else:
            self[key] = value
            self._names[key] = name

    def tokens(self, name: str) -> set[str]:
        """The lower-case comma-separated tokens of a list field."""
        value = self.get(name)
        if not value:
            return set()
        return {token.strip() for token in value.lower().split(",")}

    def as_sent(self) -> dict[str, str]:
        """The fields under the names they were first sent with."""
        names = self._names
        return {names[key]: value for key, value in self.items()}


def read_start_line(rfile) -> str | None:
    """The next message's start line without its line end.

    ``None`` when the connection closed before the message began;
    :class:`FramingError` (414) for a line over :data:`MAX_LINE`.
    """
    line = rfile.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise FramingError(414, "Request line too long")
    if not line:
        return None
    if not line.endswith(b"\n"):
        raise ConnectionError("connection closed inside a start line")
    return line.decode("latin-1").rstrip("\r\n")


def read_fields(rfile) -> Fields:
    """The header fields up to the blank line that ends the head.

    :class:`FramingError` answers 431 for a line over :data:`MAX_LINE`
    or more than :data:`MAX_HEADERS` fields, and 400 for a line that is
    not ``name: value`` (obsolete line folding included).
    """
    fields = Fields()
    count = 0
    while True:
        line = rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise FramingError(431, "Line too long")
        if line in _END_OF_HEAD:
            return fields
        if not line.endswith(b"\n"):
            raise ConnectionError("connection closed inside a message head")
        count += 1
        if count > MAX_HEADERS:
            raise FramingError(431, f"Too many headers (over {MAX_HEADERS})")
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon or not name or name != name.strip():
            raise FramingError(400, f"Bad header line {line[:80]!r}")
        fields.add(name, value.strip())


def parse_request_line(line: str) -> tuple[str, str, tuple[int, int]]:
    """``(method, target, (major, minor))`` of an HTTP/1.x request line."""
    words = line.split()
    if len(words) != 3:
        raise FramingError(400, f"Bad request syntax ({line!r})")
    method, target, version = words
    major, dot, minor = version[5:].partition(".")
    if not (version.startswith("HTTP/") and dot
            and _is_number(major) and _is_number(minor)):
        raise FramingError(400, f"Bad request version ({version!r})")
    if int(major) >= 2:
        raise FramingError(505, f"Invalid HTTP version ({version})")
    return method, target, (int(major), int(minor))


def parse_status_line(line: str) -> int:
    """The status code of an HTTP/1.x status line."""
    version, _, rest = line.partition(" ")
    code = rest[:3]
    if not (version.startswith("HTTP/1.") and _is_number(code)
            and rest[3:4] in ("", " ")):
        raise FramingError(502, f"Bad status line {line[:80]!r}")
    return int(code)


def _is_number(text: str) -> bool:
    return 0 < len(text) <= 10 and text.isascii() and text.isdigit()


def parse_length(text: str) -> int | None:
    """A ``Content-Length`` value as a byte count; ``None`` if it is not
    one.  A value too long for ``int()`` reads as more than any limit."""
    if not (text.isascii() and text.isdigit()):
        return None
    digits = text.lstrip("0")
    return int(digits or "0") if len(digits) <= 18 else 10 ** 18


def read_body(rfile, length: int) -> bytes:
    """Exactly ``length`` body bytes; a short read closed the connection."""
    body = rfile.read(length) if length else b""
    if len(body) < length:
        raise ConnectionError(f"connection closed after {len(body)} of "
                              f"{length} body bytes")
    return body


def status_line(status: int) -> str:
    """The HTTP/1.1 status line of ``status``."""
    return f"HTTP/1.1 {status} {_REASONS.get(status, '')}"


def encode(start_line: str, fields: dict[str, str],
           body: bytes | None = None) -> bytes:
    """One whole message: start line, fields, ``Content-Length``, body.

    Without a body no ``Content-Length`` is sent.  Field names and
    values must be latin-1 text without line breaks.
    """
    lines = [start_line]
    lines.extend(f"{name}: {value}" for name, value in fields.items())
    if body is None:
        body = b""
    else:
        lines.append(f"Content-Length: {len(body)}")
    lines += ("", "")
    return "\r\n".join(lines).encode("latin-1") + body


_date = (0, "")


def http_date() -> str:
    """The current time as an RFC 9110 ``Date`` value, cached per second."""
    global _date
    second = int(time.time())
    cached = _date
    if cached[0] != second:
        now = time.gmtime(second)
        cached = _date = (second, (
            f"{_DAYS[now.tm_wday]}, {now.tm_mday:02d} "
            f"{_MONTHS[now.tm_mon - 1]} {now.tm_year} "
            f"{now.tm_hour:02d}:{now.tm_min:02d}:{now.tm_sec:02d} GMT"))
    return cached[1]
