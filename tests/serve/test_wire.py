"""The service's HTTP/1.1 framing codec, message by message."""

import email.utils
import io
import time

import pytest

from repro.serve import wire


def head(data: bytes):
    rfile = io.BufferedReader(io.BytesIO(data))
    return wire.read_start_line(rfile), rfile


class TestHeadReader:
    def test_fields_are_case_insensitive_and_keep_their_names(self):
        line, rfile = head(b"POST /check HTTP/1.1\r\nHost: x\r\n"
                           b"content-LENGTH:  2 \r\nX-A: 1\r\nx-a: 2\r\n\r\n{}")
        assert line == "POST /check HTTP/1.1"
        fields = wire.read_fields(rfile)
        assert fields["content-length"] == "2"
        assert fields["x-a"] == "1, 2"
        assert fields.as_sent() == {"Host": "x", "content-LENGTH": "2",
                                    "X-A": "1, 2"}
        assert wire.read_body(rfile, 2) == b"{}"

    def test_bare_line_feeds_end_lines_too(self):
        line, rfile = head(b"GET / HTTP/1.1\nHost: x\n\n")
        assert line == "GET / HTTP/1.1"
        assert wire.read_fields(rfile) == {"host": "x"}

    def test_connection_tokens(self):
        _, rfile = head(b"GET / HTTP/1.1\r\n"
                        b"Connection: Keep-Alive, Upgrade\r\n\r\n")
        fields = wire.read_fields(rfile)
        assert fields.tokens("connection") == {"keep-alive", "upgrade"}
        assert fields.tokens("expect") == set()

    def test_a_closed_connection_before_a_message_is_none(self):
        assert head(b"")[0] is None

    @pytest.mark.parametrize("data", [b"GET / HTTP/1.1",
                                      b"GET / HTTP/1.1\r\nHost: x\r\n",
                                      b"GET / HTTP/1.1\r\nHost"])
    def test_a_connection_closed_inside_a_head_raises(self, data):
        with pytest.raises(ConnectionError):
            line, rfile = head(data)
            wire.read_fields(rfile)

    @pytest.mark.parametrize("data, status", [
        (b"GET / HTTP/1.1\r\nX: " + b"a" * wire.MAX_LINE + b"\r\n\r\n", 431),
        (b"GET / HTTP/1.1\r\n" + b"X: 1\r\n" * (wire.MAX_HEADERS + 1)
         + b"\r\n", 431),
        (b"GET / HTTP/1.1\r\nno colon\r\n\r\n", 400),
        (b"GET / HTTP/1.1\r\nX : 1\r\n\r\n", 400),
        (b"GET / HTTP/1.1\r\nX: 1\r\n folded\r\n\r\n", 400)])
    def test_a_head_over_the_limits_or_malformed(self, data, status):
        _, rfile = head(data)
        with pytest.raises(wire.FramingError) as excinfo:
            wire.read_fields(rfile)
        assert excinfo.value.status == status

    def test_an_over_long_start_line_is_a_414(self):
        with pytest.raises(wire.FramingError) as excinfo:
            head(b"GET /" + b"a" * wire.MAX_LINE + b" HTTP/1.1\r\n\r\n")
        assert excinfo.value.status == 414

    def test_a_short_body_raises(self):
        _, rfile = head(b"x\r\n{\"a\"")
        with pytest.raises(ConnectionError):
            wire.read_body(rfile, 10)


class TestStartLines:
    def test_request_line(self):
        assert wire.parse_request_line("POST /admit HTTP/1.1") == \
            ("POST", "/admit", (1, 1))
        assert wire.parse_request_line("GET / HTTP/1.0")[2] == (1, 0)

    @pytest.mark.parametrize("line, status, text", [
        ("GET /a b HTTP/1.1", 400, "Bad request syntax"),
        ("GET /", 400, "Bad request syntax"),
        ("GET / FTP/1.1", 400, "Bad request version"),
        ("GET / HTTP/1.¹", 400, "Bad request version"),
        ("GET / HTTP/2.0", 505, "Invalid HTTP version")])
    def test_bad_request_lines(self, line, status, text):
        with pytest.raises(wire.FramingError) as excinfo:
            wire.parse_request_line(line)
        assert excinfo.value.status == status
        assert text in str(excinfo.value)

    def test_status_line(self):
        assert wire.parse_status_line("HTTP/1.1 503 Service Unavailable") \
            == 503
        assert wire.parse_status_line("HTTP/1.0 200") == 200
        for line in ("HTTP/1.1 20 OK", "HTTP/1.1 2000 OK", "ICY 200 OK"):
            with pytest.raises(wire.FramingError):
                wire.parse_status_line(line)


class TestLength:
    @pytest.mark.parametrize("text, length", [
        ("0", 0), ("17", 17), ("0017", 17), ("0" * 5000, 0),
        ("9" * 5000, 10 ** 18), ("", None), ("-1", None), ("+2", None),
        ("1.0", None), ("²", None), ("1, 1", None)])
    def test_parse_length(self, text, length):
        assert wire.parse_length(text) == length


class TestEncoder:
    def test_one_buffer_with_the_length(self):
        assert wire.encode(wire.status_line(404), {"A": "1"}, b"{}") == (
            b"HTTP/1.1 404 Not Found\r\nA: 1\r\nContent-Length: 2\r\n\r\n{}")

    def test_no_body_no_length(self):
        assert wire.encode("GET / HTTP/1.1", {"Host": "x"}) == \
            b"GET / HTTP/1.1\r\nHost: x\r\n\r\n"

    def test_round_trip(self):
        message = wire.encode("POST /x HTTP/1.1", {"Host": "h"}, b"body")
        line, rfile = head(message)
        fields = wire.read_fields(rfile)
        assert wire.parse_request_line(line)[:2] == ("POST", "/x")
        assert wire.read_body(rfile, int(fields["content-length"])) == \
            b"body"

    def test_date_is_rfc_9110(self):
        before = int(time.time())
        date = wire.http_date()
        after = int(time.time())
        assert date in {email.utils.formatdate(second, usegmt=True)
                        for second in range(before, after + 1)}
