"""Adversarial input for the async edge's incremental HTTP/1.1 parser.

The parser reads requests straight off each connection's read buffer, so
whatever a client does with byte boundaries must not change the answer.
The property tests feed bytes to the parser exactly as the loop does after a
``recv`` (on the loop thread, one posted task per chunk), at byte boundaries
hypothesis picks, and compare the responses with a single-write baseline.
The regression tests go over a real socket.
"""

from __future__ import annotations

import json
import queue
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automl.remote.edge import (
    MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    AsyncHTTPEdge,
    json_reply,
)


class EchoApp:
    """Answers ``/echo`` with the request it understood."""

    def check_auth(self, token):
        return True

    def classify(self, method, path):
        if path == "/echo":
            return ("control", "/echo", None)
        return None

    def handle_control(self, method, template, args, params, read_body,
                       request_id):
        body = read_body() if method == "POST" else None
        return json_reply(200, {"method": method, "params": params,
                                "body": body})


@pytest.fixture(scope="module")
def edge():
    edge = AsyncHTTPEdge(("127.0.0.1", 0), EchoApp(), workers=2).start()
    yield edge
    edge.stop()


def _connection(edge, sock):
    """The edge's connection object for the client socket ``sock``."""
    addr = sock.getsockname()
    found: "queue.Queue" = queue.Queue()

    def look() -> None:
        for conn in edge._conns:
            if conn.addr == addr:
                found.put(conn)
                return
        edge.schedule(0.005, look)  # not accepted yet

    edge._post(look)
    return found.get(timeout=10.0)


def _deliver(edge, conn, data: bytes) -> None:
    # What the loop does with bytes it read off the socket.
    if conn.alive and conn.stream is None and not conn.closing:
        conn.rbuf += data
        edge._try_parse(conn)


def _feed(edge, raw: bytes, cuts) -> socket.socket:
    """Connect, then hand ``raw`` to the parser split at ``cuts``."""
    sock = socket.create_connection(edge.address, timeout=10.0)
    conn = _connection(edge, sock)
    bounds = [0, *sorted(set(cuts)), len(raw)]
    for start, end in zip(bounds, bounds[1:]):
        chunk = raw[start:end]
        edge._post(lambda chunk=chunk: _deliver(edge, conn, chunk))
    return sock


def _read_responses(sock: socket.socket, count: int):
    """Up to ``count`` ``(status, headers, body)`` responses, in order."""
    buf = bytearray()
    responses = []
    while len(responses) < count:
        head_end = buf.find(b"\r\n\r\n")
        if head_end >= 0:
            lines = bytes(buf[:head_end]).decode("iso-8859-1").split("\r\n")
            headers = dict(line.split(": ", 1) for line in lines[1:])
            total = head_end + 4 + int(headers["Content-Length"])
            if len(buf) >= total:
                body = bytes(buf[head_end + 4:total])
                responses.append((int(lines[0].split()[1]), headers, body))
                del buf[:total]
                continue
        try:
            data = sock.recv(65536)
        except ConnectionResetError:
            break
        if not data:
            break
        buf += data
    return responses


def _send_whole(edge, raw: bytes):
    with _feed(edge, raw, ()) as sock:
        return _read_responses(sock, 1)


def _request(request_id: str, method: str, query: str,
             body: object = None) -> bytes:
    payload = b"" if body is None else json.dumps(body).encode("utf-8")
    head = (f"{method} /echo?q={query} HTTP/1.1\r\nHost: t\r\n"
            f"X-Request-Id: {request_id}\r\n")
    if method == "POST":
        head += f"Content-Length: {len(payload)}\r\n"
    return (head + "\r\n").encode("iso-8859-1") + payload


_queries = st.text(alphabet="abcxyz019-_", max_size=12)
_bodies = st.dictionaries(st.text(alphabet="abc", min_size=1, max_size=4),
                          st.integers(-1000, 1000), max_size=3)


@st.composite
def _requests(draw, request_id: str):
    method = draw(st.sampled_from(["GET", "POST"]))
    body = draw(_bodies) if method == "POST" else None
    return _request(request_id, method, draw(_queries), body)


def _cuts(draw, raw: bytes):
    return draw(st.lists(st.integers(1, max(1, len(raw) - 1)), max_size=12))


class TestParserProperties:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_split_request_answers_like_one_write(self, edge, data):
        raw = data.draw(_requests("split-1"))
        cuts = _cuts(data.draw, raw)
        expected = _send_whole(edge, raw)
        with _feed(edge, raw, cuts) as sock:
            assert _read_responses(sock, 1) == expected
        assert expected[0][0] == 200

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_pipelined_requests_answer_in_order(self, edge, data):
        first = data.draw(_requests("pipe-1"))
        second = data.draw(_requests("pipe-2"))
        raw = first + second
        with _feed(edge, raw, _cuts(data.draw, raw)) as sock:
            responses = _read_responses(sock, 2)
        assert [status for status, _, _ in responses] == [200, 200]
        assert [headers["X-Request-Id"] for _, headers, _ in responses] == [
            "pipe-1", "pipe-2"]
        # Keep-alive: neither answer closed the connection.
        assert all("Connection" not in headers
                   for _, headers, _ in responses)
        assert responses[0] == _send_whole(edge, first)[0]
        assert responses[1] == _send_whole(edge, second)[0]

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), excess=st.integers(-3, 3),
           tail=st.sampled_from([b"", b"\r", b"\r\n", b"\r\n\r"]))
    def test_head_bound_ignores_byte_boundaries(self, edge, data, excess,
                                                tail):
        """A head over ``MAX_HEADER_BYTES`` is refused with 431 however it
        arrives, terminated or not; one at the bound is served."""
        head = _request("big-head", "GET", "x")[:-2] + b"X-Pad: "
        head += b"a" * (MAX_HEADER_BYTES + excess - len(head))
        assert len(head) == MAX_HEADER_BYTES + excess
        if excess <= 0:
            tail = b"\r\n\r\n"  # the server waits for the rest otherwise
        raw = head + tail
        with _feed(edge, raw, _cuts(data.draw, raw)) as sock:
            responses = _read_responses(sock, 1)
        statuses = [status for status, _, _ in responses]
        if excess > 0:
            assert statuses == [431]
            assert responses[0][1]["Connection"] == "close"
        else:
            assert statuses == [200]

    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), excess=st.integers(1, 1 << 20))
    def test_oversized_body_is_413(self, edge, data, excess):
        raw = (f"POST /echo HTTP/1.1\r\nHost: t\r\nX-Request-Id: big-body\r\n"
               f"Content-Length: {MAX_BODY_BYTES + excess}\r\n\r\n"
               "{}").encode("ascii")
        with _feed(edge, raw, _cuts(data.draw, raw)) as sock:
            responses = _read_responses(sock, 1)
        assert [status for status, _, _ in responses] == [413]


class TestParserRegressions:
    def test_oversized_head_in_one_write_is_431(self, edge):
        """The head bound holds even when the terminator arrives in the same
        write as the oversized block."""
        raw = (b"GET /echo HTTP/1.1\r\nHost: t\r\nX-Pad: "
               + b"a" * 100_000 + b"\r\n\r\n")
        with socket.create_connection(edge.address, timeout=10.0) as sock:
            sock.sendall(raw)
            responses = _read_responses(sock, 1)
        assert [status for status, _, _ in responses] == [431]

    @pytest.mark.parametrize("length", ["+2", "0_0", "-1", "\u00b2"])
    def test_content_length_must_be_ascii_digits(self, edge, length):
        raw = (f"GET /echo HTTP/1.1\r\nHost: t\r\n"
               f"Content-Length: {length}\r\n\r\n{{}}").encode("iso-8859-1")
        with socket.create_connection(edge.address, timeout=10.0) as sock:
            sock.sendall(raw)
            responses = _read_responses(sock, 1)
        assert [status for status, _, _ in responses] == [400]
        assert b"Content-Length" in responses[0][2]
