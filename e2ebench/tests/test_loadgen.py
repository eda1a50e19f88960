"""HTTP/1.1 response framing and the pipelined open-loop client."""

import socketserver
import threading
import time

import pytest

from loadgen import Client, ProtocolError, Request, ResponseParser


def _response(body: bytes, status: int = 200, extra: bytes = b"") -> bytes:
    return (
        f"HTTP/1.1 {status} OK\r\nContent-Type: application/json\r\n".encode()
        + extra
        + f"Content-Length: {len(body)}\r\n\r\n".encode()
        + body
    )


def test_frames_a_response_split_across_reads():
    parser = ResponseParser()
    raw = _response(b'{"a":1}')
    for cut in range(1, len(raw)):
        parser = ResponseParser()
        assert parser.feed(raw[:cut]) == []
        assert parser.feed(raw[cut:]) == [(200, b'{"a":1}')]
        assert parser.buffered == 0


def test_frames_pipelined_responses_in_one_read():
    parser = ResponseParser()
    raw = _response(b"one") + _response(b"", 404) + _response(b"three")
    assert parser.feed(raw + b"HTTP/1.1 2") == [
        (200, b"one"), (404, b""), (200, b"three")
    ]
    assert parser.buffered == len(b"HTTP/1.1 2")


def test_body_may_contain_header_terminators():
    body = b"\r\n\r\nHTTP/1.1 200 OK\r\n"
    assert ResponseParser().feed(_response(body)) == [(200, body)]


def test_header_names_are_case_insensitive():
    raw = b"HTTP/1.1 200 OK\r\ncontent-LENGTH:  2\r\n\r\nok"
    assert ResponseParser().feed(raw) == [(200, b"ok")]


@pytest.mark.parametrize(
    "raw",
    [
        b"HTTP/1.1 200 OK\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n",
        b"SPDY 200 OK\r\nContent-Length: 0\r\n\r\n",
        b"HTTP/1.1 abc OK\r\nContent-Length: 0\r\n\r\n",
    ],
)
def test_rejects_unframeable_responses(raw):
    with pytest.raises(ProtocolError):
        ResponseParser().feed(raw)


class _Echo(socketserver.StreamRequestHandler):
    """Answers each GET with its target as the body (keep-alive)."""

    def handle(self):
        while True:
            line = self.rfile.readline()
            if not line:
                return
            target = line.split(b" ")[1]
            while self.rfile.readline() not in (b"\r\n", b""):
                pass
            self.wfile.write(_response(target))


@pytest.fixture
def server():
    srv = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _Echo)
    srv.daemon_threads = True
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv.server_address
    srv.shutdown()
    srv.server_close()


def test_client_pipelines_a_schedule_and_times_from_due(server):
    client = Client(server[0], server[1], 2)
    try:
        done = []
        t0 = time.perf_counter() + 0.02
        requests = [
            Request(f"/r{i}", t0 + i * 0.002, i, done.append) for i in range(50)
        ]
        for request in requests:
            client.schedule(request.tag % 2, request)
        assert client.run(lambda: len(done) == 50, t0 + 10.0)
        for request in requests:
            assert request.status == 200
            assert request.body == f"/r{request.tag}".encode()
            assert request.sent >= request.due
            assert request.latency >= request.rtt >= 0
        assert client.get(0, "/again").body == b"/again"
    finally:
        client.close()
