"""Single-threaded raw-socket HTTP/1.1 load generator.

One process, one thread, at most a few keep-alive connections.  Each
connection pipelines: a request is written when it is due, whether or
not earlier answers on that connection have arrived, so the schedule
is an open loop and a stall shows up as latency of the requests queued
behind it.  Responses are framed by ``Content-Length`` only — the
servers under test always send it and never chunk.

Latency is reported from a request's *due* time (the schedule), not
from when the loop got round to writing it; how late the loop wrote
each request is kept separately as ``lateness``.
"""

from __future__ import annotations

import heapq
import itertools
import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable


class ProtocolError(Exception):
    """A response the framing rules cannot parse."""


class ResponseParser:
    """Incremental HTTP/1.1 response framing by ``Content-Length``."""

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[tuple[int, bytes]]:
        """Append received bytes; return every complete ``(status, body)``.

        Raises:
            ProtocolError: on a malformed status line, a missing or bad
                ``Content-Length``, or chunked transfer encoding.
        """
        self._buf += data
        out: list[tuple[int, bytes]] = []
        while True:
            head_end = self._buf.find(b"\r\n\r\n")
            if head_end < 0:
                return out
            lines = bytes(self._buf[:head_end]).split(b"\r\n")
            parts = lines[0].split(b" ", 2)
            if len(parts) < 2 or not parts[0].startswith(b"HTTP/1."):
                raise ProtocolError(f"bad status line {lines[0][:80]!r}")
            try:
                status = int(parts[1])
            except ValueError:
                raise ProtocolError(f"bad status {parts[1][:20]!r}") from None
            length = None
            for line in lines[1:]:
                name, _, value = line.partition(b":")
                name = name.strip().lower()
                if name == b"content-length":
                    try:
                        length = int(value.strip())
                    except ValueError:
                        raise ProtocolError(
                            f"bad Content-Length {value[:20]!r}"
                        ) from None
                elif name == b"transfer-encoding":
                    raise ProtocolError("chunked responses are not supported")
            if length is None or length < 0:
                raise ProtocolError("response without Content-Length")
            body_start = head_end + 4
            if len(self._buf) < body_start + length:
                return out
            out.append((status, bytes(self._buf[body_start:body_start + length])))
            del self._buf[:body_start + length]

    @property
    def buffered(self) -> int:
        """Bytes received but not yet framed into a response."""
        return len(self._buf)


@dataclass
class Request:
    """One request's schedule, timings and answer."""

    target: str
    due: float
    tag: Any = None
    on_done: Callable[["Request"], None] | None = None
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: bytes = b""

    @property
    def latency(self) -> float:
        """Seconds from the due time to the complete answer."""
        return self.done - self.due

    @property
    def rtt(self) -> float:
        """Seconds from the write to the complete answer."""
        return self.done - self.sent

    @property
    def lateness(self) -> float:
        """Seconds the loop wrote the request after it was due."""
        return self.sent - self.due


class Connection:
    """One pipelined keep-alive connection (non-blocking socket)."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.sock = socket.create_connection((host, port), timeout=5.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.parser = ResponseParser()
        self.outstanding: deque[Request] = deque()
        self._out = bytearray()
        self.broken = False

    def write(self, request: Request) -> None:
        self._out += (
            f"GET {request.target} HTTP/1.1\r\nHost: {self.host}\r\n\r\n"
        ).encode("latin-1")
        self.outstanding.append(request)
        self.flush()

    def flush(self) -> None:
        while self._out:
            try:
                sent = self.sock.send(self._out)
            except BlockingIOError:
                return
            except OSError:
                self.broken = True
                self._out.clear()
                return
            del self._out[:sent]

    @property
    def wants_write(self) -> bool:
        return bool(self._out)

    def read(self, now: float) -> list[Request]:
        """Drain the socket; return the requests whose answers completed."""
        finished: list[Request] = []
        while True:
            try:
                data = self.sock.recv(262144)
            except BlockingIOError:
                break
            except OSError:
                data = b""
            if not data:
                self.broken = True
                break
            for status, body in self.parser.feed(data):
                if not self.outstanding:
                    raise ProtocolError("response without a request")
                request = self.outstanding.popleft()
                request.status, request.body, request.done = status, body, now
                finished.append(request)
        if not self.broken:
            # ACK at once.  The servers under test leave Nagle on, so a
            # response written while an earlier one is unacknowledged
            # waits for this side's delayed ACK — or for the next request
            # on the connection, which ties latency to the send schedule.
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
        return finished

    def close(self) -> None:
        self.sock.close()


class Client:
    """Event loop over a few connections plus a timer heap."""

    def __init__(self, host: str, port: int, n_connections: int) -> None:
        self.conns = [Connection(host, port) for _ in range(n_connections)]
        # select(2) takes a microsecond timeout; epoll rounds up to whole
        # milliseconds, which would make every send up to 1 ms late.
        self._sel = selectors.SelectSelector()
        for conn in self.conns:
            self._sel.register(conn.sock, selectors.EVENT_READ, conn)
        self._timers: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self.sent = 0

    def call_at(self, when: float, fn: Callable[[], None]) -> None:
        heapq.heappush(self._timers, (when, next(self._seq), fn))

    def send(self, conn_idx: int, request: Request) -> None:
        """Write ``request`` now (stamping its send time)."""
        conn = self.conns[conn_idx]
        request.sent = time.perf_counter()
        if conn.broken:
            self._fail(request, request.sent)
            return
        conn.write(request)
        self.sent += 1
        if conn.wants_write:
            self._sel.modify(
                conn.sock, selectors.EVENT_READ | selectors.EVENT_WRITE, conn
            )

    def schedule(self, conn_idx: int, request: Request) -> None:
        """Send ``request`` at its due time."""
        self.call_at(request.due, lambda: self.send(conn_idx, request))

    def run(self, until: Callable[[], bool], deadline: float) -> bool:
        """Serve timers and sockets until ``until()`` or the deadline.

        Returns True when ``until()`` became true, False on deadline.
        """
        while True:
            now = time.perf_counter()
            while self._timers and self._timers[0][0] <= now:
                _, _, fn = heapq.heappop(self._timers)
                fn()
                now = time.perf_counter()
            if until():
                return True
            if now >= deadline:
                return False
            timeout = deadline - now
            if self._timers:
                timeout = min(timeout, self._timers[0][0] - now)
            for key, mask in self._sel.select(max(0.0, min(timeout, 0.05))):
                conn: Connection = key.data
                if mask & selectors.EVENT_WRITE:
                    conn.flush()
                    if not conn.wants_write:
                        self._sel.modify(conn.sock, selectors.EVENT_READ, conn)
                if mask & selectors.EVENT_READ:
                    done_at = time.perf_counter()
                    for request in conn.read(done_at):
                        if request.on_done is not None:
                            request.on_done(request)
                    if conn.broken:
                        self._sel.unregister(conn.sock)
                        while conn.outstanding:
                            self._fail(conn.outstanding.popleft(), done_at)

    def _fail(self, request: Request, now: float) -> None:
        request.status, request.done = 0, now
        if request.on_done is not None:
            request.on_done(request)

    def get(self, conn_idx: int, target: str, timeout_s: float = 60.0) -> Request:
        """One blocking request on an idle connection (set-up and checks)."""
        now = time.perf_counter()
        request = Request(target, due=now)
        self.send(conn_idx, request)
        self.run(lambda: request.done > 0, now + timeout_s)
        return request

    def close(self) -> None:
        for conn in self.conns:
            try:
                self._sel.unregister(conn.sock)
            except (KeyError, ValueError):
                pass
            conn.close()
        self._sel.close()
