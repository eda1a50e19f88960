"""Tests for hedging and failover in ``request_with_failover``.

Each replica is a stub HTTP server on a raw socket whose behaviour is
scripted per request (answer, stall, shed, break), so the tests pin the
read path's contract without a snapshot or shard process: a slow first
replica is hedged and the first answer wins; a refused or broken one
fails over; a fleet that sheds relays the 503 body; and a keep-alive
connection the server closed is retried once on a fresh dial.  A
second class pins which tries run on the calling thread: all of them,
unless a reply is slow to start.
"""

from __future__ import annotations

import socket
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cluster.client import (
    ReplicaSet,
    ShardClient,
    ShardShedding,
    ShardUnavailable,
    request_with_failover,
)
from repro.obs.metrics import MetricsRegistry

SHED_BODY = b'{"error":"shedding load","retry_after_s":0.05}'


def _response(status: int, body: bytes, close: bool = False) -> bytes:
    head = f"HTTP/1.1 {status} X\r\nContent-Length: {len(body)}\r\n"
    if close:
        head += "Connection: close\r\n"
    return (head + "\r\n").encode("latin-1") + body


def _stalling(release: threading.Event):
    """A stub behaviour that answers ``slow`` once ``release`` is set."""

    def behave(_stub):
        release.wait(timeout=5.0)
        return _response(200, b"slow")

    return behave


class _Stub:
    """A replica on a raw listening socket.

    ``behave(stub)`` runs once per request and returns the bytes to
    send back, or None to close the connection without answering.
    With ``close_after_reply`` the stub closes every connection right
    after answering, as a server dropping an idle keep-alive would.
    """

    def __init__(self, behave, close_after_reply: bool = False) -> None:
        self._behave = behave
        self._close_after_reply = close_after_reply
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)
        self.url = f"http://127.0.0.1:{self._listener.getsockname()[1]}"
        self.connections = 0
        self.requests = 0
        self.closed = threading.Event()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._accept, daemon=True)
        self._thread.start()

    def _accept(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            self.connections += 1
            threading.Thread(
                target=self._serve, args=(conn,), daemon=True
            ).start()

    def _serve(self, conn: socket.socket) -> None:
        with conn, conn.makefile("rb") as rfile:
            try:
                self._exchange(conn, rfile)
            except OSError:  # the client hung up first
                pass
        self.closed.set()

    def _exchange(self, conn: socket.socket, rfile) -> None:
        while True:
            line = rfile.readline()
            if not line:
                return
            while line not in (b"\r\n", b"\n", b""):
                line = rfile.readline()
            self.requests += 1
            reply = self._behave(self)
            if reply is None:
                return
            conn.sendall(reply)
            if self._close_after_reply:
                return

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._listener.close()


class _InOrder(ReplicaSet):
    """Replicas tried in list order (the stock set rotates round-robin)."""

    def candidates(self):
        return list(enumerate(self.clients))


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.fixture()
def stubs():
    made: list[_Stub] = []

    def make(behave, **kw) -> _Stub:
        made.append(_Stub(behave, **kw))
        return made[-1]

    yield make
    for stub in made:
        stub.stop()


@pytest.fixture()
def in_order():
    """Make :class:`_InOrder` sets, closed once their pool has drained."""
    made: list[ReplicaSet] = []

    def make(*urls: str) -> ReplicaSet:
        made.append(_InOrder([ShardClient(url) for url in urls]))
        return made[-1]

    yield make
    for rset in made:
        rset.close()


@pytest.fixture()
def pool(in_order):
    with ThreadPoolExecutor(max_workers=4) as executor:
        yield executor


def _ask(rset: ReplicaSet, metrics: MetricsRegistry, pool):
    return request_with_failover(
        rset, "/internal/x", executor=pool, timeout_s=5.0,
        hedge_delay_s=0.05, metrics=metrics,
    )


def _counts(metrics: MetricsRegistry) -> tuple[int, int]:
    return (
        metrics.counter("coord.hedges").value,
        metrics.counter("coord.failovers").value,
    )


class TestRequestWithFailover:
    def test_slow_first_replica_is_hedged_and_first_answer_wins(
        self, stubs, in_order, pool
    ):
        release = threading.Event()
        slow = stubs(_stalling(release))
        fast = stubs(lambda _stub: _response(200, b"fast"))
        rset = in_order(slow.url, fast.url)
        metrics = MetricsRegistry()
        try:
            assert _ask(rset, metrics, pool) == (200, b"fast")
            assert slow.requests == 1 and fast.requests == 1
            assert _counts(metrics) == (1, 0)
        finally:
            release.set()

    def test_refused_first_replica_fails_over(self, stubs, in_order, pool):
        good = stubs(lambda _stub: _response(200, b"ok"))
        rset = in_order(f"http://127.0.0.1:{_free_port()}", good.url)
        metrics = MetricsRegistry()
        assert _ask(rset, metrics, pool) == (200, b"ok")
        assert _counts(metrics) == (0, 1)
        assert rset.snapshot()[0]["consecutive_failures"] == 1

    def test_broken_first_replica_fails_over(self, stubs, in_order, pool):
        broken = stubs(lambda _stub: None)  # closes without answering
        good = stubs(lambda _stub: _response(200, b"ok"))
        rset = in_order(broken.url, good.url)
        metrics = MetricsRegistry()
        assert _ask(rset, metrics, pool) == (200, b"ok")
        assert broken.requests == 1
        assert _counts(metrics) == (0, 1)
        assert rset.snapshot()[0]["consecutive_failures"] == 1

    def test_every_replica_shedding_relays_the_503_body(
        self, stubs, in_order, pool
    ):
        shedding = [
            stubs(lambda _stub: _response(503, SHED_BODY)) for _ in range(2)
        ]
        rset = in_order(*(s.url for s in shedding))
        metrics = MetricsRegistry()
        with pytest.raises(ShardShedding) as info:
            _ask(rset, metrics, pool)
        assert info.value.body == SHED_BODY
        assert [s.requests for s in shedding] == [1, 1]
        assert _counts(metrics) == (0, 1)
        # Shedding is load, not failure: nobody is ejected.
        assert rset.is_healthy(0) and rset.is_healthy(1)

    def test_every_replica_down_raises_unavailable(self, in_order, pool):
        rset = in_order(
            *(f"http://127.0.0.1:{_free_port()}" for _ in range(2))
        )
        with pytest.raises(ShardUnavailable, match="shard range unavailable"):
            _ask(rset, MetricsRegistry(), pool)

    @pytest.mark.parametrize("spares", [0, 1])
    def test_reused_connection_closed_by_server_is_retried_once(
        self, stubs, in_order, pool, spares
    ):
        stub = stubs(
            lambda _stub: _response(200, b"ok"), close_after_reply=True
        )
        spare = [
            stubs(lambda _stub: _response(200, b"spare")) for _ in range(spares)
        ]
        rset = in_order(stub.url, *(s.url for s in spare))
        client = rset.clients[0]
        metrics = MetricsRegistry()
        assert _ask(rset, metrics, pool) == (200, b"ok")
        assert len(client._idle) == 1  # kept for reuse...
        assert stub.closed.wait(timeout=5.0)  # ...but the server hung up
        assert _ask(rset, metrics, pool) == (200, b"ok")
        assert stub.requests == 2 and stub.connections == 2
        assert [s.requests for s in spare] == [0] * spares
        assert _counts(metrics) == (0, 0)
        assert rset.snapshot()[0]["consecutive_failures"] == 0


class _CountingPool(ThreadPoolExecutor):
    """A pool that counts the work handed to it."""

    def __init__(self) -> None:
        super().__init__(max_workers=4)
        self.submitted = 0

    def submit(self, *args, **kwargs):
        self.submitted += 1
        return super().submit(*args, **kwargs)


class TestCallerRunTries:
    """Work reaches the replica pool only when a reply is slow to start."""

    @pytest.fixture()
    def counting(self, in_order):
        with _CountingPool() as executor:
            yield executor

    def test_prompt_answer_is_read_on_the_calling_thread(
        self, stubs, in_order, counting
    ):
        first = stubs(lambda _stub: _response(200, b"first"))
        second = stubs(lambda _stub: _response(200, b"second"))
        rset = in_order(first.url, second.url)
        assert _ask(rset, MetricsRegistry(), counting) == (200, b"first")
        assert counting.submitted == 0 and second.requests == 0

    def test_failover_after_a_refusal_stays_on_the_calling_thread(
        self, stubs, in_order, counting
    ):
        good = stubs(lambda _stub: _response(200, b"ok"))
        rset = in_order(f"http://127.0.0.1:{_free_port()}", good.url)
        metrics = MetricsRegistry()
        assert _ask(rset, metrics, counting) == (200, b"ok")
        assert counting.submitted == 0
        assert _counts(metrics) == (0, 1)

    def test_slow_reply_and_its_hedge_go_to_the_pool(
        self, stubs, in_order, counting
    ):
        release = threading.Event()
        slow = stubs(_stalling(release))
        fast = stubs(lambda _stub: _response(200, b"fast"))
        rset = in_order(slow.url, fast.url)
        try:
            assert _ask(rset, MetricsRegistry(), counting) == (200, b"fast")
            assert counting.submitted == 2  # the slow exchange + the hedge
        finally:
            release.set()
