"""Shard-side transport: pooled keep-alive clients, replica health.

Three layers, bottom up:

- :class:`ShardClient` — a raw-socket HTTP/1.1 GET client to one shard
  replica with a small keep-alive connection pool (the coordinator's
  fan-out makes several concurrent requests to the same replica) and a
  dial *blackout*: after a failed dial the replica is considered dark
  for a jittered-backoff window and requests fail fast instead of each
  paying a connect timeout.
- :class:`ReplicaSet` — the replicas serving one shard range: healthy
  rotation, ejection after consecutive failures, readmission, and
  per-replica latency accounting for ``/stats``.
- :class:`HealthChecker` — one background thread probing every replica's
  ``/healthz`` and comparing its ``snapshot_hash`` against the active
  routing generation, so a replica that crashed through a hot reload is
  not readmitted while it still serves the old snapshot.

:func:`request_with_failover` is the coordinator's only read path: try
the next healthy replica, *hedge* to a second one when the first is
slow, fail over sequentially on errors, and treat a ``503`` (shard
shedding load) as retry-elsewhere-but-don't-eject.

Work leaves the calling thread only to be hedged.  The first try (and
a failover after every earlier try failed) is sent from the caller,
which then waits up to the hedge delay for the reply to start
(:class:`Exchange` splits a round trip into send and read for this).
A reply that starts in time is read inline; a slower exchange is
handed, still in flight, to the replica pool, and the hedge and any
later tries run there too.
"""

from __future__ import annotations

import functools
import json
import select
import socket
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Executor, wait
from typing import Callable
from urllib.parse import urlsplit

from repro.errors import ServeError
from repro.obs.metrics import MetricsRegistry
from repro.serve.retry import BackoffPolicy
from repro.serve.server import TRACE_HEADER


class ShardUnavailable(ServeError):
    """A replica (or a whole replica set) could not answer."""


class ShardShedding(ShardUnavailable):
    """A replica answered 503: alive, but shedding load."""

    def __init__(self, message: str, body: bytes) -> None:
        super().__init__(message)
        self.body = body


class ShardClient:
    """Pooled keep-alive HTTP GET client for one shard replica."""

    def __init__(
        self,
        url: str,
        timeout_s: float = 5.0,
        backoff: BackoffPolicy | None = None,
        max_idle: int = 8,
    ) -> None:
        parts = urlsplit(url)
        if not parts.hostname or not parts.port:
            raise ServeError(f"shard url needs host and port, got {url!r}")
        self.url = url.rstrip("/")
        self.host = parts.hostname
        self.port = int(parts.port)
        self.timeout_s = timeout_s
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self._max_idle = max_idle
        self._idle: list[tuple[socket.socket, object]] = []
        self._lock = threading.Lock()
        self._dial_failures = 0
        self._blackout_until = 0.0

    # -- connection pool -----------------------------------------------------

    def _dial(self, timeout_s: float) -> tuple[socket.socket, object]:
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=timeout_s
            )
        except OSError as exc:
            with self._lock:
                delay = self.backoff.delay_s(min(self._dial_failures, 6))
                self._dial_failures += 1
                self._blackout_until = time.monotonic() + delay
            raise ShardUnavailable(
                f"cannot reach {self.url}: {exc}"
            ) from exc
        with self._lock:
            self._dial_failures = 0
            self._blackout_until = 0.0
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock, sock.makefile("rb")

    def _checkout(
        self, timeout_s: float, bypass_blackout: bool
    ) -> tuple[tuple[socket.socket, object], bool]:
        """An idle pooled connection, or a fresh dial.

        Returns ``(connection, reused)``; during a dial blackout a
        non-bypassing caller fails immediately so failover moves on
        without paying a connect timeout per request.
        """
        with self._lock:
            if self._idle:
                return self._idle.pop(), True
            blackout = time.monotonic() < self._blackout_until
        if blackout and not bypass_blackout:
            raise ShardUnavailable(
                f"{self.url} is in dial blackout after failed connects"
            )
        return self._dial(timeout_s), False

    def _checkin(self, conn: tuple[socket.socket, object]) -> None:
        with self._lock:
            if len(self._idle) < self._max_idle:
                self._idle.append(conn)
                return
        self._close(conn)

    @staticmethod
    def _close(conn: tuple[socket.socket, object]) -> None:
        sock, rfile = conn
        try:
            rfile.close()  # type: ignore[attr-defined]
        except OSError:
            pass
        try:
            sock.close()
        except OSError:
            pass

    def close(self) -> None:
        """Drop every pooled connection."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            self._close(conn)

    # -- requests ------------------------------------------------------------

    def get(
        self,
        target: str,
        trace_id: str = "",
        timeout_s: float | None = None,
        bypass_blackout: bool = False,
        wait_s: float | None = None,
    ) -> tuple[int, bytes] | Exchange:
        """One GET round trip; returns ``(status, body)``.

        With ``wait_s``, a reply that has not started within that long
        is left in flight: the :class:`Exchange` is returned instead,
        and its :meth:`~Exchange.finish` completes the round trip on
        whichever thread calls it.

        Raises:
            ShardUnavailable: when the replica cannot be reached or the
                connection breaks mid-exchange.
        """
        timeout = self.timeout_s if timeout_s is None else timeout_s
        exchange = Exchange(self, target, trace_id, timeout, bypass_blackout)
        if wait_s is not None and not exchange.started(wait_s):
            return exchange
        return exchange.finish()

    def probe(self, timeout_s: float = 1.0) -> dict | None:
        """``/healthz`` payload, or None when unreachable.

        Bypasses the dial blackout — the health checker is exactly the
        caller that must notice a replica coming back.
        """
        try:
            status, body = self.get(
                "/healthz", timeout_s=timeout_s, bypass_blackout=True
            )
            if status != 200:
                return None
            return json.loads(body)
        except (ShardUnavailable, json.JSONDecodeError):
            return None


class Exchange:
    """One GET to one replica, sent on construction and read by
    :meth:`finish` — on the sending thread or on another one.

    A failure on a *reused* pooled connection is retried once on a
    fresh checkout: the ordinary keep-alive race where the server closed
    an idle connection between our requests.
    """

    def __init__(
        self,
        client: ShardClient,
        target: str,
        trace_id: str,
        timeout_s: float,
        bypass_blackout: bool,
    ) -> None:
        self._client = client
        self._timeout_s = timeout_s
        self._bypass_blackout = bypass_blackout
        head = f"GET {target} HTTP/1.1\r\nHost: {client.host}:{client.port}\r\n"
        if trace_id:
            head += f"{TRACE_HEADER}: {trace_id}\r\n"
        self._request = (head + "\r\n").encode("latin-1")
        self._conn, self._reused = client._checkout(timeout_s, bypass_blackout)
        self._send()

    def _send(self) -> None:
        sock = self._conn[0]
        try:
            sock.settimeout(self._timeout_s)
            sock.sendall(self._request)
        except OSError as exc:
            self._fail(exc)

    def _fail(self, exc: OSError) -> None:
        """Drop the broken connection; resend on another if it was reused."""
        self._client._close(self._conn)
        if not self._reused:
            raise ShardUnavailable(
                f"request to {self._client.url} failed: {exc}"
            ) from exc
        self._conn, _ = self._client._checkout(
            self._timeout_s, self._bypass_blackout
        )
        self._reused = False
        self._send()

    def started(self, wait_s: float) -> bool:
        """Whether the reply starts arriving within ``wait_s``.

        A reused connection the server has closed reads as end-of-file;
        it is replaced (and the request resent) within the same wait.
        """
        deadline = time.monotonic() + wait_s
        while True:
            sock = self._conn[0]
            poller = select.poll()  # unlike select(), no fd-number limit
            poller.register(sock, select.POLLIN)
            if not poller.poll(max(0.0, deadline - time.monotonic()) * 1e3):
                return False
            if not self._reused:
                return True
            try:
                if sock.recv(1, socket.MSG_PEEK):
                    return True
                closed: OSError = ConnectionError(
                    "connection closed before response"
                )
            except OSError as exc:
                closed = exc
            self._fail(closed)

    def finish(self) -> tuple[int, bytes]:
        """Read the reply; pool the connection when it stays open.

        Raises:
            ShardUnavailable: when the connection breaks mid-exchange.
        """
        while True:
            try:
                status, body, keep = self._read()
                break
            except OSError as exc:
                self._fail(exc)  # raises unless a reused connection failed
        if keep:
            self._client._checkin(self._conn)
        else:
            self._client._close(self._conn)
        return status, body

    def _read(self) -> tuple[int, bytes, bool]:
        rfile = self._conn[1]
        status_line = rfile.readline(8192)  # type: ignore[attr-defined]
        if not status_line:
            raise ConnectionError("connection closed before response")
        try:
            status = int(status_line.split(maxsplit=2)[1])
        except (IndexError, ValueError):
            raise ConnectionError(
                f"malformed status line {status_line!r}"
            ) from None
        length = 0
        keep = True
        while True:
            header = rfile.readline(8192)  # type: ignore[attr-defined]
            if header in (b"\r\n", b"\n", b""):
                break
            lowered = header.decode("latin-1").strip().lower()
            if lowered.startswith("content-length:"):
                length = int(lowered.partition(":")[2].strip())
            elif lowered.startswith("connection:"):
                keep = "close" not in lowered
        body = rfile.read(length)  # type: ignore[attr-defined]
        if len(body) != length:
            raise ConnectionError("connection closed mid-body")
        return status, body, keep


class ReplicaSet:
    """The replicas serving one shard range, with health bookkeeping."""

    def __init__(
        self, clients: list[ShardClient], eject_after: int = 3
    ) -> None:
        if not clients:
            raise ServeError("a replica set needs at least one client")
        self.clients = clients
        self.eject_after = eject_after
        self._lock = threading.Lock()
        self._healthy = [True] * len(clients)
        self._consecutive = [0] * len(clients)
        self._requests = [0] * len(clients)
        self._ewma_ms = [0.0] * len(clients)
        self._rr = 0

    def candidates(self) -> list[tuple[int, ShardClient]]:
        """Replicas to try, healthy first, round-robin rotated.

        Unhealthy replicas are appended last instead of dropped: when
        every replica is ejected, trying a dead one (fast, thanks to
        the dial blackout) beats refusing outright.
        """
        with self._lock:
            self._rr += 1
            offset = self._rr
            healthy = [i for i, ok in enumerate(self._healthy) if ok]
            dark = [i for i, ok in enumerate(self._healthy) if not ok]
        if healthy:
            pivot = offset % len(healthy)
            healthy = healthy[pivot:] + healthy[:pivot]
        return [(i, self.clients[i]) for i in healthy + dark]

    def record_success(self, idx: int, latency_ms: float) -> None:
        """A replica answered: reset failures, readmit, note latency."""
        with self._lock:
            self._consecutive[idx] = 0
            self._healthy[idx] = True
            self._requests[idx] += 1
            prior = self._ewma_ms[idx]
            self._ewma_ms[idx] = (
                latency_ms if prior == 0.0 else 0.8 * prior + 0.2 * latency_ms
            )

    def record_failure(self, idx: int) -> None:
        """A replica failed; ejected after ``eject_after`` consecutive."""
        with self._lock:
            self._consecutive[idx] += 1
            if self._consecutive[idx] >= self.eject_after:
                self._healthy[idx] = False

    def record_probe(self, idx: int, ok: bool) -> None:
        """A health-check outcome: flips health without touching the
        request or latency accounting (probes are not traffic)."""
        with self._lock:
            if ok:
                self._consecutive[idx] = 0
                self._healthy[idx] = True
            else:
                self._consecutive[idx] += 1
                if self._consecutive[idx] >= self.eject_after:
                    self._healthy[idx] = False

    def is_healthy(self, idx: int) -> bool:
        with self._lock:
            return self._healthy[idx]

    @property
    def n_healthy(self) -> int:
        with self._lock:
            return sum(self._healthy)

    def snapshot(self) -> list[dict]:
        """JSON-ready per-replica health/latency rows for ``/stats``."""
        with self._lock:
            return [
                {
                    "url": client.url,
                    "healthy": self._healthy[i],
                    "consecutive_failures": self._consecutive[i],
                    "requests": self._requests[i],
                    "ewma_latency_ms": round(self._ewma_ms[i], 3),
                }
                for i, client in enumerate(self.clients)
            ]

    def close(self) -> None:
        for client in self.clients:
            client.close()


def _try_replica(
    rset: ReplicaSet,
    idx: int,
    client: ShardClient,
    attempt: Callable[[], tuple[int, bytes] | Exchange],
    start: float | None = None,
) -> tuple[int, bytes] | Exchange:
    """``attempt()``, one try against replica ``idx``, accounted on ``rset``.

    A ``503`` (alive but shedding) is raised as :class:`ShardShedding`:
    retry elsewhere, never eject for load.  An :class:`Exchange` still
    in flight is returned unaccounted; finishing it through here with
    the same ``start`` accounts it.
    """
    start = time.perf_counter() if start is None else start
    try:
        reply = attempt()
    except ShardUnavailable:
        rset.record_failure(idx)
        raise
    if isinstance(reply, Exchange):
        return reply
    rset.record_success(idx, (time.perf_counter() - start) * 1e3)
    status, body = reply
    if status == 503:
        raise ShardShedding(f"{client.url} is shedding load", body)
    return reply


def request_with_failover(
    rset: ReplicaSet,
    target: str,
    *,
    executor: Executor,
    trace_id: str = "",
    timeout_s: float | None = None,
    hedge_delay_s: float = 0.05,
    metrics: MetricsRegistry | None = None,
) -> tuple[int, bytes]:
    """One logical GET against a replica set.

    Tries the candidates in order, hedging to the next after
    ``hedge_delay_s`` without an answer and failing over on errors
    until a replica responds.  The first completed response wins; late
    duplicates are discarded harmlessly.

    A try made while no other is in flight — the first, or a failover
    after every earlier try failed — runs on the calling thread.  Only
    a reply that has not started within ``hedge_delay_s`` is handed to
    ``executor`` (so it can be hedged), and only tries made while one
    is in flight run there from the start.

    Raises:
        ShardUnavailable: when every replica failed (or, with
            :class:`ShardShedding`, when every replica shed — the
            caller relays that 503 body to its own client).
    """
    candidates = iter(rset.candidates())
    nxt = next(candidates, None)
    pending: set = set()
    errors: list[BaseException] = []
    shed: ShardShedding | None = None
    launched = 0
    while True:
        if nxt is not None:
            (idx, client), nxt = nxt, next(candidates, None)
            launched += 1
            if launched > 1 and metrics is not None:
                kind = "hedges" if not errors and shed is None else "failovers"
                metrics.counter(f"coord.{kind}").add(1)
            ask = functools.partial(
                client.get, target, trace_id, timeout_s=timeout_s
            )
            if not pending:
                start = time.perf_counter()
                wait_s = None if nxt is None else hedge_delay_s
                try:
                    reply = _try_replica(
                        rset, idx, client,
                        functools.partial(ask, wait_s=wait_s), start,
                    )
                except ShardShedding as exc:
                    shed = exc
                    continue
                except ShardUnavailable as exc:
                    errors.append(exc)
                    continue
                if not isinstance(reply, Exchange):
                    return reply
                # Slow to start: finish it elsewhere and hedge now.
                pending.add(
                    executor.submit(
                        _try_replica, rset, idx, client, reply.finish, start
                    )
                )
                continue
            pending.add(executor.submit(_try_replica, rset, idx, client, ask))
        elif not pending:
            if shed is not None:
                raise shed
            detail = "; ".join(str(e) for e in errors) or "no replicas"
            raise ShardUnavailable(f"shard range unavailable: {detail}")
        done, pending = wait(
            pending,
            timeout=hedge_delay_s if nxt is not None else None,
            return_when=FIRST_COMPLETED,
        )
        for future in done:
            try:
                return future.result()
            except ShardShedding as exc:
                shed = exc
            except ShardUnavailable as exc:
                errors.append(exc)


class HealthChecker(threading.Thread):
    """Background probe loop: ejects dead replicas, readmits live ones.

    ``routing_fn`` returns the *current* routing object each cycle, so
    a hot snapshot swap is picked up without restarting the thread.  A
    replica is counted healthy only when its ``/healthz`` answers *and*
    reports the routing generation's ``snapshot_hash`` — a replica that
    was down through a reload keeps serving the old snapshot and must
    stay ejected until the next reload re-stages it.
    """

    def __init__(
        self,
        routing_fn,
        interval_s: float = 0.5,
        probe_timeout_s: float = 1.0,
    ) -> None:
        super().__init__(name="cluster-health", daemon=True)
        self._routing_fn = routing_fn
        self._interval_s = interval_s
        self._probe_timeout_s = probe_timeout_s
        self._stop_event = threading.Event()

    def run(self) -> None:
        while not self._stop_event.wait(self._interval_s):
            routing = self._routing_fn()
            if routing is None:
                continue
            for rset in routing.replica_sets:
                for idx, client in enumerate(rset.clients):
                    payload = client.probe(self._probe_timeout_s)
                    ok = payload is not None and payload.get(
                        "snapshot_hash"
                    ) == routing.snapshot_hash
                    rset.record_probe(idx, ok)
                    if self._stop_event.is_set():
                        return

    def stop(self) -> None:
        self._stop_event.set()
        self.join(timeout=5.0)
