"""Micro-batching of concurrent point lookups.

Every ``/locate`` cache miss lands here: request threads enqueue an
address and block on a future; one flusher thread drains the queue and
resolves each batch through a single vectorised
``SnapshotIndex.locate_many`` call.  The flusher flushes when idle: it
takes whatever is pending (up to ``max_batch``) the moment it wakes, so
a lone miss waits for no one, and requests that arrive while a flush
computes form the next batch, so concurrent misses still coalesce under
load.  Repeated addresses within one flush are computed once (the batch
is deduplicated before compute) and every waiter for the same address
receives that one result.

The pending queue is bounded: when it is full, :meth:`submit` raises
:class:`OverloadError` immediately rather than queueing without bound —
the server turns that into ``503 Retry-After`` (shed load, never
collapse).
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import Any, Callable, Sequence

from repro.errors import OverloadError, ServeError


class MicroBatcher:
    """Coalesces concurrent single-key lookups into vectorised batches."""

    def __init__(
        self,
        compute: Callable[[Sequence[int]], list[Any]],
        *,
        max_batch: int = 512,
        max_pending: int = 4096,
    ) -> None:
        """Args:
        compute: batch function; receives **deduplicated** keys and
            must return one result per key, in order.
        max_batch: most requests one flush takes; the rest wait for
            the next flush.
        max_pending: bound on queued requests; beyond it
            :meth:`submit` sheds with :class:`OverloadError`.
        """
        if max_batch < 1 or max_pending < 1:
            raise ServeError("invalid micro-batcher configuration")
        self._compute = compute
        self._max_batch = max_batch
        self._max_pending = max_pending
        self._pending: list[tuple[int, Future]] = []
        self._cond = threading.Condition()
        self._closed = False
        self.flushes = 0
        self.requests = 0
        self.computed_keys = 0
        self._worker = threading.Thread(
            target=self._run, name="serve-batcher", daemon=True
        )
        self._worker.start()

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting for a flush."""
        with self._cond:
            return len(self._pending)

    def submit(self, key: int) -> "Future[Any]":
        """Enqueue one key; the future resolves when its flush computes.

        Raises:
            OverloadError: when the pending queue is full.
            ServeError: when the batcher has been closed.
        """
        future: Future[Any] = Future()
        with self._cond:
            if self._closed:
                raise ServeError("micro-batcher is closed")
            if len(self._pending) >= self._max_pending:
                raise OverloadError(
                    f"lookup queue full ({self._max_pending} pending)"
                )
            self._pending.append((key, future))
            self.requests += 1
            self._cond.notify()
        return future

    def close(self) -> None:
        """Stop the flusher after draining whatever is queued."""
        with self._cond:
            self._closed = True
            self._cond.notify()
        self._worker.join(timeout=5.0)

    def stats(self) -> dict:
        """JSON-ready batching counters."""
        with self._cond:
            requests, flushes = self.requests, self.flushes
            computed, depth = self.computed_keys, len(self._pending)
        return {
            "requests": requests,
            "flushes": flushes,
            "computed_keys": computed,
            "dedup_saved": requests - computed - depth,
            "queue_depth": depth,
            "mean_batch": (requests / flushes) if flushes else 0.0,
        }

    # -- flusher loop --------------------------------------------------------

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._closed:
                    self._cond.wait()
                if not self._pending:  # closed and drained
                    return
                batch = self._pending[: self._max_batch]
                del self._pending[: self._max_batch]
            self._flush(batch)

    def _flush(self, batch: list[tuple[int, Future]]) -> None:
        unique: list[int] = []
        position: dict[int, int] = {}
        for key, _ in batch:
            if key not in position:
                position[key] = len(unique)
                unique.append(key)
        try:
            results = self._compute(unique)
            if len(results) != len(unique):
                raise ServeError(
                    f"batch compute returned {len(results)} results "
                    f"for {len(unique)} keys"
                )
        except BaseException as exc:  # propagate to every waiter
            for _, future in batch:
                if future.set_running_or_notify_cancel():
                    future.set_exception(exc)
            return
        with self._cond:
            self.flushes += 1
            self.computed_keys += len(unique)
        for key, future in batch:
            if future.set_running_or_notify_cancel():
                future.set_result(results[position[key]])
