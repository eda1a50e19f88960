"""Micro-batching of concurrent point lookups, run by the callers.

Every ``/locate`` cache miss lands here, and the batcher has no thread
of its own: it is a *group commit*.  A request that finds no flush
running flushes its own key on its own thread, so a lone miss never
leaves the calling thread.  Requests that arrive while a flush
computes wait in :meth:`MicroBatcher.submit`; when that flush ends, one
of them leads the next flush, taking everything pending (up to
``max_batch``) through a single vectorised compute such as
``SnapshotIndex.locate_many``.  Concurrent misses therefore still
coalesce under load.  Repeated addresses within one flush are computed
once (the batch is deduplicated before compute) and every waiter for
the same address receives that one result.

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
        self._flushing = False
        self._closed = False
        self.flushes = 0
        self.requests = 0
        self.computed_keys = 0
        self._flushed_requests = 0

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting for a flush."""
        with self._cond:
            return len(self._pending)

    def submit(self, key: int) -> "Future[Any]":
        """Look one key up; returns its future, already resolved.

        Flushes on the calling thread when no flush is running;
        otherwise waits for the running one to end and then either finds
        its key answered by a flush another request led, or leads the
        next flush itself.  A failed compute resolves the future with
        its exception.

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
            batch = self._next_batch(future)
        while batch:
            try:
                self._flush(batch)
            finally:
                with self._cond:
                    self._flushing = False
                    self._cond.notify_all()
            with self._cond:
                batch = self._next_batch(future)
        return future

    def close(self) -> None:
        """Refuse new submissions; those already queued still complete."""
        with self._cond:
            self._closed = True

    def stats(self) -> dict:
        """JSON-ready batching counters.

        ``dedup_saved`` and ``mean_batch`` count only requests whose
        flush finished: not the queued, not the batch being computed,
        and not a batch whose compute raised.
        """
        with self._cond:
            requests, flushes = self.requests, self.flushes
            computed, depth = self.computed_keys, len(self._pending)
            flushed = self._flushed_requests
        return {
            "requests": requests,
            "flushes": flushes,
            "computed_keys": computed,
            "dedup_saved": flushed - computed,
            "queue_depth": depth,
            "mean_batch": (flushed / flushes) if flushes else 0.0,
        }

    def _next_batch(self, future: Future) -> list[tuple[int, Future]]:
        """Under the lock: wait out a running flush, then take the next
        batch to lead, or nothing once ``future`` is resolved."""
        while self._flushing and not future.done():
            self._cond.wait()
        if future.done():
            return []
        self._flushing = True
        batch = self._pending[: self._max_batch]
        del self._pending[: self._max_batch]
        return batch

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
            self._flushed_requests += len(batch)
        for key, future in batch:
            if future.set_running_or_notify_cancel():
                future.set_result(results[position[key]])
