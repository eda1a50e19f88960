"""Seeded request streams.  The same seed always gives the same inputs.

``locate_mix`` interleaves two single-address streams over one
snapshot:

- a *hot* set, visited round-robin in a seeded order, small enough
  that the coordinator's LRU response cache keeps every hot answer
  once each has been asked for — so every timed hot request is a hit;
- a *cold* scan over a seeded permutation of every other address,
  never repeating within a run and far longer than the cache — so
  every timed cold request is a miss.

:func:`lru_outcomes` replays a stream through a model LRU of the
coordinator's capacity; the benchmark checks it before sending and the
coordinator's own hit/miss counters afterwards.

``ingest_flip`` reads are batches of Zipf-popular addresses drawn from
both halves of the sorted address space, so every batch spans both
shard ranges of the default two-range cluster.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

#: The coordinator's response-cache capacity (its constructor default).
CACHE_CAPACITY = 8192
#: Hot-set size: a small fraction of the cache, so cold inserts between
#: two visits of one hot key can never push it out.
HOT_SET = 512
#: Share of timed locate requests that target the hot set.
HOT_SHARE = 0.5
#: Cold requests sent during warm-up (taken from the end of the scan).
COLD_WARMUP = 200


@dataclass
class LocateStream:
    """The warm-up and timed requests of one ``locate_mix`` run."""

    warmup: list[tuple[bool, int]]
    timed: list[tuple[bool, int]]
    n_cold_cycle: int

    @property
    def hot_set(self) -> set[int]:
        return {a for hot, a in self.warmup if hot}


def locate_stream(
    addresses: np.ndarray, seed: int, n_timed: int
) -> LocateStream:
    """Build the ``(is_hot, address)`` sequences for one run.

    Raises:
        ValueError: when the snapshot is too small for the hot set plus
            a cold scan that never wraps within the run.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    pool = np.unique(np.asarray(addresses, dtype=np.int64))
    picks = rng.permutation(pool.size)
    hot = [int(a) for a in pool[picks[:HOT_SET]]]
    cold = [int(a) for a in pool[picks[HOT_SET:]]]
    is_hot = rng.random(n_timed) < HOT_SHARE
    n_hot = int(is_hot.sum())
    if len(cold) < (n_timed - n_hot) + COLD_WARMUP:
        raise ValueError("snapshot too small: the cold scan would repeat")
    warmup = [(True, a) for a in hot]
    warmup += [(False, a) for a in cold[-COLD_WARMUP:]]
    timed: list[tuple[bool, int]] = []
    h = c = 0
    for flag in is_hot:
        if flag:
            timed.append((True, hot[h % HOT_SET]))
            h += 1
        else:
            timed.append((False, cold[c]))
            c += 1
    return LocateStream(warmup, timed, len(cold))


def lru_outcomes(
    stream: list[tuple[bool, int]], capacity: int = CACHE_CAPACITY
) -> list[bool]:
    """Hit (True) or miss for each request through a model LRU cache."""
    cache: OrderedDict[int, None] = OrderedDict()
    hits = []
    for _, address in stream:
        if address in cache:
            cache.move_to_end(address)
            hits.append(True)
        else:
            cache[address] = None
            if len(cache) > capacity:
                cache.popitem(last=False)
            hits.append(False)
    return hits


class ReadBatches:
    """Seeded batches of Zipf-popular addresses spanning both halves."""

    def __init__(
        self, addresses: np.ndarray, seed: int, size: int = 32, zipf_s: float = 0.9
    ) -> None:
        self._rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
        pool = np.unique(np.asarray(addresses, dtype=np.int64))
        half = pool.size // 2
        self._halves = [
            self._rng.permutation(pool[:half]),
            self._rng.permutation(pool[half:]),
        ]
        self._size = size
        self._cdfs = []
        for part in self._halves:
            weights = 1.0 / np.arange(1, part.size + 1) ** zipf_s
            self._cdfs.append(np.cumsum(weights) / weights.sum())

    def next(self) -> list[int]:
        out: list[int] = []
        per_half = self._size // 2
        for part, cdf in zip(self._halves, self._cdfs):
            ranks = np.searchsorted(cdf, self._rng.random(per_half), side="right")
            out.extend(int(a) for a in part[np.minimum(ranks, part.size - 1)])
        order = self._rng.permutation(len(out))
        return [out[i] for i in order]
