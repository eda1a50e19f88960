"""Invariants of the seeded request streams."""

import numpy as np

import streams


def _addresses(n=20000, seed=0):
    rng = np.random.default_rng(seed)
    return rng.choice(np.arange(10**6, 10**6 + 10 * n), size=n, replace=False)


def test_hot_set_fits_the_cache_and_every_timed_hot_request_hits():
    stream = streams.locate_stream(_addresses(), seed=5, n_timed=6000)
    assert len(stream.hot_set) == streams.HOT_SET < streams.CACHE_CAPACITY
    model = streams.lru_outcomes(stream.warmup + stream.timed)
    timed = model[len(stream.warmup):]
    assert timed == [hot for hot, _ in stream.timed]
    assert any(timed) and not all(timed)


def test_cold_scan_is_longer_than_the_cache_and_never_repeats():
    stream = streams.locate_stream(_addresses(), seed=5, n_timed=6000)
    assert stream.n_cold_cycle > 2 * streams.CACHE_CAPACITY
    cold = [a for hot, a in stream.warmup + stream.timed if not hot]
    assert len(cold) == len(set(cold))
    assert not set(cold) & stream.hot_set


def test_same_seed_same_stream_and_other_seed_other_stream():
    addresses = _addresses()
    a = streams.locate_stream(addresses, seed=9, n_timed=500)
    b = streams.locate_stream(addresses, seed=9, n_timed=500)
    c = streams.locate_stream(addresses, seed=10, n_timed=500)
    assert (a.warmup, a.timed) == (b.warmup, b.timed)
    assert a.timed != c.timed


def test_a_snapshot_too_small_for_the_run_is_refused():
    try:
        streams.locate_stream(_addresses(n=1000), seed=1, n_timed=5000)
    except ValueError:
        return
    raise AssertionError("expected ValueError")


def test_read_batches_span_both_halves_and_repeat_by_seed():
    addresses = _addresses()
    middle = np.sort(addresses)[addresses.size // 2]
    one = streams.ReadBatches(addresses, seed=3)
    two = streams.ReadBatches(addresses, seed=3)
    for _ in range(20):
        batch = one.next()
        assert batch == two.next()
        assert len(batch) == 32
        assert min(batch) < middle <= max(batch)
