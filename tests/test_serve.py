"""Tests for the snapshot query service (repro.serve).

The index is validated against brute-force scans of the same dataset;
the server tests exercise the real HTTP transport end to end, including
the cache, micro-batching, and backpressure contracts.
"""

from __future__ import annotations

import socket
import sys
import threading
import time
import urllib.error
from concurrent.futures import Future

import numpy as np
import pytest

from repro.core.distance import PAPER_BIN_MILES, N_BINS, preference_function
from repro.datasets.mapped import UNMAPPED_ASN, MappedDataset
from repro.errors import AnalysisError, OverloadError, ServeError
from repro.geo.distance import haversine_miles
from repro.geo.regions import region_by_name
from repro.obs.report import validate_report
from repro.serve import (
    BackoffPolicy,
    ConnectError,
    LruCache,
    MicroBatcher,
    QueryError,
    SnapshotClient,
    SnapshotIndex,
    SnapshotServer,
    call_with_retries,
)
from repro.serve.server import _Handler


@pytest.fixture(scope="module")
def dataset(pipeline_small) -> MappedDataset:
    return pipeline_small.dataset("IxMapper", "Skitter")


@pytest.fixture(scope="module")
def index(dataset) -> SnapshotIndex:
    return SnapshotIndex(dataset)


@pytest.fixture()
def server(index):
    with SnapshotServer(index, port=0) as srv:
        yield srv


@pytest.fixture()
def client(server) -> SnapshotClient:
    return SnapshotClient(server.url)


def _background_submit(batcher: MicroBatcher, key: int) -> Future:
    """Submit ``key`` from a helper thread; the returned future settles
    as that submission does.

    ``submit`` runs a flush on the calling thread, or waits for a
    running one, so gated tests park it on a helper thread.
    """
    proxy: Future = Future()

    def run() -> None:
        try:
            result = batcher.submit(key).result()
        except BaseException as exc:
            proxy.set_exception(exc)
        else:
            proxy.set_result(result)

    threading.Thread(target=run, daemon=True).start()
    return proxy


def _queue_behind(batcher: MicroBatcher, keys) -> list[Future]:
    """:func:`_background_submit` each key while a flush is running,
    in order: each is queued before the next is submitted."""
    futures = []
    for key in keys:
        depth = batcher.queue_depth
        futures.append(_background_submit(batcher, key))
        deadline = time.monotonic() + 5.0
        while batcher.queue_depth == depth and not futures[-1].done():
            assert time.monotonic() < deadline, f"key {key} never queued"
            time.sleep(0.001)
    return futures


def _tiny_dataset() -> MappedDataset:
    return MappedDataset(
        label="tiny",
        kind="skitter",
        addresses=np.array([10, 20, 30], dtype=np.int64),
        lats=np.array([40.0, 41.0, 50.0]),
        lons=np.array([-100.0, -100.5, 10.0]),
        asns=np.array([1, 1, UNMAPPED_ASN], dtype=np.int64),
        links=np.array([[0, 1]], dtype=np.intp),
    )


class TestSnapshotIndex:
    def test_locate_matches_dataset(self, index, dataset):
        for row in (0, dataset.n_nodes // 2, dataset.n_nodes - 1):
            record = index.locate(int(dataset.addresses[row]))
            assert record is not None
            assert record["lat"] == pytest.approx(float(dataset.lats[row]))
            assert record["lon"] == pytest.approx(float(dataset.lons[row]))

    def test_locate_unknown_address(self, index, dataset):
        absent = int(dataset.addresses.max()) + 1
        assert index.locate(absent) is None

    def test_locate_many_matches_scalar(self, index, dataset):
        addresses = [int(a) for a in dataset.addresses[:50]]
        addresses.append(int(dataset.addresses.max()) + 7)  # unknown
        addresses.append(addresses[0])  # duplicate
        batch = index.locate_many(addresses)
        assert batch == [index.locate(a) for a in addresses]
        assert batch[-2] is None
        assert batch[-1] == batch[0]

    @pytest.mark.parametrize("size", [0, 1, 3])
    def test_rows_of_matches_row_of(self, size):
        full = _tiny_dataset()  # addresses 10, 20, 30
        ds = MappedDataset(
            label="cut",
            kind=full.kind,
            addresses=full.addresses[:size],
            lats=full.lats[:size],
            lons=full.lons[:size],
            asns=full.asns[:size],
            links=full.links[:0],
        )
        index = SnapshotIndex(ds)
        # Below the first, exact hits, between, and above the last.
        probes = np.array([-5, 0, 9, 10, 15, 20, 29, 30, 31, 10**12])
        rows = index.rows_of(probes)
        assert rows.dtype == np.intp and rows.shape == probes.shape
        assert rows.tolist() == [index.row_of(int(a)) for a in probes]
        assert (rows >= 0).sum() == size
        assert index.rows_of(np.array([], dtype=np.int64)).size == 0

    def test_degree_matches_link_table(self, index, dataset):
        row = int(dataset.links[0, 0])
        expected = int(np.count_nonzero(dataset.links == row))
        record = index.locate(int(dataset.addresses[row]))
        assert record["degree"] == expected

    def test_unmapped_asn_is_null(self):
        index = SnapshotIndex(_tiny_dataset())
        assert index.locate(30)["asn"] is None
        assert index.locate(10)["asn"] == 1

    def test_nearest_matches_brute_force(self, index, dataset):
        for lat, lon in ((40.0, -95.0), (51.0, 0.5), (35.7, 139.7)):
            got = index.nearest(lat, lon, k=5)
            dists = np.asarray(
                haversine_miles(lat, lon, dataset.lats, dataset.lons)
            )
            want = np.sort(dists)[:5]
            assert [r["miles"] for r in got] == pytest.approx(want.tolist())

    def test_within_radius_matches_brute_force(self, index, dataset):
        lat, lon, radius = 40.0, -95.0, 500.0
        got = index.within_radius(lat, lon, radius)
        dists = np.asarray(
            haversine_miles(lat, lon, dataset.lats, dataset.lons)
        )
        assert len(got) == int(np.count_nonzero(dists <= radius))
        assert all(r["miles"] <= radius for r in got)
        miles = [r["miles"] for r in got]
        assert miles == sorted(miles)

    def test_invalid_queries_rejected(self, index):
        with pytest.raises(ServeError):
            index.nearest(91.0, 0.0)
        with pytest.raises(ServeError):
            index.nearest(0.0, 181.0)
        with pytest.raises(ServeError):
            index.nearest(0.0, 0.0, k=0)
        with pytest.raises(ServeError):
            index.within_radius(0.0, 0.0, -5.0)

    def test_as_summary_matches_dataset(self, index, dataset):
        counts = dataset.as_node_counts()
        assert index.n_ases == len(counts)
        asn = max(counts, key=counts.get)
        summary = index.as_summary(asn)
        assert summary.n_nodes == counts[asn]
        assert summary.degree == dataset.as_degrees()[asn]
        nodes = index.as_nodes(asn)
        assert summary.centroid_lat == pytest.approx(
            float(np.mean(dataset.lats[nodes]))
        )

    def test_unknown_as(self, index):
        assert index.as_summary(999_999_999) is None
        assert index.as_nodes(999_999_999).size == 0

    def test_distance_preference_matches_core(self, index, dataset):
        region = region_by_name("US")
        pref = index.distance_preference(region)
        direct = preference_function(
            dataset, region, PAPER_BIN_MILES["US"], n_bins=N_BINS
        )
        assert np.array_equal(pref.link_counts, direct.link_counts)
        assert np.array_equal(pref.pair_counts, direct.pair_counts)
        # Memoised: the second call returns the same object.
        assert index.distance_preference(region) is pref

    def test_distance_preference_failure_memoised(self):
        index = SnapshotIndex(_tiny_dataset())
        region = region_by_name("Japan")
        with pytest.raises(AnalysisError):
            index.distance_preference(region)
        with pytest.raises(AnalysisError):  # memoised failure, same type
            index.distance_preference(region)

    def test_stats_shape(self, index, dataset):
        stats = index.stats()
        assert stats["n_nodes"] == dataset.n_nodes
        assert stats["n_links"] == dataset.n_links
        assert stats["snapshot_hash"] == index.snapshot_hash
        assert stats["build_seconds"] >= 0


class TestLruCache:
    def test_hit_miss_and_eviction(self):
        cache = LruCache(2)
        hit, _ = cache.get("a")
        assert not hit
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == (True, 1)  # refreshes recency of "a"
        cache.put("c", 3)  # evicts "b", the least recently used
        assert cache.get("b") == (False, None)
        assert cache.get("a") == (True, 1)
        assert cache.get("c") == (True, 3)
        assert len(cache) == 2

    def test_stats(self):
        cache = LruCache(4)
        cache.put("k", "v")
        cache.get("k")
        cache.get("absent")
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_ratio"] == pytest.approx(0.5)

    def test_invalid_capacity(self):
        with pytest.raises(ServeError):
            LruCache(0)


class TestMicroBatcher:
    def test_concurrent_submissions_all_resolve(self):
        def compute(keys):
            return [k * 10 for k in keys]

        batcher = MicroBatcher(compute)
        try:
            futures = {}
            threads = []

            def submit(k):
                futures[k] = batcher.submit(k)

            for k in range(32):
                t = threading.Thread(target=submit, args=(k,))
                threads.append(t)
                t.start()
            for t in threads:
                t.join()
            for k, future in futures.items():
                assert future.result(timeout=5.0) == k * 10
        finally:
            batcher.close()

    @staticmethod
    def _gated_batcher(calls: list[list[int]], **kw):
        """A batcher whose flushes block until ``release`` is set.

        Submitting the gate key 0 (from a helper thread) and waiting for
        ``entered`` parks that submission inside a compute; everything
        submitted after that is pending together when the gate opens.
        """
        entered, release = threading.Event(), threading.Event()

        def compute(keys):
            entered.set()
            release.wait(timeout=5.0)
            calls.append(list(keys))
            return [k + 1 for k in keys]

        return MicroBatcher(compute, **kw), entered, release

    def test_flush_deduplicates(self):
        calls: list[list[int]] = []
        batcher, entered, release = self._gated_batcher(calls)
        try:
            gate = _background_submit(batcher, 0)
            assert entered.wait(timeout=5.0)
            futures = _queue_behind(batcher, (5, 5, 8, 5))
            release.set()
            assert gate.result(timeout=5.0) == 1
            assert [f.result(timeout=5.0) for f in futures] == [6, 6, 9, 6]
            flat = [k for call in calls[1:] for k in call]
            assert sorted(set(flat)) == [5, 8]
            assert len(flat) == len(set(flat))  # no key computed twice
            stats = batcher.stats()
            assert stats["requests"] == 5  # the gate key plus four
            assert stats["dedup_saved"] == 2
        finally:
            release.set()
            batcher.close()

    def test_keys_pending_during_a_flush_go_out_in_the_next_one(self):
        calls: list[list[int]] = []
        batcher, entered, release = self._gated_batcher(calls)
        try:
            _background_submit(batcher, 0)
            assert entered.wait(timeout=5.0)
            futures = _queue_behind(batcher, (7, 3, 7, 9, 3))
            assert batcher.queue_depth == 5
            release.set()
            assert [f.result(timeout=5.0) for f in futures] == [8, 4, 8, 10, 4]
            assert calls == [[0], [7, 3, 9]]  # one flush, deduplicated
            stats = batcher.stats()
            assert stats["flushes"] == 2 and stats["dedup_saved"] == 2
        finally:
            release.set()
            batcher.close()

    def test_flush_takes_at_most_max_batch(self):
        calls: list[list[int]] = []
        batcher, entered, release = self._gated_batcher(calls, max_batch=2)
        try:
            _background_submit(batcher, 0)
            assert entered.wait(timeout=5.0)
            futures = _queue_behind(batcher, (1, 2, 3, 4, 5))
            release.set()
            assert [f.result(timeout=5.0) for f in futures] == [2, 3, 4, 5, 6]
            assert calls == [[0], [1, 2], [3, 4], [5]]
        finally:
            release.set()
            batcher.close()

    def test_lone_submissions_do_not_wait_for_company(self):
        batcher = MicroBatcher(lambda keys: [k * 3 for k in keys])
        try:
            batcher.submit(0).result(timeout=5.0)  # warmed up
            start = time.perf_counter()
            for k in range(50):
                assert batcher.submit(k).result(timeout=5.0) == k * 3
            elapsed = time.perf_counter() - start
            # A lone submission flushes on its own thread at once.
            assert elapsed < 0.05, f"50 lone round trips took {elapsed:.3f}s"
            assert batcher.stats()["mean_batch"] == 1.0
        finally:
            batcher.close()

    def test_overflow_sheds(self):
        blocker, entered = threading.Event(), threading.Event()

        def compute(keys):
            entered.set()
            blocker.wait(timeout=5.0)
            return [0 for _ in keys]

        batcher = MicroBatcher(compute, max_pending=2)
        try:
            # Fill the queue while the first flush is blocked in compute.
            _background_submit(batcher, 1)
            assert entered.wait(timeout=5.0)  # the first batch is taken
            _queue_behind(batcher, (2, 3))
            with pytest.raises(OverloadError):
                batcher.submit(4)
        finally:
            blocker.set()
            batcher.close()

    def test_compute_failure_propagates(self):
        def compute(keys):
            raise RuntimeError("boom")

        batcher = MicroBatcher(compute)
        try:
            future = batcher.submit(1)
            with pytest.raises(RuntimeError):
                future.result(timeout=5.0)
        finally:
            batcher.close()

    def test_closed_batcher_rejects(self):
        batcher = MicroBatcher(lambda keys: [0 for _ in keys])
        batcher.close()
        with pytest.raises(ServeError):
            batcher.submit(1)

    def test_invalid_configuration(self):
        with pytest.raises(ServeError):
            MicroBatcher(lambda keys: [], max_batch=0)

    def test_lone_submission_flushes_on_the_calling_thread(self):
        threads: list[int] = []

        def compute(keys):
            threads.append(threading.get_ident())
            return [k for k in keys]

        before = threading.active_count()
        batcher = MicroBatcher(compute)
        assert threading.active_count() == before  # no thread of its own
        future = batcher.submit(4)
        assert future.done() and future.result() == 4
        assert threads == [threading.get_ident()]

    def test_concurrent_leaders_never_overlap(self):
        # Stress: more submitters than cores and a short switch interval.
        # Exactly one flush may run at a time, and every request must
        # resolve with its own key's result and be counted once.
        lock = threading.Lock()
        active, peaks, wrong = [0], [], []

        def compute(keys):
            with lock:
                active[0] += 1
                peaks.append(active[0])
            time.sleep(0)  # yield mid-flush
            with lock:
                active[0] -= 1
            return [k * 2 for k in keys]

        batcher = MicroBatcher(compute, max_batch=8)

        def worker(w: int) -> None:
            for i in range(200):
                key = (w * 7 + i) % 50
                if batcher.submit(key).result(timeout=5.0) != key * 2:
                    wrong.append(key)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(w,)) for w in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert wrong == [] and max(peaks) == 1
        stats = batcher.stats()
        assert stats["requests"] == 1600 and stats["queue_depth"] == 0
        assert stats["computed_keys"] + stats["dedup_saved"] == 1600
        assert stats["mean_batch"] * stats["flushes"] == pytest.approx(1600)

    def test_stats_count_only_finished_flushes(self):
        calls: list[list[int]] = []
        batcher, entered, release = self._gated_batcher(calls)
        try:
            gate = _background_submit(batcher, 0)
            assert entered.wait(timeout=5.0)
            during = batcher.stats()
            assert during["requests"] == 1 and during["flushes"] == 0
            assert during["dedup_saved"] == 0
            assert during["mean_batch"] == 0.0
            release.set()
            assert gate.result(timeout=5.0) == 1
            after = batcher.stats()
            assert after["flushes"] == 1 and after["dedup_saved"] == 0
            assert after["mean_batch"] == 1.0
        finally:
            release.set()
            batcher.close()

    def test_failed_flush_counts_in_no_batch_stats(self):
        failures = [RuntimeError("boom")]

        def compute(keys):
            if failures:
                raise failures.pop()
            return [k for k in keys]

        batcher = MicroBatcher(compute)
        with pytest.raises(RuntimeError):
            batcher.submit(1).result(timeout=5.0)
        stats = batcher.stats()
        assert stats["requests"] == 1 and stats["flushes"] == 0
        assert stats["dedup_saved"] == 0 and stats["mean_batch"] == 0.0
        assert batcher.submit(2).result(timeout=5.0) == 2
        stats = batcher.stats()
        assert stats["requests"] == 2 and stats["flushes"] == 1
        assert stats["dedup_saved"] == 0 and stats["mean_batch"] == 1.0


class TestServerEndToEnd:
    def test_healthz(self, client, index):
        payload = client.healthz()
        assert payload["status"] == "ok"
        assert payload["snapshot_hash"] == index.snapshot_hash

    def test_locate_and_cache_hit(self, server, client, dataset):
        address = int(dataset.addresses[0])
        first = client.locate(address)
        second = client.locate(address)
        assert first == second
        assert first["lat"] == pytest.approx(float(dataset.lats[0]))
        assert server.cache.hits >= 1

    def test_locate_many_endpoint(self, client, index, dataset):
        addresses = [int(a) for a in dataset.addresses[:5]]
        addresses.append(int(dataset.addresses.max()) + 1)
        results = client.locate_many(addresses)
        assert results == index.locate_many(addresses)
        assert results[-1] is None

    def test_locate_unknown_is_404(self, client, dataset):
        with pytest.raises(QueryError) as err:
            client.locate(int(dataset.addresses.max()) + 123)
        assert err.value.status == 404

    def test_as_endpoint(self, client, index, dataset):
        asn = max(dataset.as_node_counts())
        payload = client.as_info(asn)
        assert payload["n_nodes"] == index.as_summary(asn).n_nodes
        assert len(payload["sample_addresses"]) >= 1

    def test_near_endpoint(self, client, index):
        payload = client.near(40.0, -95.0, k=3)
        assert payload["results"] == index.nearest(40.0, -95.0, k=3)

    def test_radius_endpoint(self, client, index):
        payload = client.within_radius(40.0, -95.0, 300.0)
        assert payload["results"] == index.within_radius(40.0, -95.0, 300.0)

    def test_preference_endpoint(self, client, index):
        payload = client.distance_preference("US")
        pref = index.distance_preference(region_by_name("US"))
        assert payload["bin_miles"] == pref.bin_miles
        assert payload["link_counts"] == pref.link_counts.tolist()
        single = client.distance_preference("US", d=10.0)
        assert single["f_hat"] == index.f_of_d(region_by_name("US"), 10.0)

    def test_bad_params_are_400(self, client):
        with pytest.raises(QueryError) as err:
            client.get("locate", address="not-a-number")
        assert err.value.status == 400
        with pytest.raises(QueryError) as err:
            client.get("near", lat="91", lon="0")
        assert err.value.status == 400
        with pytest.raises(QueryError) as err:
            client.get("distance-preference")
        assert err.value.status == 400

    def test_unknown_endpoint_is_404(self, client):
        with pytest.raises(QueryError) as err:
            client.get("no-such-endpoint")
        assert err.value.status == 404

    def test_stats_endpoint(self, client, dataset):
        payload = client.stats()
        assert payload["index"]["n_nodes"] == dataset.n_nodes
        assert "cache" in payload and "batcher" in payload
        # Request counters are recorded after the payload is rendered,
        # so the first call's counter shows up in the second call.
        payload = client.stats()
        assert payload["metrics"]["counters"]["serve.requests.stats"] >= 1

    def test_stats_report_is_schema_valid(self, server, client):
        client.healthz()
        report = server.stats_report()
        assert validate_report(report.to_dict()) == []
        assert report.config["service"] == "snapshot-query"


class TestBackpressure:
    def test_burst_sheds_while_healthz_answers(
        self, index, dataset, monkeypatch
    ):
        # A deliberately tiny server: one admitted request at a time,
        # held inside the lookup until the rest of the burst has been
        # answered, so the burst must overflow.
        addresses = [int(a) for a in dataset.addresses[:24]]
        outcomes: list[str] = []
        lock = threading.Lock()
        entered, release = threading.Event(), threading.Event()
        locate_many = index.locate_many

        def gated_locate_many(keys):
            entered.set()
            release.wait(timeout=10.0)
            return locate_many(keys)

        monkeypatch.setattr(index, "locate_many", gated_locate_many)
        server = SnapshotServer(
            index, port=0, max_inflight=1, max_pending=1, cache_size=1
        )
        with server:
            client = SnapshotClient(server.url, max_retries=0)

            def fire(address):
                c = SnapshotClient(server.url, max_retries=0)
                try:
                    c.locate(address)
                    result = "ok"
                except OverloadError:
                    result = "shed"
                except QueryError:
                    result = "other"
                with lock:
                    outcomes.append(result)

            threads = [
                threading.Thread(target=fire, args=(a,)) for a in addresses
            ]
            for t in threads:
                t.start()
            try:
                assert entered.wait(timeout=10.0)
                # While the burst is in flight, liveness must keep answering.
                assert client.healthz()["status"] == "ok"
                deadline = time.monotonic() + 10.0
                while len(outcomes) < len(addresses) - 1:
                    assert time.monotonic() < deadline, "burst never overflowed"
                    time.sleep(0.01)
            finally:
                release.set()
            for t in threads:
                t.join(timeout=10.0)
                assert not t.is_alive()
            assert "shed" in outcomes  # some requests were 503ed
            assert "ok" in outcomes  # ...but the service did real work
            stats = client.stats()
            assert stats["metrics"]["counters"]["serve.shed"] >= 1

    def test_clean_shutdown_and_restartable_port(self, index):
        server = SnapshotServer(index, port=0)
        server.start()
        port = server.port
        SnapshotClient(server.url).healthz()
        server.stop()
        # The port is released: a new server can bind it immediately.
        again = SnapshotServer(index, port=port)
        with again:
            assert SnapshotClient(again.url).healthz()["status"] == "ok"

    def test_invalid_configuration(self, index):
        with pytest.raises(ServeError):
            SnapshotServer(index, max_inflight=0)


class TestRingSearchEdges:
    """Grid ring search at the coordinate seams, against brute force."""

    def _seam_dataset(self) -> MappedDataset:
        rng = np.random.default_rng(7)
        n = 120
        lats = np.concatenate(
            [
                rng.uniform(-10.0, 10.0, n),  # antimeridian band
                rng.uniform(85.0, 89.9, n),  # arctic cap
                np.array([-89.9, -89.5, 89.9, 89.5]),  # at the poles
            ]
        )
        lons = np.concatenate(
            [
                # Cluster tightly around the +-180 seam.
                np.where(
                    rng.random(n) < 0.5,
                    rng.uniform(178.0, 180.0, n),
                    rng.uniform(-180.0, -178.0, n),
                ),
                rng.uniform(-180.0, 180.0, n),
                np.array([0.0, 90.0, -120.0, 45.0]),
            ]
        )
        count = lats.shape[0]
        return MappedDataset(
            label="seam",
            kind="skitter",
            addresses=np.arange(1, count + 1, dtype=np.int64),
            lats=lats,
            lons=lons,
            asns=np.full(count, UNMAPPED_ASN, dtype=np.int64),
            links=np.zeros((0, 2), dtype=np.intp),
        )

    def _assert_matches_brute_force(self, index, dataset, lat, lon, k):
        got = index.nearest(lat, lon, k=k)
        dists = np.asarray(
            haversine_miles(lat, lon, dataset.lats, dataset.lons)
        )
        order = np.lexsort((dataset.addresses, dists))[:k]
        assert [r["address"] for r in got] == [
            int(dataset.addresses[i]) for i in order
        ]
        assert [r["miles"] for r in got] == pytest.approx(
            dists[order].tolist()
        )

    def test_nearest_across_antimeridian(self):
        dataset = self._seam_dataset()
        index = SnapshotIndex(dataset)
        for lon in (179.9, -179.9, 178.5, -178.5):
            self._assert_matches_brute_force(index, dataset, 0.0, lon, 10)

    def test_nearest_at_poles(self):
        dataset = self._seam_dataset()
        index = SnapshotIndex(dataset)
        for lat, lon in ((89.99, 0.0), (89.99, 179.0), (-89.99, -45.0)):
            self._assert_matches_brute_force(index, dataset, lat, lon, 8)

    def test_radius_across_antimeridian(self):
        dataset = self._seam_dataset()
        index = SnapshotIndex(dataset)
        lat, lon, radius = 0.0, 179.95, 400.0
        got = index.within_radius(lat, lon, radius)
        dists = np.asarray(
            haversine_miles(lat, lon, dataset.lats, dataset.lons)
        )
        assert len(got) == int(np.count_nonzero(dists <= radius))
        # Nodes on *both* sides of the seam are inside this disc.
        lons = [r["lon"] for r in got]
        assert any(value > 0 for value in lons)
        assert any(value < 0 for value in lons)


class TestTransport:
    def test_accepted_sockets_disable_nagle(self, server, monkeypatch):
        seen: list[int] = []
        handle = _Handler.handle

        def recording_handle(self):
            seen.append(
                self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )
            handle(self)

        monkeypatch.setattr(_Handler, "handle", recording_handle)
        assert SnapshotClient(server.url).healthz()["status"] == "ok"
        assert seen and all(seen)


class TestBatcherShutdownFlush:
    def test_queued_submissions_resolve_through_close(self):
        release = threading.Event()
        entered = threading.Event()

        def compute(keys):
            entered.set()
            release.wait(timeout=5.0)
            return [k * 2 for k in keys]

        batcher = MicroBatcher(compute, max_batch=1)
        first = _background_submit(batcher, 1)
        assert entered.wait(timeout=5.0)  # a flush is busy with key 1
        queued = _queue_behind(batcher, (2, 3, 4))
        closer = threading.Thread(target=batcher.close)
        closer.start()
        release.set()
        # close() drains: everything submitted before it resolves.
        assert first.result(timeout=5.0) == 2
        assert [f.result(timeout=5.0) for f in queued] == [4, 6, 8]
        closer.join(timeout=5.0)
        assert not closer.is_alive()
        with pytest.raises(ServeError):
            batcher.submit(5)

    def test_close_is_idempotent(self):
        batcher = MicroBatcher(lambda keys: [0 for _ in keys])
        batcher.close()
        batcher.close()


class TestStatsGauges:
    def test_shed_and_queue_depth_reported(self, client):
        stats = client.stats()
        assert stats["shed_requests"] == 0
        assert stats["queue_depth"] == 0

    def test_shed_requests_counts_rejections(self, index, dataset):
        server = SnapshotServer(index, port=0, max_inflight=1, cache_size=1)
        blocker = threading.Event()
        original = index.locate_many

        def slow_locate(addresses):
            blocker.wait(timeout=5.0)
            return original(addresses)

        server.batcher._compute = slow_locate
        address = int(dataset.addresses[0])
        with server:
            client = SnapshotClient(server.url, max_retries=0)
            worker = threading.Thread(
                target=lambda: SnapshotClient(server.url).locate(address)
            )
            worker.start()
            try:
                # Wait until the blocked request owns the only slot, so
                # the next query is deterministically shed.
                deadline = time.monotonic() + 5.0
                while server.inflight < 1:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                with pytest.raises(OverloadError):
                    client.locate(address)
            finally:
                blocker.set()
                worker.join(timeout=5.0)
            assert client.stats()["shed_requests"] >= 1


class TestRetryPolicy:
    def test_delays_grow_and_cap(self):
        policy = BackoffPolicy(
            retries=6, base_delay_s=0.1, max_delay_s=0.5, jitter=0.0
        )
        assert list(policy.delays()) == [0.1, 0.2, 0.4, 0.5, 0.5, 0.5]

    def test_jitter_bounds(self):
        policy = BackoffPolicy(
            retries=1, base_delay_s=1.0, max_delay_s=8.0, jitter=0.25, seed=3
        )
        for attempt in range(50):
            delay = policy.delay_s(0)
            assert 0.75 <= delay <= 1.25

    def test_invalid_policies_rejected(self):
        with pytest.raises(ServeError):
            BackoffPolicy(retries=-1)
        with pytest.raises(ServeError):
            BackoffPolicy(jitter=1.5)

    def test_call_with_retries_eventual_success(self):
        attempts = []
        slept = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise ConnectError("nope")
            return "ok"

        policy = BackoffPolicy(retries=3, base_delay_s=0.01, jitter=0.0)
        result = call_with_retries(
            flaky, policy, retry_on=(ConnectError,), sleep=slept.append
        )
        assert result == "ok"
        assert len(attempts) == 3
        assert len(slept) == 2

    def test_non_retryable_errors_propagate_immediately(self):
        def boom():
            raise ValueError("not transient")

        policy = BackoffPolicy(retries=5, base_delay_s=0.01, jitter=0.0)
        with pytest.raises(ValueError):
            call_with_retries(
                boom, policy, retry_on=(ConnectError,), sleep=lambda _: None
            )

    def test_budget_exhaustion_reraises_last(self):
        def always():
            raise ConnectError("still down")

        policy = BackoffPolicy(retries=2, base_delay_s=0.01, jitter=0.0)
        with pytest.raises(ConnectError, match="still down"):
            call_with_retries(
                always, policy, retry_on=(ConnectError,), sleep=lambda _: None
            )


class TestClientConnectRetry:
    def test_unreachable_server_is_connect_error(self):
        import socket as socket_mod

        with socket_mod.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        client = SnapshotClient(
            f"http://127.0.0.1:{port}",
            timeout_s=0.5,
            connect_backoff=BackoffPolicy(
                retries=2, base_delay_s=0.01, jitter=0.0
            ),
        )
        with pytest.raises(ConnectError, match="cannot reach"):
            client.healthz()

    def test_refused_then_up_succeeds(self, index, monkeypatch):
        # A server that starts binding only after the first attempt:
        # the client's connection backoff should absorb the gap.
        import urllib.request as request_mod

        real_urlopen = request_mod.urlopen
        server = SnapshotServer(index, port=0)
        server.start()
        try:
            calls = []

            def flaky_urlopen(url, timeout=None):
                calls.append(url)
                if len(calls) < 3:
                    raise urllib.error.URLError(OSError(111, "refused"))
                return real_urlopen(url, timeout=timeout)

            monkeypatch.setattr(request_mod, "urlopen", flaky_urlopen)
            client = SnapshotClient(
                server.url,
                connect_backoff=BackoffPolicy(
                    retries=3, base_delay_s=0.01, jitter=0.0
                ),
            )
            assert client.healthz()["status"] == "ok"
            assert len(calls) == 3
        finally:
            server.stop()
