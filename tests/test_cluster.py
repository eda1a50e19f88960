"""Tests for the sharded serving cluster (repro.cluster).

The load-bearing property is *bit identity*: a coordinator fronting
partitioned shard workers must answer every endpoint with the exact
status and body a single-process SnapshotServer produces from the same
snapshot.  The differential test here drives both through real HTTP
and compares raw bytes.  The rest covers the moving parts around that
contract: partition planning, replica failover and ejection, the
generation-pinned hot snapshot swap, and the fleet metrics merge.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.distance import (
    N_BINS,
    exact_pair_counts,
    exact_pair_counts_rows,
)
from repro.datasets.mapped import UNMAPPED_ASN, MappedDataset
from repro.datasets.serialize import save_dataset
from repro.errors import ServeError
from repro.obs import merge_expositions
from repro.serve import (
    SnapshotClient,
    SnapshotIndex,
    SnapshotServer,
)
from repro.cluster import (
    ClusterCoordinator,
    ReplicaSet,
    Routing,
    ShardClient,
    ShardRange,
    ShardServer,
    ShardUnavailable,
    build_routing,
    partition_bounds,
    range_indices,
)


@pytest.fixture(scope="module")
def dataset(pipeline_small) -> MappedDataset:
    return pipeline_small.dataset("IxMapper", "Skitter")


@pytest.fixture(scope="module")
def snapshot_path(dataset, tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("cluster") / "snapshot.npz"
    save_dataset(dataset, path)
    return str(path)


@pytest.fixture(scope="module")
def snapshot_b_path(dataset, tmp_path_factory) -> str:
    """A second snapshot with every latitude visibly shifted."""
    shifted = MappedDataset(
        label="shifted",
        kind=dataset.kind,
        addresses=dataset.addresses,
        lats=np.clip(dataset.lats + 1.0, -90.0, 90.0),
        lons=dataset.lons,
        asns=dataset.asns,
        links=dataset.links,
    )
    path = tmp_path_factory.mktemp("cluster-b") / "snapshot_b.npz"
    save_dataset(shifted, path)
    return str(path)


def _start_fleet(snapshot_path, ranges, replicas=1):
    shards = []
    urls_by_slot = []
    for rng in ranges:
        urls = []
        for _ in range(replicas):
            shard = ShardServer(
                snapshot_path, rng.addr_lo, rng.addr_hi, port=0
            )
            shard.start()
            shards.append(shard)
            urls.append(shard.url)
        urls_by_slot.append(urls)
    return shards, urls_by_slot


@pytest.fixture(scope="module")
def cluster(dataset, snapshot_path):
    """A 2-range x 1-replica in-process fleet behind a coordinator."""
    ranges = partition_bounds(dataset.addresses, 2)
    shards, urls_by_slot = _start_fleet(snapshot_path, ranges)
    routing = build_routing(ranges, urls_by_slot)
    coordinator = ClusterCoordinator(routing, port=0)
    coordinator.start()
    yield coordinator
    coordinator.stop()
    for shard in shards:
        shard.stop()


@pytest.fixture(scope="module")
def single(dataset):
    server = SnapshotServer(SnapshotIndex(dataset), port=0)
    server.start()
    yield server
    server.stop()


def _raw_get(base_url: str, target: str) -> tuple[int, bytes]:
    try:
        with urllib.request.urlopen(base_url + target, timeout=30) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestPartitionPlan:
    def test_ranges_cover_and_do_not_overlap(self, dataset):
        ranges = partition_bounds(dataset.addresses, 4)
        assert len(ranges) == 4
        assert ranges[0].addr_lo is None
        assert ranges[-1].addr_hi is None
        for left, right in zip(ranges, ranges[1:]):
            assert left.addr_hi == right.addr_lo
        owners = range_indices(ranges, dataset.addresses)
        for owner, address in zip(owners, dataset.addresses):
            assert ranges[int(owner)].contains(int(address))

    def test_balanced_node_counts(self, dataset):
        ranges = partition_bounds(dataset.addresses, 3)
        owners = range_indices(ranges, dataset.addresses)
        counts = np.bincount(owners, minlength=3)
        assert counts.min() > 0.5 * counts.max()

    def test_single_range_is_unbounded(self, dataset):
        (only,) = partition_bounds(dataset.addresses, 1)
        assert only.addr_lo is None and only.addr_hi is None
        assert only.label() == "[*,*)"

    def test_more_ranges_than_addresses(self):
        addresses = np.array([5, 7], dtype=np.int64)
        ranges = partition_bounds(addresses, 5)
        assert len(ranges) == 5
        owners = range_indices(ranges, addresses)
        for owner, address in zip(owners, addresses):
            assert ranges[int(owner)].contains(int(address))

    def test_invalid_range_count(self):
        with pytest.raises(ServeError, match="n_ranges"):
            partition_bounds(np.array([1], dtype=np.int64), 0)

    def test_contains_half_open(self):
        rng = ShardRange(10, 20)
        assert rng.contains(10)
        assert rng.contains(19)
        assert not rng.contains(20)
        assert not rng.contains(9)
        assert rng.label() == "[10,20)"

    def test_absent_addresses_still_route(self, dataset):
        ranges = partition_bounds(dataset.addresses, 3)
        probe = np.array(
            [0, int(dataset.addresses.max()) + 10_000], dtype=np.int64
        )
        owners = range_indices(ranges, probe)
        assert int(owners[0]) == 0
        assert int(owners[1]) == 2


class TestPartitionIndex:
    def test_partition_nodes_are_the_owned_slice(
        self, dataset, snapshot_path
    ):
        ranges = partition_bounds(dataset.addresses, 2)
        total = 0
        for rng in ranges:
            index = SnapshotIndex.build_partition(
                snapshot_path, rng.addr_lo, rng.addr_hi
            )
            for address in index.dataset.addresses:
                assert rng.contains(int(address))
            total += index.dataset.n_nodes
        assert total == dataset.n_nodes

    def test_pair_count_partials_sum_to_exact(self, dataset):
        lats = dataset.lats[:200]
        lons = dataset.lons[:200]
        bin_miles = 35.0
        full = exact_pair_counts(lats, lons, bin_miles, N_BINS)
        split = np.zeros_like(full)
        for rows in (np.arange(0, 80), np.arange(80, 200)):
            split += exact_pair_counts_rows(
                lats, lons, rows, bin_miles, N_BINS
            )
        assert np.array_equal(full, split)


class TestBitIdentity:
    def _targets(self, dataset):
        addrs = [int(a) for a in dataset.addresses[:4]]
        absent = int(dataset.addresses.max()) + 1
        mapped = dataset.asns[dataset.asns != UNMAPPED_ASN]
        asn = int(mapped[0]) if mapped.size else 1
        return [
            f"/locate?address={addrs[0]}",
            f"/locate?address={absent}",
            "/locate?address=xyz",
            "/locate",
            f"/locate?addresses={addrs[0]},{absent},{addrs[1]},{addrs[0]}",
            "/locate?addresses=",
            "/near?lat=40&lon=-100&k=5",
            "/near?lat=40&lon=-100&radius=500&limit=3",
            "/near?lat=40",
            "/near?lat=40&lon=-100&k=0",
            "/near?lat=abc&lon=-100&k=5",
            f"/as/{asn}",
            "/as/999999",
            "/as/xyz",
            "/distance-preference?region=USA",
            "/distance-preference?region=USA&d=100",
            "/distance-preference?region=USA&d=-1",
            "/distance-preference?region=USA&d=abc",
            "/distance-preference?region=Nowhere",
            "/distance-preference",
            "/bogus",
        ]

    def test_every_endpoint_matches_single_process(
        self, dataset, cluster, single
    ):
        for target in self._targets(dataset):
            expected = _raw_get(single.url, target)
            actual = _raw_get(cluster.url, target)
            assert actual == expected, f"diverged on {target}"

    def test_near_merge_is_exhaustive(self, dataset, cluster, single):
        # k larger than any single shard's node count forces the merge
        # to interleave results from both ranges.
        target = f"/near?lat=40&lon=-100&k={dataset.n_nodes}"
        assert _raw_get(cluster.url, target) == _raw_get(single.url, target)

    def test_healthz_reports_full_snapshot_hash(
        self, dataset, cluster, single
    ):
        ours = json.loads(_raw_get(cluster.url, "/healthz")[1])
        theirs = json.loads(_raw_get(single.url, "/healthz")[1])
        assert ours["snapshot_hash"] == theirs["snapshot_hash"]
        assert ours["gen"] == 1

    def test_cluster_stats_shape(self, cluster):
        stats = json.loads(_raw_get(cluster.url, "/stats")[1])
        assert stats["cluster"]["gen"] == 1
        assert len(stats["cluster"]["ranges"]) == 2
        for slot in stats["cluster"]["ranges"]:
            assert slot["n_healthy"] == 1
            assert slot["replicas"][0]["healthy"] is True
        assert "shed_requests" in stats
        assert "queue_depth" in stats

    def test_metrics_include_shard_samples(self, cluster):
        _raw_get(cluster.url, "/locate?address=1")
        body = _raw_get(cluster.url, "/metrics")[1].decode()
        names = {
            line.split("{")[0].split()[0]
            for line in body.splitlines()
            if line and not line.startswith("#")
        }
        assert any(name.startswith("repro_coord_") for name in names)
        assert any(name.startswith("repro_serve_") for name in names)


class TestFailover:
    def test_dead_replica_fails_over_and_ejects(
        self, dataset, snapshot_path
    ):
        ranges = partition_bounds(dataset.addresses, 1)
        shards, urls_by_slot = _start_fleet(snapshot_path, ranges)
        dead_url = f"http://127.0.0.1:{_free_port()}"
        routing = Routing(
            1,
            ranges,
            [
                ReplicaSet(
                    [ShardClient(dead_url), ShardClient(urls_by_slot[0][0])]
                )
            ],
            shards[0].index.snapshot_hash,
        )
        coordinator = ClusterCoordinator(
            routing, port=0, health_interval_s=0.05
        )
        coordinator.start()
        try:
            client = SnapshotClient(coordinator.url)
            address = int(dataset.addresses[0])
            for _ in range(10):
                record = client.get("locate", address=address)
                assert record["address"] == address
            deadline = time.monotonic() + 10.0
            while routing.replica_sets[0].n_healthy != 1:
                assert time.monotonic() < deadline, "dead replica not ejected"
                time.sleep(0.05)
            snap = routing.replica_sets[0].snapshot()
            assert snap[0]["healthy"] is False
            assert snap[1]["healthy"] is True
        finally:
            coordinator.stop()
            for shard in shards:
                shard.stop()

    def test_ejected_replica_is_readmitted(self, dataset, snapshot_path):
        ranges = partition_bounds(dataset.addresses, 1)
        shards, urls_by_slot = _start_fleet(snapshot_path, ranges)
        late_port = _free_port()
        routing = Routing(
            1,
            ranges,
            [
                ReplicaSet(
                    [
                        ShardClient(f"http://127.0.0.1:{late_port}"),
                        ShardClient(urls_by_slot[0][0]),
                    ]
                )
            ],
            shards[0].index.snapshot_hash,
        )
        coordinator = ClusterCoordinator(
            routing, port=0, health_interval_s=0.05
        )
        coordinator.start()
        late = None
        try:
            deadline = time.monotonic() + 10.0
            while routing.replica_sets[0].n_healthy != 1:
                assert time.monotonic() < deadline
                time.sleep(0.05)
            late = ShardServer(
                snapshot_path, None, None, port=late_port
            )
            late.start()
            shards.append(late)
            deadline = time.monotonic() + 10.0
            while routing.replica_sets[0].n_healthy != 2:
                assert time.monotonic() < deadline, "replica not readmitted"
                time.sleep(0.05)
        finally:
            coordinator.stop()
            for shard in shards:
                shard.stop()

    def test_all_replicas_down_is_503(self, dataset, snapshot_path):
        ranges = partition_bounds(dataset.addresses, 1)
        shard = ShardServer(snapshot_path, None, None, port=0)
        shard.start()
        routing = Routing(
            1,
            ranges,
            [ReplicaSet([ShardClient(f"http://127.0.0.1:{_free_port()}")])],
            shard.index.snapshot_hash,
        )
        coordinator = ClusterCoordinator(routing, port=0)
        coordinator.start()
        try:
            status, body = _raw_get(
                coordinator.url,
                f"/locate?address={int(dataset.addresses[0])}",
            )
            assert status == 503
            assert "retry_after_s" in json.loads(body)
        finally:
            coordinator.stop()
            shard.stop()


class TestShardClient:
    def test_rejects_url_without_port(self):
        with pytest.raises(ServeError, match="host and port"):
            ShardClient("http://localhost")

    def test_unreachable_then_blackout(self):
        client = ShardClient(f"http://127.0.0.1:{_free_port()}")
        with pytest.raises(ShardUnavailable, match="cannot reach"):
            client.get("/healthz")
        # The failed dial opens a blackout window: fail fast, no dial.
        with pytest.raises(ShardUnavailable, match="blackout"):
            client.get("/healthz")
        assert client.probe(timeout_s=0.2) is None

    def test_keep_alive_reuses_connection(self, cluster):
        client = ShardClient(cluster.url)
        try:
            assert client.get("/healthz")[0] == 200
            assert len(client._idle) == 1
            assert client.get("/healthz")[0] == 200
            assert len(client._idle) == 1
        finally:
            client.close()

    def test_replica_set_requires_clients(self):
        with pytest.raises(ServeError):
            ReplicaSet([])

    def test_replica_set_ejection_and_candidates(self):
        rset = ReplicaSet(
            [
                ShardClient("http://127.0.0.1:1"),
                ShardClient("http://127.0.0.1:2"),
            ],
            eject_after=2,
        )
        rset.record_failure(0)
        assert rset.is_healthy(0)
        rset.record_failure(0)
        assert not rset.is_healthy(0)
        # Unhealthy replicas go last, not away.
        assert [idx for idx, _ in rset.candidates()] == [1, 0]
        rset.record_success(0, 5.0)
        assert rset.is_healthy(0)

    def test_probe_accounting_leaves_traffic_stats_alone(self):
        rset = ReplicaSet([ShardClient("http://127.0.0.1:1")])
        rset.record_success(0, 8.0)
        before = rset.snapshot()[0]
        rset.record_probe(0, True)
        rset.record_probe(0, False)
        after = rset.snapshot()[0]
        assert after["requests"] == before["requests"] == 1
        assert after["ewma_latency_ms"] == before["ewma_latency_ms"]


class TestHotReload:
    def test_reload_swaps_answers_without_drops(
        self, dataset, snapshot_path, snapshot_b_path
    ):
        ranges = partition_bounds(dataset.addresses, 2)
        shards, urls_by_slot = _start_fleet(snapshot_path, ranges)
        routing = build_routing(ranges, urls_by_slot)
        coordinator = ClusterCoordinator(
            routing, port=0, health_interval_s=0.1
        )
        coordinator.start()
        address = int(dataset.addresses[0])
        failures: list[str] = []
        stop = threading.Event()

        def hammer() -> None:
            client = SnapshotClient(coordinator.url)
            while not stop.is_set():
                try:
                    client.get("locate", address=address)
                except Exception as exc:  # noqa: BLE001 - recording all
                    failures.append(repr(exc))

        threads = [threading.Thread(target=hammer) for _ in range(3)]
        try:
            before = SnapshotClient(coordinator.url).get(
                "locate", address=address
            )
            for thread in threads:
                thread.start()
            result = coordinator.reload(snapshot_b_path)
            stop.set()
            for thread in threads:
                thread.join()
            assert result["gen"] == 2
            assert result["staged_replicas"] == len(shards)
            assert failures == []
            after = SnapshotClient(coordinator.url).get(
                "locate", address=address
            )
            assert after["lat"] == pytest.approx(before["lat"] + 1.0)
            # The shards dropped the old generation entirely.
            shard_stats = shards[0].stats()["shard"]
            assert shard_stats["staged_gens"] == [2]
            assert coordinator.routing.gen == 2
        finally:
            stop.set()
            coordinator.stop()
            for shard in shards:
                shard.stop()

    def test_unknown_pinned_generation_answers_503(
        self, dataset, snapshot_path
    ):
        shard = ShardServer(snapshot_path, None, None, port=0)
        shard.start()
        try:
            status, body = _raw_get(
                shard.url, "/locate?address=1&_gen=99"
            )
            assert status == 503
            assert "generation 99" in json.loads(body)["error"]
        finally:
            shard.stop()

    def test_reload_missing_snapshot_is_rejected(
        self, dataset, snapshot_path, tmp_path
    ):
        ranges = partition_bounds(dataset.addresses, 1)
        shards, urls_by_slot = _start_fleet(snapshot_path, ranges)
        routing = build_routing(ranges, urls_by_slot)
        coordinator = ClusterCoordinator(routing, port=0)
        coordinator.start()
        try:
            with pytest.raises(ServeError):
                coordinator.reload(tmp_path / "missing.npz")
            # The fleet still serves generation 1 afterwards.
            assert coordinator.routing.gen == 1
            status, _ = _raw_get(
                coordinator.url,
                f"/locate?address={int(dataset.addresses[0])}",
            )
            assert status == 200
        finally:
            coordinator.stop()
            for shard in shards:
                shard.stop()


class _CountingPool:
    """A stand-in for the coordinator's fan-out pool that counts legs.

    ``forbid=True`` makes every submission fail the test instead.
    """

    def __init__(self, real, forbid: bool = False) -> None:
        self.real = real
        self.forbid = forbid
        self.submitted = 0

    def submit(self, fn, *args):
        if self.forbid:
            raise AssertionError("fan-out pool used by a one-range request")
        self.submitted += 1
        return self.real.submit(fn, *args)


class TestCallerRunLeg:
    def _range_addresses(self, dataset, cluster, owner):
        owners = range_indices(cluster.routing.ranges, dataset.addresses)
        return [int(a) for a in dataset.addresses[owners == owner]]

    def test_one_range_requests_skip_the_fan_pool(
        self, dataset, cluster, single, monkeypatch
    ):
        monkeypatch.setattr(
            cluster, "_fan_pool", _CountingPool(cluster._fan_pool, forbid=True)
        )
        for owner in (0, 1):
            addrs = self._range_addresses(dataset, cluster, owner)[-3:]
            for target in (
                f"/locate?address={addrs[0]}",
                f"/locate?addresses={addrs[1]},{addrs[2]}",
            ):
                misses = cluster.cache.stats()["misses"]
                assert _raw_get(cluster.url, target) == _raw_get(
                    single.url, target
                )
                assert cluster.cache.stats()["misses"] == misses + 1

    def test_multi_range_fan_out_pools_all_legs_but_one(
        self, dataset, cluster, single, monkeypatch
    ):
        pool = _CountingPool(cluster._fan_pool)
        monkeypatch.setattr(cluster, "_fan_pool", pool)
        low = self._range_addresses(dataset, cluster, 0)[-4]
        high = self._range_addresses(dataset, cluster, 1)[-4]
        for target in (
            f"/locate?addresses={low},{high}",
            "/near?lat=41&lon=-99&k=3",
        ):
            before = pool.submitted
            assert _raw_get(cluster.url, target) == _raw_get(
                single.url, target
            )
            assert pool.submitted == before + 1

    def test_errors_keep_range_order(self, dataset, snapshot_path):
        """Range 0 sheds, range 1 is down: the earlier leg's error wins."""
        ranges = partition_bounds(dataset.addresses, 2)
        shard = ShardServer(
            snapshot_path, ranges[0].addr_lo, ranges[0].addr_hi, port=0
        )
        shard.start()
        # Routing generation 5 is not staged on the shard (it holds 1),
        # so every pinned leg to range 0 answers 503: shedding.
        routing = Routing(
            5,
            ranges,
            [
                ReplicaSet([ShardClient(shard.url)]),
                ReplicaSet([ShardClient(f"http://127.0.0.1:{_free_port()}")]),
            ],
            shard.index.snapshot_hash,
        )
        coordinator = ClusterCoordinator(
            routing, port=0, health_interval_s=60.0
        )
        coordinator.start()
        try:
            owners = range_indices(ranges, dataset.addresses)
            low = int(dataset.addresses[owners == 0][0])
            high = int(dataset.addresses[owners == 1][0])
            shed_body = _raw_get(
                shard.url, f"/internal/locate-lines?addresses={low}&_gen=5"
            )[1]
            assert b"generation 5 is not staged" in shed_body
            # Legs are ordered by range for fan-outs and by first
            # appearance for batched lookups.
            for target in (
                "/near?lat=40&lon=-100&k=5",
                f"/locate?addresses={low},{high}",
                f"/locate?address={low}",
            ):
                assert _raw_get(coordinator.url, target) == (503, shed_body)
            for target in (
                f"/locate?addresses={high},{low}",
                f"/locate?address={high}",
            ):
                status, body = _raw_get(coordinator.url, target)
                assert status == 503
                payload = json.loads(body)
                assert payload["error"].startswith("shard range unavailable")
                assert payload["retry_after_s"] == 1
        finally:
            coordinator.stop()
            shard.stop()


class TestMergeExpositions:
    def test_sums_matching_series(self):
        merged = merge_expositions(
            [
                'serve_requests_total{endpoint="locate"} 3\nup 1\n',
                'serve_requests_total{endpoint="locate"} 4\nup 1\n',
            ]
        )
        assert 'serve_requests_total{endpoint="locate"} 7' in merged
        assert "up 2" in merged

    def test_disjoint_series_pass_through(self):
        merged = merge_expositions(["a_total 1\n", "b_total 2.5\n"])
        assert "a_total 1" in merged
        assert "b_total 2.5" in merged

    def test_empty_input(self):
        assert merge_expositions([]) == ""
