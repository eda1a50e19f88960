"""The cluster coordinator: one front door over N shard ranges × R replicas.

Serves the exact protocol of a single-process
:class:`~repro.serve.server.SnapshotServer` — byte-identical bodies,
same status codes, same error messages — by routing and merging:

- ``/locate`` — binary search over the routing table's range bounds
  picks the one owning shard; point lookups flow through the
  coordinator's own :class:`MicroBatcher` (a miss flushes on its own
  thread when no flush is running) so misses that pile up during a
  flush coalesce into per-shard
  ``/internal/locate-lines`` batches whose pre-encoded JSON lines are
  spliced straight into responses.
- ``/near`` — scatter to every range, merge by ``(miles, address)``
  (the index's own tie-break, so the merged order equals the
  single-process order), truncate to ``k``/``limit``.
- ``/as/<asn>`` — scatter; exactly one shard owns any AS, so the first
  ``200`` is relayed verbatim.
- ``/distance-preference`` — scatter ``/internal/pref-partial``; the
  integer histograms sum exactly to the single-process counts and the
  shared payload builder re-emits identical JSON.

Work leaves the request thread only where it runs concurrently with
something the thread does itself.  A lone ``/locate`` miss is flushed,
routed, sent and read on its own thread.  A request that needs several
ranges sends every leg but the last to the fan-out pool and asks the
last itself, so a one-range request (a single-address miss, most
batches) takes no fan-out hop.  Within a leg, the replica pool sees a
shard request only when its reply has not started within the hedge
delay, and then also runs the hedge (:mod:`repro.cluster.client`).
Every shard request is pinned to the routing *generation* it was
planned against (``?_gen=``) and carries the coordinator's trace id in
the ``X-Repro-Trace`` header.  Failures fail over between replicas with
hedged retry (:func:`request_with_failover`); a hot snapshot swap
(:meth:`ClusterCoordinator.reload`) stages the new snapshot shard by
shard, then atomically replaces the routing object — requests in
flight finish against the old generation, which is retired only after
its pin count drains.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path
from urllib.parse import quote

import numpy as np

from repro import __version__
from repro.core.distance import preference_from_counts
from repro.errors import (
    AnalysisError,
    GeoError,
    OverloadError,
    ServeError,
)
from repro.geo.regions import region_by_name
from repro.obs.bus import TelemetryBus, publish as _bus_publish
from repro.obs.export import CONTENT_TYPE as _METRICS_CONTENT_TYPE
from repro.obs.export import merge_expositions, render_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import (
    TraceContext,
    Tracer,
    TraceSampler,
    new_trace_id,
    use_trace_context,
)
from repro.cluster.client import (
    HealthChecker,
    ReplicaSet,
    ShardClient,
    ShardShedding,
    ShardUnavailable,
    request_with_failover,
)
from repro.cluster.plan import ShardRange, partition_bounds, range_indices
from repro.serve.batcher import MicroBatcher
from repro.serve.cache import LruCache
from repro.serve.server import (
    _JSON_TYPE,
    _Handler,
    _TcpServer,
    encode_json,
    endpoint_of,
    int_param,
    locate_miss_message,
    parse_address_list,
    parse_as_path,
    parse_near_query,
    parse_query,
    preference_payload,
)

_TEXT_METRICS_TYPE = _METRICS_CONTENT_TYPE.encode("latin-1")


class Routing:
    """One immutable generation of the cluster's routing state.

    Replaced wholesale on reload — readers grab a reference once per
    request and *pin* it, so a swap mid-request can never mix two
    snapshots, and the old generation is retired only after its pin
    count drains to zero.
    """

    def __init__(
        self,
        gen: int,
        ranges: list[ShardRange],
        replica_sets: list[ReplicaSet],
        snapshot_hash: str,
    ) -> None:
        if len(ranges) != len(replica_sets):
            raise ServeError("one replica set per shard range required")
        self.gen = gen
        self.ranges = ranges
        self.replica_sets = replica_sets
        self.snapshot_hash = snapshot_hash
        self.created_unix = time.time()
        self._inflight = 0
        self._lock = threading.Lock()

    def __enter__(self) -> "Routing":
        with self._lock:
            self._inflight += 1
        return self

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            self._inflight -= 1

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    def range_index(self, address: int) -> int:
        return int(range_indices(self.ranges, np.array([address]))[0])


class ClusterCoordinator:
    """Scatter-gather front end over a fleet of :class:`ShardServer`."""

    # Cheap local reads (and admin) bypass admission control and the
    # response cache; "analytics" is store-backed, so caching on the
    # snapshot hash would hide newly analyzed generations anyway.
    always_admit = ("healthz", "stats", "metrics", "admin", "analytics")

    def __init__(
        self,
        routing: Routing,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_size: int = 8192,
        max_inflight: int = 64,
        max_pending: int = 4096,
        max_batch: int = 512,
        retry_after_s: int = 1,
        shard_timeout_s: float = 5.0,
        hedge_delay_s: float = 0.05,
        stage_timeout_s: float = 300.0,
        health_interval_s: float = 0.5,
        fan_workers: int = 8,
        replica_workers: int = 16,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        bus: TelemetryBus | None = None,
        trace_sampler: TraceSampler | None = None,
        analytics_db: str | Path | None = None,
        analytics_campaign: str = "ingest",
    ) -> None:
        self._routing = routing
        self._analytics_db = (
            None if analytics_db is None else Path(analytics_db)
        )
        self._analytics_campaign = analytics_campaign
        self._analytics_store = None
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer
        self.bus = bus
        self.trace_sampler = trace_sampler
        self.cache = LruCache(cache_size)
        self.batcher = MicroBatcher(
            self._locate_lines_batch,
            max_batch=max_batch,
            max_pending=max_pending,
        )
        self._max_inflight = max_inflight
        self._retry_after_s = retry_after_s
        self._shard_timeout_s = shard_timeout_s
        self._hedge_delay_s = hedge_delay_s
        self._stage_timeout_s = stage_timeout_s
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._reload_lock = threading.Lock()
        self._started_unix = time.time()
        # Two pools so range-level fan-out tasks never wait on workers
        # they themselves occupy: ranges fan on one; replica tries that
        # are hedged (a slow exchange and its hedges) run on the other.
        self._fan_pool = ThreadPoolExecutor(
            max_workers=fan_workers, thread_name_prefix="coord-fan"
        )
        self._replica_pool = ThreadPoolExecutor(
            max_workers=replica_workers, thread_name_prefix="coord-replica"
        )
        self._health = HealthChecker(
            lambda: self._routing, interval_s=health_interval_s
        )
        self._httpd = _TcpServer((host, port), _Handler)
        self._httpd.app = self  # type: ignore[assignment]
        self._thread: threading.Thread | None = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def routing(self) -> Routing:
        """The active routing generation (read-only view)."""
        return self._routing

    def start(self) -> "ClusterCoordinator":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="coord-accept",
            daemon=True,
        )
        self._thread.start()
        self._health.start()
        return self

    def stop(self) -> None:
        self._health.stop()
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self.batcher.close()
        self._fan_pool.shutdown(wait=False)
        self._replica_pool.shutdown(wait=False)
        for rset in self._routing.replica_sets:
            rset.close()

    def __enter__(self) -> "ClusterCoordinator":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- admission -----------------------------------------------------------

    def _admit(self) -> bool:
        with self._inflight_lock:
            if self._inflight >= self._max_inflight:
                return False
            self._inflight += 1
            return True

    def _release(self) -> None:
        with self._inflight_lock:
            self._inflight -= 1

    @property
    def inflight(self) -> int:
        with self._inflight_lock:
            return self._inflight

    @property
    def retry_after_s(self) -> int:
        return self._retry_after_s

    # -- request handling ----------------------------------------------------

    def handle_target(
        self, target: str, trace_parent: str = ""
    ) -> tuple[int, bytes, bytes]:
        """Answer one GET target; the shared transport's entry point."""
        path, _, raw_query = target.partition("?")
        endpoint = endpoint_of(path)
        start = time.perf_counter()
        sampled = bool(trace_parent) or (
            self.trace_sampler.should_sample()
            if self.trace_sampler is not None
            else True
        )
        if trace_parent:
            trace_id = trace_parent
        else:
            trace_id = (
                new_trace_id() if (sampled and self.tracer is not None) else ""
            )
        shed_able = endpoint not in self.always_admit
        admitted = False
        status = 500
        try:
            if endpoint == "metrics":
                status = 200
                return status, self._merged_metrics(), _TEXT_METRICS_TYPE
            if shed_able:
                admitted = self._admit()
                if not admitted:
                    status = 503
                    self.metrics.counter("coord.shed").add(1)
                    return (
                        status,
                        encode_json(
                            {
                                "error": "over capacity",
                                "retry_after_s": self._retry_after_s,
                            }
                        ),
                        _JSON_TYPE,
                    )
            routing = self._routing
            if shed_able:
                hit, cached = self.cache.get((target, routing.snapshot_hash))
                if hit:
                    status = 200
                    self.metrics.counter("coord.cache.hits").add(1)
                    return status, cached, _JSON_TYPE
                self.metrics.counter("coord.cache.misses").add(1)
            try:
                with routing:
                    if self.tracer is not None and sampled and shed_able:
                        context = TraceContext(trace_id=trace_id)
                        with use_trace_context(context), self.tracer.span(
                            f"coord.{endpoint}"
                        ):
                            status, payload = self._dispatch(
                                endpoint, path, raw_query, routing, trace_id
                            )
                    else:
                        status, payload = self._dispatch(
                            endpoint, path, raw_query, routing, trace_id
                        )
            except ShardShedding as exc:
                # Every replica of some range is shedding: relay the
                # shard's own 503 envelope so clients back off the same
                # way they would against a single overloaded server.
                status = 503
                self.metrics.counter("coord.upstream_shed").add(1)
                return status, exc.body, _JSON_TYPE
            except ShardUnavailable as exc:
                status = 503
                self.metrics.counter("coord.unavailable").add(1)
                return (
                    status,
                    encode_json(
                        {
                            "error": str(exc),
                            "retry_after_s": self._retry_after_s,
                        }
                    ),
                    _JSON_TYPE,
                )
            except OverloadError as exc:
                status = 503
                self.metrics.counter("coord.shed").add(1)
                return (
                    status,
                    encode_json(
                        {
                            "error": str(exc),
                            "retry_after_s": self._retry_after_s,
                        }
                    ),
                    _JSON_TYPE,
                )
            except ServeError as exc:
                status, payload = 400, {"error": str(exc)}
            except (AnalysisError, GeoError) as exc:
                status, payload = 404, {"error": str(exc)}
            body = payload if isinstance(payload, bytes) else encode_json(payload)
            if shed_able and status == 200:
                self.cache.put((target, routing.snapshot_hash), body)
            return status, body, _JSON_TYPE
        finally:
            if admitted:
                self._release()
            wall_ms = (time.perf_counter() - start) * 1e3
            self.metrics.counter(f"coord.requests.{endpoint}").add(1)
            self.metrics.histogram(f"coord.latency_ms.{endpoint}").observe(
                wall_ms
            )
            self._publish_access(endpoint, target, status, wall_ms, trace_id)

    def _publish_access(
        self,
        endpoint: str,
        target: str,
        status: int,
        wall_ms: float,
        trace_id: str,
    ) -> None:
        fields = {
            "endpoint": endpoint,
            "target": target,
            "status": status,
            "ms": round(wall_ms, 3),
            "trace_id": trace_id,
            "sampled": bool(trace_id),
            "component": "coordinator",
        }
        if self.bus is not None:
            self.bus.publish("access", **fields)
        else:
            _bus_publish("access", **fields)

    def _dispatch(
        self,
        endpoint: str,
        path: str,
        raw_query: str,
        routing: Routing,
        trace_id: str,
    ):
        params = parse_query(raw_query)
        if endpoint == "healthz":
            return 200, {
                "status": "ok",
                "version": __version__,
                "snapshot_hash": routing.snapshot_hash,
                "gen": routing.gen,
                "built_unix": round(routing.created_unix, 3),
                "uptime_s": round(time.time() - self._started_unix, 3),
            }
        if endpoint == "stats":
            return 200, self.stats()
        if endpoint == "admin":
            return self._handle_admin(path, params)
        if endpoint == "analytics":
            return self._handle_analytics(path, params, routing)
        if endpoint == "locate":
            return self._handle_locate(params, routing, trace_id)
        if endpoint == "near":
            return self._handle_near(
                params, path, raw_query, routing, trace_id
            )
        if endpoint == "as":
            return self._handle_as(path, raw_query, routing, trace_id)
        if endpoint == "distance-preference":
            return self._handle_preference(params, routing, trace_id)
        return 404, {"error": f"unknown endpoint {path!r}"}

    # -- locate --------------------------------------------------------------

    def _handle_locate(
        self, params: dict[str, str], routing: Routing, trace_id: str
    ):
        if "addresses" in params:
            addresses = parse_address_list(params["addresses"])
            lines = self._fetch_locate_lines(routing, addresses, trace_id)
            # Splicing pre-encoded lines reproduces the single-process
            # body byte for byte: compact JSON composes.
            return 200, b'{"results":[' + b",".join(lines) + b"]}"
        if "address" not in params:
            raise ServeError("locate requires ?address=N (or ?addresses=a,b)")
        address = int_param(params["address"], "address")
        future = self.batcher.submit(address)
        self.metrics.gauge("coord.queue_depth").set(self.batcher.queue_depth)
        line = future.result()
        if line == b"null":
            return 404, {"error": locate_miss_message(address)}
        return 200, line

    def _locate_lines_batch(self, addresses: list[int]) -> list[bytes]:
        """The coordinator batcher's compute fn: route, fan, reassemble."""
        routing = self._routing
        with routing:
            return self._fetch_locate_lines(routing, list(addresses), "")

    def _fetch_locate_lines(
        self, routing: Routing, addresses: list[int], trace_id: str
    ) -> list[bytes]:
        owners = range_indices(
            routing.ranges, np.asarray(addresses, dtype=np.int64)
        )
        groups: dict[int, list[int]] = {}
        for position, owner in enumerate(owners):
            groups.setdefault(int(owner), []).append(position)
        legs = []
        for owner, positions in groups.items():
            joined = ",".join(str(addresses[p]) for p in positions)
            target = (
                f"/internal/locate-lines?addresses={joined}"
                f"&_gen={routing.gen}"
            )
            legs.append((owner, target))
        futures = self._ask_ranges(routing, legs, trace_id)
        lines: list[bytes] = [b""] * len(addresses)
        for future, (owner, positions) in zip(futures, groups.items()):
            status, body = future.result()
            if status != 200:
                raise ShardUnavailable(
                    f"locate fan-out to range {owner} answered {status}"
                )
            shard_lines = body.split(b"\n")
            if len(shard_lines) != len(positions):
                raise ShardUnavailable(
                    f"range {owner} returned {len(shard_lines)} lines "
                    f"for {len(positions)} addresses"
                )
            for position, line in zip(positions, shard_lines):
                lines[position] = line
        return lines

    # -- scatter-gather ------------------------------------------------------

    def _range_request(
        self, routing: Routing, owner: int, target: str, trace_id: str
    ) -> tuple[int, bytes]:
        return request_with_failover(
            routing.replica_sets[owner],
            target,
            executor=self._replica_pool,
            trace_id=trace_id,
            timeout_s=self._shard_timeout_s,
            hedge_delay_s=self._hedge_delay_s,
            metrics=self.metrics,
        )

    def _ask_ranges(
        self, routing: Routing, legs: list[tuple[int, str]], trace_id: str
    ) -> list[Future[tuple[int, bytes]]]:
        """Ask each ``(range, target)`` leg concurrently; one future per leg.

        Every leg but the last runs on the fan-out pool; the last runs
        on the calling thread, which would otherwise only wait.  Its
        outcome is held in a future like the others, so callers that
        read the futures in order see errors in leg order.
        """
        futures = [
            self._fan_pool.submit(
                self._range_request, routing, owner, target, trace_id
            )
            for owner, target in legs[:-1]
        ]
        owner, target = legs[-1]
        own: Future[tuple[int, bytes]] = Future()
        try:
            own.set_result(
                self._range_request(routing, owner, target, trace_id)
            )
        except Exception as exc:  # raised when read, after earlier legs
            own.set_exception(exc)
        futures.append(own)
        return futures

    def _fan_all(
        self, routing: Routing, target: str, trace_id: str
    ) -> list[tuple[int, bytes]]:
        """The same pinned target against every shard range, concurrently."""
        legs = [(owner, target) for owner in range(len(routing.ranges))]
        return [f.result() for f in self._ask_ranges(routing, legs, trace_id)]

    @staticmethod
    def _pinned(path: str, raw_query: str, gen: int) -> str:
        separator = "&" if raw_query else ""
        return f"{path}?{raw_query}{separator}_gen={gen}"

    def _handle_near(
        self,
        params: dict[str, str],
        path: str,
        raw_query: str,
        routing: Routing,
        trace_id: str,
    ):
        query, limit = parse_near_query(params)
        target = self._pinned(path, raw_query, routing.gen)
        responses = self._fan_all(routing, target, trace_id)
        for status, body in responses:
            if status != 200:
                # Parameter validation is data-independent, so every
                # shard produced this same error body — relay it.
                return status, body
        merged: list[dict] = []
        for _, body in responses:
            merged.extend(json.loads(body)["results"])
        merged.sort(key=lambda record: (record["miles"], record["address"]))
        return 200, {"query": query, "results": merged[:limit]}

    def _handle_as(
        self, path: str, raw_query: str, routing: Routing, trace_id: str
    ):
        parse_as_path(path)  # identical 400s before any fan-out
        target = self._pinned(path, raw_query, routing.gen)
        responses = self._fan_all(routing, target, trace_id)
        for status, body in responses:
            if status == 200:
                # Exactly one shard owns an AS (minimum-address rule);
                # its precomputed full-snapshot record relays verbatim.
                return status, body
        return responses[0]

    def _handle_preference(
        self, params: dict[str, str], routing: Routing, trace_id: str
    ):
        name = params.get("region")
        if not name:
            raise ServeError(
                "distance-preference requires ?region= (e.g. US, Europe, Japan)"
            )
        region = region_by_name(name)
        target = (
            f"/internal/pref-partial?region={quote(name, safe='')}"
            f"&_gen={routing.gen}"
        )
        responses = self._fan_all(routing, target, trace_id)
        for status, body in responses:
            if status != 200:
                # Too-few-nodes is a full-region fact every shard
                # computes identically from the coordinate sidecar.
                return status, body
        partials = [json.loads(body) for _, body in responses]
        link_counts = np.sum(
            [p["link_counts"] for p in partials], axis=0, dtype=np.int64
        )
        pair_counts = np.sum(
            [p["pair_counts"] for p in partials], axis=0, dtype=np.int64
        )
        pref = preference_from_counts(
            region.name,
            partials[0]["bin_miles"],
            link_counts,
            pair_counts,
            partials[0]["n_nodes"],
        )
        return 200, preference_payload(pref, params)

    # -- observability -------------------------------------------------------

    def _merged_metrics(self) -> bytes:
        bodies = [render_prometheus(self.metrics)]
        routing = self._routing
        for rset in routing.replica_sets:
            for idx, client in enumerate(rset.clients):
                if not rset.is_healthy(idx):
                    continue
                try:
                    status, body = client.get("/metrics", timeout_s=2.0)
                except ShardUnavailable:
                    continue
                if status == 200:
                    bodies.append(body.decode("utf-8", errors="replace"))
        return merge_expositions(bodies).encode("utf-8")

    def stats(self) -> dict:
        routing = self._routing
        stats = {
            "cluster": {
                "gen": routing.gen,
                "snapshot_hash": routing.snapshot_hash,
                "built_unix": round(routing.created_unix, 3),
                "inflight_pins": routing.inflight,
                "ranges": [
                    {
                        "range": rng.label(),
                        "n_healthy": rset.n_healthy,
                        "replicas": rset.snapshot(),
                    }
                    for rng, rset in zip(
                        routing.ranges, routing.replica_sets
                    )
                ],
            },
            "cache": self.cache.stats(),
            "batcher": self.batcher.stats(),
            "inflight": self.inflight,
            "max_inflight": self._max_inflight,
            "shed_requests": int(self.metrics.counter("coord.shed").value),
            "queue_depth": self.batcher.queue_depth,
            "uptime_s": round(time.time() - self._started_unix, 3),
            "metrics": self.metrics.snapshot(),
        }
        analytics = self._analytics_stats()
        if analytics is not None:
            stats["analytics"] = analytics
        return stats

    # -- hot snapshot swap ---------------------------------------------------

    def _handle_admin(self, path: str, params: dict[str, str]):
        _, _, verb = path.lstrip("/").partition("/")
        if verb == "reload":
            snapshot = params.get("snapshot")
            if not snapshot:
                raise ServeError("reload requires ?snapshot=PATH")
            return 200, self.reload(snapshot)
        if verb == "status":
            return 200, self.stats()
        return 404, {"error": f"unknown admin endpoint {path!r}"}

    # -- continuous analytics ------------------------------------------------

    def _analytics(self):
        """The lazily opened metric store (None when not configured)."""
        if self._analytics_db is None:
            return None
        if self._analytics_store is None:
            from repro.analytics import MetricStore

            self._analytics_store = MetricStore(self._analytics_db)
        return self._analytics_store

    def _handle_analytics(
        self, path: str, params: dict[str, str], routing: Routing
    ):
        """``/analytics/latest`` and ``/analytics/history`` reads.

        Store-backed, not scatter-gather: the analytics series is
        global (the ingest observer computes it on the full snapshot),
        so the coordinator answers from the shared metric store.
        """
        store = self._analytics()
        if store is None:
            raise ServeError(
                "analytics is not configured (start with --analytics-db)"
            )
        campaign_id = store.campaign_id(self._analytics_campaign)
        if campaign_id is None:
            raise AnalysisError(
                f"no analytics recorded for campaign "
                f"{self._analytics_campaign!r}"
            )
        _, _, verb = path.lstrip("/").partition("/")
        if verb == "latest":
            record = store.latest(campaign_id)
            if record is None:
                raise AnalysisError("no generation analyzed yet")
            return 200, {
                "campaign": self._analytics_campaign,
                **record,
                "in_sync": record["snapshot_hash"] == routing.snapshot_hash,
                "alerts": store.alerts(campaign_id, limit=20),
            }
        if verb == "history":
            metric = params.get("metric")
            if not metric:
                raise ServeError("history requires ?metric=NAME")
            limit = int_param(params.get("limit", "50"), "limit")
            if limit < 1:
                raise ServeError("limit must be >= 1")
            points = store.history(campaign_id, metric, limit=limit)
            if not points:
                raise AnalysisError(
                    f"no recorded values for metric {metric!r}"
                )
            return 200, {
                "campaign": self._analytics_campaign,
                "metric": metric,
                "points": [
                    {"gen": gen, "value": value} for gen, value in points
                ],
            }
        return 404, {"error": f"unknown analytics endpoint {path!r}"}

    def _analytics_stats(self) -> dict | None:
        """The ``stats()`` analytics block (None when unconfigured)."""
        store = self._analytics()
        if store is None:
            return None
        routing = self._routing
        block: dict = {
            "campaign": self._analytics_campaign,
            "latest_gen": None,
            "in_sync": False,
        }
        campaign_id = store.campaign_id(self._analytics_campaign)
        if campaign_id is None:
            return block
        record = store.latest(campaign_id)
        if record is None:
            return block
        block["latest_gen"] = record["gen"]
        block["in_sync"] = record["snapshot_hash"] == routing.snapshot_hash
        # The store does not know the cluster's generation numbering
        # (a reload bumps routing.gen independently), so lag is exact
        # only when the hashes line up.
        block["lag"] = 0 if block["in_sync"] else None
        block["age_s"] = round(time.time() - record["created_unix"], 3)
        block["alerts"] = len(store.alerts(campaign_id, limit=10_000))
        return block

    def reload(self, snapshot_path: str | Path) -> dict:
        """Hot-swap the whole fleet onto a new snapshot, dropping nothing.

        Stage on every reachable replica (the expensive part — the old
        generation serves throughout), verify every stage reported one
        consistent snapshot hash, activate, then atomically flip the
        routing object.  Requests pinned to the old generation drain
        before it is retired.  A replica that is down through the
        reload stays ejected: its ``/healthz`` hash no longer matches
        the routing generation, so the health checker will not readmit
        it until a later reload re-stages it.

        Raises:
            ServeError: when planning fails, a *healthy* replica fails
                to stage, any range would end up with no staged
                replica, or the staged hashes disagree.
        """
        with self._reload_lock:
            old = self._routing
            new_gen = old.gen + 1
            path = Path(snapshot_path)
            ranges = partition_bounds(
                _snapshot_addresses(path), len(old.ranges)
            )
            staged: list[ShardClient] = []
            hashes: set[str] = set()
            for slot, rng in enumerate(ranges):
                rset = old.replica_sets[slot]
                staged_in_slot = 0
                for idx, client in enumerate(rset.clients):
                    target = _stage_target(path, new_gen, rng)
                    try:
                        status, body = client.get(
                            target, timeout_s=self._stage_timeout_s
                        )
                    except ShardUnavailable as exc:
                        if rset.is_healthy(idx):
                            raise ServeError(
                                f"reload aborted: staging on {client.url} "
                                f"failed: {exc}"
                            ) from exc
                        continue
                    if status != 200:
                        raise ServeError(
                            f"reload aborted: stage on {client.url} answered "
                            f"{status}: {body[:200].decode('utf-8', 'replace')}"
                        )
                    hashes.add(json.loads(body)["snapshot_hash"])
                    staged.append(client)
                    staged_in_slot += 1
                if staged_in_slot == 0:
                    raise ServeError(
                        f"reload aborted: no replica of range {rng.label()} "
                        "could stage the new snapshot"
                    )
            if len(hashes) != 1:
                raise ServeError(
                    f"reload aborted: inconsistent snapshot hashes {hashes}"
                )
            for client in staged:
                status, body = client.get(
                    f"/admin/activate?gen={new_gen}", timeout_s=10.0
                )
                if status != 200:
                    raise ServeError(
                        f"reload aborted: activate on {client.url} answered "
                        f"{status}"
                    )
            self._routing = Routing(
                new_gen, ranges, old.replica_sets, next(iter(hashes))
            )
            # Zero dropped requests: old-generation pins drain before
            # the shards may forget that generation.
            deadline = time.monotonic() + 5.0
            while old.inflight > 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            for client in staged:
                try:
                    client.get(f"/admin/retire?keep={new_gen}", timeout_s=10.0)
                except ShardUnavailable:
                    pass
            self.metrics.counter("coord.reloads").add(1)
            return {
                "gen": new_gen,
                "snapshot_hash": next(iter(hashes)),
                "ranges": [rng.label() for rng in ranges],
                "staged_replicas": len(staged),
            }


# --- fleet construction ------------------------------------------------------


def _snapshot_addresses(path: Path) -> np.ndarray:
    """The address column of a snapshot, loaded as lazily as possible."""
    if path.suffix == ".npz":
        try:
            with np.load(path, allow_pickle=False) as payload:
                return np.asarray(payload["addresses"], dtype=np.int64)
        except (OSError, KeyError, ValueError) as exc:
            raise ServeError(
                f"cannot read addresses from {path}: {exc}"
            ) from exc
    from repro.datasets.serialize import load_dataset

    return load_dataset(path).addresses


def _stage_target(path: Path, gen: int, rng: ShardRange) -> str:
    target = (
        f"/admin/stage?snapshot={quote(str(path), safe='')}&gen={gen}"
    )
    if rng.addr_lo is not None:
        target += f"&lo={rng.addr_lo}"
    if rng.addr_hi is not None:
        target += f"&hi={rng.addr_hi}"
    return target


def build_routing(
    ranges: list[ShardRange],
    urls_by_slot: list[list[str]],
    *,
    gen: int = 1,
    timeout_s: float = 5.0,
    wait_timeout_s: float = 60.0,
) -> Routing:
    """Connect to a freshly spawned fleet and assemble its routing table.

    Waits for every replica's ``/healthz``, verifies all replicas agree
    on one snapshot hash, and returns the generation-``gen`` routing.

    Raises:
        ServeError: on timeout or on a snapshot-hash mismatch (a shard
            was pointed at the wrong file).
    """
    if len(ranges) != len(urls_by_slot):
        raise ServeError("one url list per shard range required")
    replica_sets = [
        ReplicaSet([ShardClient(url, timeout_s) for url in urls])
        for urls in urls_by_slot
    ]
    hashes: set[str] = set()
    deadline = time.monotonic() + wait_timeout_s
    for rset in replica_sets:
        for client in rset.clients:
            while True:
                payload = client.probe(timeout_s=2.0)
                if payload is not None:
                    hashes.add(payload["snapshot_hash"])
                    break
                if time.monotonic() > deadline:
                    raise ServeError(
                        f"shard {client.url} not healthy after "
                        f"{wait_timeout_s:.0f}s"
                    )
                time.sleep(0.05)
    if len(hashes) != 1:
        raise ServeError(
            f"shards disagree on the snapshot: hashes {hashes}"
        )
    return Routing(gen, ranges, replica_sets, next(iter(hashes)))
