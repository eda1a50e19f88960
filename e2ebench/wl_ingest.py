"""``ingest_flip``: generation flips through the ingester, beside reads.

Deployment: ``repro cluster serve`` (CLI defaults) over the small
snapshot, with its analytics endpoints pointed at the ingester's metric
store, and ``repro ingest run --spool … --coordinator … --analytics
--publish-batches 1`` publishing a generation for every delta.

Load, all from this one thread over two connections:

- connection 0 — an open loop of batched ``/locate?addresses=`` reads
  (32 Zipf-popular addresses from both shard ranges) at a fixed rate;
- connection 1 — the control loop: ``/healthz`` and
  ``/analytics/latest`` polls, and after every flip ``/distance-
  preference`` for Japan, then Europe, then US.

The writer is a closed loop: it spools one ``DeltaStream`` batch and
writes the next only once the coordinator serves the previous one's
generation.  The first delta is warm-up; the timed phase starts at its
flip, so every timed delta arrives while the ingester is still busy
with its predecessor — the steady state of a continuous stream.

Reported: freshness as ``primary_p50_ms``, batched-read latency as
``secondary_p50_ms``, and the CPU of the cluster and the ingester over
the timed phase per correct answer (reads and f(d)) as ``cpu_ms_per_op``.
"""

from __future__ import annotations

import json
import os
import re
import time

import numpy as np
from repro.analytics import DEFAULT_DB_NAME
from repro.datasets.serialize import load_dataset
from repro.geo.regions import region_by_name
from repro.ingest import save_delta
from repro.measure.stream import DeltaStream
from repro.serve.index import SnapshotIndex
from repro.serve.server import encode_json, preference_payload

import procs
import spans as spanlib
import stats
import streams
from harness import Context, Result, coordinator_delta, describe_delta
from loadgen import Client, Request

#: Batched reads per second on connection 0.
READ_RATE = 50.0
#: Launches per run; the median launch-to-ready time is ``setup_s``.
SETUPS = 3
#: Control-loop poll period (``/healthz`` and ``/analytics/latest``).
POLL_S = 0.05
#: Regions whose f(d) is fetched after every flip, in this order.
PREF_REGIONS = ("Japan", "Europe", "US")
#: Longest wait for the last timed delta to become fresh.
DRAIN_S = 60.0

INGEST_RE = re.compile(r"ingest pid=\d+ wal_seq=\d+ gen=\d+ hash=[0-9a-f]+")


class Flip:
    """One spooled delta and what the benchmark saw of its generation."""

    def __init__(self, number: int, batch, created: float) -> None:
        self.number = number
        self.batch = batch
        self.created = created
        self.timed = False
        self.hash = ""
        self.flip_t = 0.0
        self.row_t = 0.0
        self.pref_done_t = 0.0
        self.prefs: list[Request] = []

    @property
    def fresh(self) -> bool:
        return bool(self.flip_t and self.row_t)


class FlipRunner:
    """The writer and control loop of one timed phase."""

    def __init__(
        self, ctx: Context, client: Client, stream, spool, base_hash: str, read_pool
    ) -> None:
        self.ctx = ctx
        self.read_pool = read_pool
        self.stopped = False
        self.client = client
        self.stream = stream
        self.spool = spool
        self.flips: list[Flip] = []
        self.served = 0  # generations observed on /healthz (0 = base)
        self.hashes = {base_hash: 0}
        self.timed_until = None  # perf_counter end of the timed phase
        self.pref_queue: list[tuple[Flip, str]] = []
        self.control_busy = False
        self.errors: list[str] = []
        self.reads: list[Request] = []
        self.reads_done = 0

    def spool_next(self) -> None:
        batch = self.stream.next_batch()
        created = time.perf_counter()
        batch = batch.stamped(time.time())
        flip = Flip(len(self.flips) + 1, batch, created)
        flip.timed = self.timed_until is not None
        self.flips.append(flip)
        tmp = self.spool / f"{flip.number:06d}.part"
        save_delta(batch, tmp)
        os.replace(tmp, self.spool / f"{flip.number:06d}.npz")

    # -- control loop --------------------------------------------------------

    def poll(self) -> None:
        if self.control_busy or self.stopped:
            return
        if self.pref_queue:
            flip, region = self.pref_queue.pop(0)
            target = f"/distance-preference?region={region}"
            self._control(target, lambda r: self._on_pref(flip, r))
            flip.prefs.append(self._last)
            return
        stale = next((f for f in self.flips if f.flip_t and not f.row_t), None)
        if stale is not None:
            self._control("/analytics/latest", self._on_analytics)
        else:
            self._control("/healthz", self._on_health)

    def _control(self, target: str, handler) -> None:
        self.control_busy = True

        def done(request: Request) -> None:
            self.control_busy = False
            handler(request)
            self.client.call_at(time.perf_counter() + POLL_S, self.poll)

        self._last = Request(target, time.perf_counter(), None, done)
        self.client.send(1, self._last)

    def _on_health(self, request: Request) -> None:
        if request.status != 200:
            self.errors.append(f"/healthz answered {request.status}")
            return
        served = json.loads(request.body)["snapshot_hash"]
        if served in self.hashes:
            return
        # The writer keeps one delta in flight, so a new hash is the
        # newest spooled delta's generation.
        flip = self.flips[-1]
        flip.hash, flip.flip_t = served, request.done
        self.hashes[served] = flip.number
        self.served = flip.number
        if self.timed_until is None:
            self.timed_until = request.done + self.ctx.seconds
            self.start_reads(request.done)
        elif flip.timed:
            self.pref_queue += [(flip, region) for region in PREF_REGIONS]
        if request.done < self.timed_until:
            self.spool_next()

    def _on_analytics(self, request: Request) -> None:
        if request.status != 200:
            return  # no row yet (404 before the first analysed generation)
        latest = json.loads(request.body).get("snapshot_hash")
        number = self.hashes.get(latest)
        if number is None:
            return
        for flip in self.flips[:number]:
            if not flip.row_t:
                flip.row_t = request.done

    def _on_pref(self, flip: Flip, request: Request) -> None:
        if len(flip.prefs) == len(PREF_REGIONS) and all(r.done for r in flip.prefs):
            flip.pref_done_t = request.done

    # -- reads ---------------------------------------------------------------

    def start_reads(self, t0: float) -> None:
        batches = streams.ReadBatches(self.read_pool, self.ctx.seed)
        n = int(READ_RATE * self.ctx.seconds)
        for i in range(n):
            addresses = batches.next()
            request = Request(
                "/locate?addresses=" + ",".join(map(str, addresses)),
                t0 + 0.01 + i / READ_RATE,
                [addresses, 0, 0],
                self._on_read,
            )
            self.client.call_at(request.due, self._send_read(request))
            self.reads.append(request)

    def _send_read(self, request: Request):
        def send() -> None:
            request.tag[1] = self.served
            self.client.send(0, request)
        return send

    def _on_read(self, request: Request) -> None:
        request.tag[2] = len(self.flips)
        self.reads_done += 1

    def finished(self) -> bool:
        if self.timed_until is None or time.perf_counter() < self.timed_until:
            return False
        return all(
            f.fresh and f.pref_done_t for f in self.flips if f.timed
        ) and self.reads_done == len(self.reads)


def _setup(ctx: Context, snapshot, snapshot_hash: str, out, spool, db):
    started = time.perf_counter()
    cluster, client, _ = ctx.launch_cluster(
        snapshot, snapshot_hash, 2, "--analytics-db", str(db)
    )
    ingester = ctx.launch(
        "ingester",
        ctx.repro_argv(
            "ingest", "run", "--base", str(snapshot), "--out", str(out),
            "--spool", str(spool), "--coordinator",
            f"http://{client.conns[0].host}:{client.conns[0].port}",
            "--analytics", "--publish-batches", "1",
        ),
    )
    ingester.wait_for(INGEST_RE, 120.0)
    return cluster, ingester, client, time.perf_counter() - started


def run(ctx: Context, result: Result) -> None:
    ctx.keep_cpus_awake()
    snapshot, snapshot_hash = ctx.snapshot("small")
    base = load_dataset(snapshot)

    setups = []
    for attempt in range(SETUPS):
        out = ctx.run_dir / f"ingest-{attempt}"
        spool = ctx.run_dir / f"spool-{attempt}"
        spool.mkdir()
        cluster, ingester, client, ready_s = _setup(
            ctx, snapshot, snapshot_hash, out, spool, out / DEFAULT_DB_NAME
        )
        setups.append(ready_s)
        if attempt < SETUPS - 1:
            client.close()
            ctx.stop(ingester, result)
            ctx.stop(cluster, result)
    result.put("setup_s", stats.median(setups), "s", len(setups))

    stream = DeltaStream(base, np.random.default_rng(np.random.SeedSequence([ctx.seed, 3])))
    runner = FlipRunner(ctx, client, stream, spool, snapshot_hash, base.addresses)
    before = json.loads(client.get(0, "/stats").body)
    cpu_groups = [cluster.pgid, ingester.pgid]
    cpu0 = sum(procs.group_cpu_seconds(g) for g in cpu_groups)
    client_cpu0 = time.process_time()
    sent0 = client.sent
    window0 = time.monotonic()
    runner.spool_next()
    runner.poll()
    ok = client.run(runner.finished, time.perf_counter() + ctx.seconds + DRAIN_S)
    window1 = time.monotonic()
    client_cpu = time.process_time() - client_cpu0
    client_sent = client.sent - sent0
    cpu = sum(procs.group_cpu_seconds(g) for g in cpu_groups) - cpu0
    # Let the control request in flight land before asking for /stats.
    runner.stopped = True
    client.run(lambda: not runner.control_busy, time.perf_counter() + 10.0)
    after = json.loads(client.get(0, "/stats").body)
    rss_by = procs.peak_rss_by_pid(cluster.pids() + ingester.pids())
    rss = sum(rss_by.values())
    result.info.append(
        f"peak RSS MiB: coordinator {rss_by.get(cluster.pgid, 0):.0f}, ingester "
        f"{rss_by.get(ingester.pgid, 0):.0f}, shards " + "/".join(
            f"{v:.0f}" for pid, v in sorted(rss_by.items())
            if pid not in (cluster.pgid, ingester.pgid)
        )
    )
    payloads = (
        spanlib.collect(ctx, cluster.pids() + ingester.pids()) if ctx.trace else []
    )
    client.close()
    ctx.stop(ingester, result)
    ctx.stop(cluster, result)
    if not ok:
        result.fail("timed phase did not finish: a delta never became fresh")
    for error in runner.errors:
        result.fail(error)
    result.put("rss_mb", rss, "MiB", 1)
    _verify_and_report(result, runner, base, before, after, cpu)
    result.info.append(
        f"client: {client_cpu * 1e6 / max(1, client_sent):.1f} us CPU/request "
        f"over {client_sent} requests (reads, control and f(d))"
    )
    if ctx.trace:
        spanlib.report_ingest_flip(
            result, payloads, runner.reads, client_sent, before, after,
            (int(window0 * 1e9), int(window1 * 1e9)), client_cpu, cpu,
        )


def _verify_and_report(
    result, runner: FlipRunner, base, before, after, cpu: float
) -> None:
    # In-process replay: generation k is the base plus deltas 1..k.
    indexes = [SnapshotIndex(base)]
    for flip in runner.flips:
        indexes.append(indexes[-1].apply_delta(flip.batch))
    for flip in runner.flips:
        if flip.hash and flip.hash != indexes[flip.number].snapshot_hash:
            result.fail(
                f"generation {flip.number}: /healthz served {flip.hash[:12]}, "
                f"replay gives {indexes[flip.number].snapshot_hash[:12]}"
            )

    def read_body(gen: int, addresses: list[int]) -> bytes:
        lines = [encode_json(indexes[gen].locate(a)) for a in addresses]
        return b'{"results":[' + b",".join(lines) + b"]}"

    read_ms = []
    for request in runner.reads:
        addresses, lo, hi = request.tag
        if request.status == 200 and any(
            request.body == read_body(g, addresses) for g in range(lo, max(lo, hi) + 1)
        ):
            read_ms.append(request.latency * 1e3)
        else:
            result.fail(f"batched read: status {request.status} or body mismatch")

    timed = [f for f in runner.flips if f.timed]
    fresh_s, pref_ms, n_pref, pref_ok = [], [], 0, 0
    for flip in timed:
        if flip.fresh:
            fresh_s.append(max(flip.flip_t, flip.row_t) - flip.created)
        for request in flip.prefs:
            n_pref += 1
            region = request.target.rsplit("=", 1)[1]
            want = encode_json(preference_payload(
                indexes[flip.number].distance_preference(region_by_name(region)),
                {"region": region},
            ))
            if request.status != 200 or request.body != want:
                result.fail(f"f(d) {region} after flip {flip.number}: mismatch")
            else:
                pref_ok += 1
        if flip.pref_done_t:
            pref_ms.append((flip.pref_done_t - flip.flip_t) * 1e3)

    result.attempted = len(runner.reads) + len(timed) + n_pref
    if not (read_ms and fresh_s and pref_ms):
        raise RuntimeError(
            f"too few samples: {len(read_ms)} reads, {len(fresh_s)} flips, "
            f"{len(pref_ms)} f(d) refreshes"
        )
    # Primary: freshness, what the generation path exists for;
    # secondary: the batched reads served beside it.
    result.put("primary_p50_ms", stats.median(fresh_s) * 1e3, "ms", len(fresh_s))
    result.put("secondary_p50_ms", stats.median(read_ms), "ms", len(read_ms))
    answers = len(read_ms) + pref_ok
    result.put("cpu_ms_per_op", cpu * 1e3 / answers, "ms", answers)
    # Printed, not reported: the cold f(d) partials are hedged onto the
    # second replica, and that race of duplicate computations on two
    # cores spreads this median too far from run to run to gate it.
    result.info.append(
        f"pref_refresh_ms {stats.median(pref_ms):.1f} ms (median of {len(pref_ms)} flips)"
    )

    lateness = [(r.sent - r.due) * 1e3 for r in runner.reads if r.sent]
    result.info += [
        f"CPU of cluster and ingester: {cpu:.2f} s, "
        f"{cpu * 1e3 / len(timed):.0f} ms per timed generation",
        f"flips: {len(timed)} timed, freshness "
        + ", ".join(f"{v:.2f}" for v in fresh_s) + " s; f(d) refresh "
        + ", ".join(f"{v:.0f}" for v in pref_ms) + " ms",
        "f(d) per region after each flip: " + "; ".join(
            "/".join(f"{r.rtt * 1e3:.0f}" for r in flip.prefs) for flip in timed
        ) + " ms (" + "/".join(PREF_REGIONS) + ")",
        describe_delta(coordinator_delta(before, after)),
        stats.describe_tail("read", read_ms)
        + f"; send lateness p50 {stats.median(lateness):.3f} ms",
    ]
