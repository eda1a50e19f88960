"""``locate_mix``: single-address ``/locate`` hits and misses, one mode each.

The default-scale cluster (``repro cluster serve`` with its CLI
defaults: 2 ranges x 2 replicas) is sent an open-loop stream at a fixed
rate well under capacity.  Hot-set requests go out on connection 0 and
cold-scan requests on connection 1, so neither class ever queues behind
the other on a connection.  Because the benchmark knows each request's
class, hit and miss latency each get a median inside their own mode:
miss latency is reported as ``primary_p50_ms`` and hit latency as
``secondary_p50_ms``.
"""

from __future__ import annotations

import json
import time

import numpy as np
from repro.datasets.serialize import load_dataset
from repro.serve.index import SnapshotIndex
from repro.serve.server import encode_json

import procs
import spans as spanlib
import stats
import streams
from harness import Context, Result, coordinator_delta, describe_delta
from loadgen import Request

#: Timed requests per second (both classes together).
RATE = 100.0
#: Launches per run; the median launch-to-ready time is ``setup_s``.
SETUPS = 3


def _coordinator_stats(client) -> dict:
    reply = client.get(0, "/stats")
    if reply.status != 200:
        raise RuntimeError(f"/stats answered {reply.status}")
    return json.loads(reply.body)


def run(ctx: Context, result: Result) -> None:
    ctx.keep_cpus_awake()
    snapshot, snapshot_hash = ctx.snapshot("default")
    with np.load(snapshot, allow_pickle=False) as payload:
        addresses = np.asarray(payload["addresses"], dtype=np.int64)
    n_timed = int(RATE * ctx.seconds)
    stream = streams.locate_stream(addresses, ctx.seed, n_timed)
    model = streams.lru_outcomes(stream.warmup + stream.timed)
    if model[len(stream.warmup):] != [hot for hot, _ in stream.timed]:
        raise RuntimeError("stream generator broke the hot/cold invariant")

    setups = []
    for attempt in range(SETUPS):
        program, client, ready_s = ctx.launch_cluster(snapshot, snapshot_hash, 2)
        setups.append(ready_s)
        if attempt < SETUPS - 1:
            client.close()
            ctx.stop(program, result)
    result.put("setup_s", stats.median(setups), "s", len(setups))

    for hot, address in stream.warmup:
        reply = client.get(0 if hot else 1, f"/locate?address={address}")
        if reply.status != 200:
            raise RuntimeError(f"warm-up /locate answered {reply.status}")

    before = _coordinator_stats(client)
    cpu0 = procs.group_cpu_seconds(program.pgid)
    client_cpu0 = time.process_time()
    window0 = time.monotonic()
    t0 = time.perf_counter() + 0.05
    requests: list[Request] = []
    completed = [0]

    def count(_request: Request) -> None:
        completed[0] += 1

    for i, (hot, address) in enumerate(stream.timed):
        request = Request(
            f"/locate?address={address}", t0 + i / RATE, (hot, address), count
        )
        requests.append(request)
        client.schedule(0 if hot else 1, request)
    end = t0 + n_timed / RATE
    finished = client.run(lambda: completed[0] == len(requests), end + 30.0)
    window1 = time.monotonic()
    client_cpu = time.process_time() - client_cpu0
    cpu = procs.group_cpu_seconds(program.pgid) - cpu0
    after = _coordinator_stats(client)
    rss = procs.peak_rss_mb(program.pids())
    payloads = spanlib.collect(ctx, program.pids()) if ctx.trace else []
    client.close()
    ctx.stop(program, result)
    if not finished:
        result.fail("timed phase did not finish", sum(1 for r in requests if not r.done))

    result.attempted = len(requests)
    result.put("rss_mb", rss, "MiB", 1)

    # Byte-for-byte check against the program's own encoding of an
    # in-process index over the same snapshot.
    index = SnapshotIndex(load_dataset(snapshot))
    hit_ms, miss_ms, ok = [], [], 0
    for request in requests:
        hot, address = request.tag
        if request.status != 200 or request.body != encode_json(index.locate(address)):
            result.fail(f"/locate?address={address}: status {request.status} or body mismatch")
            continue
        ok += 1
        (hit_ms if hot else miss_ms).append(request.latency * 1e3)

    n_hot = sum(1 for r in requests if r.tag[0])
    delta = coordinator_delta(before, after)
    d_hits, d_misses = delta["hits"], delta["misses"]
    if (d_hits, d_misses) != (n_hot, len(requests) - n_hot):
        result.fail(
            f"cache counters {d_hits} hits / {d_misses} misses, stream sent "
            f"{n_hot} hot / {len(requests) - n_hot} cold"
        )
    if not ok:
        raise RuntimeError("no correct answers")
    # Primary: the miss path, which does the work; secondary: cache hits.
    result.put("primary_p50_ms", stats.median(miss_ms), "ms", len(miss_ms))
    result.put("secondary_p50_ms", stats.median(hit_ms), "ms", len(hit_ms))
    result.put("cpu_ms_per_op", cpu * 1e3 / ok, "ms", ok)

    lateness = [r.lateness * 1e3 for r in requests if r.sent]
    result.info += [
        describe_delta(delta),
        f"hit ratio: hot {d_hits / max(1, n_hot):.3f}, "
        f"cold {1 - d_misses / max(1, len(requests) - n_hot):.3f}",
        stats.describe_tail("hit", hit_ms) + "; " + stats.describe_tail("miss", miss_ms),
        f"client: {client_cpu * 1e6 / max(1, len(requests)):.1f} us CPU/request, "
        f"send lateness p50 {stats.median(lateness):.3f} ms, "
        + stats.describe_tail("lateness", lateness),
    ]
    if ctx.trace:
        spanlib.report_locate_mix(
            result, payloads, requests, before, after,
            (int(window0 * 1e9), int(window1 * 1e9)), client_cpu, cpu,
        )
