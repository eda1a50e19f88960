"""Per-layer metrics from the spans a traced run recorded.

Every traced process (see ``traced.py``) writes its spans when asked;
this module collects them and reduces them to one number per layer.
A layer is reported as **self time**: its span's duration minus the
part covered by the spans of the layers it called.  Children in the
same thread are found by nesting; work handed to other threads is
matched explicitly — the batcher's future for a ``/locate`` miss, the
coordinator's shard requests inside a batch, merge or reload, and the
shard-side handling of a shard request (same target, inside the
request's interval on the system-wide monotonic clock).

Only spans inside the timed window count.  ``trace.overhead_pct`` is
the recording cost each process measured for one span, times the spans
it recorded in the window, over the CPU time the processes under test
used in that window.
"""

from __future__ import annotations

import bisect
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

import stats
from harness import Context, Result, coordinator_delta


class Span(NamedTuple):
    name: str
    t0: int
    t1: int
    tid: int
    attrs: object

    @property
    def dur(self) -> int:
        return self.t1 - self.t0


class Process:
    """The spans one traced process recorded inside the timed window."""

    def __init__(self, payload: dict, window: tuple[int, int]) -> None:
        self.pid = payload["pid"]
        self.cost_ns = payload["span_cost_ns"]
        self.spans = [
            Span(*raw) for raw in payload["spans"]
            if raw[1] >= window[0] and raw[2] <= window[1]
        ]
        self.by_thread: dict[int, list[Span]] = defaultdict(list)
        for span in sorted(self.spans, key=lambda s: s.t0):
            self.by_thread[span.tid].append(span)
        self._starts = {
            tid: [s.t0 for s in spans] for tid, spans in self.by_thread.items()
        }

    def named(self, name: str, prefix: str | None = None) -> list[Span]:
        return [
            s for s in self.spans
            if s.name == name and (prefix is None or str(s.attrs).startswith(prefix))
        ]

    def has(self, name: str) -> bool:
        return any(s.name == name for s in self.spans)

    def children(self, parent: Span) -> list[Span]:
        """Same-thread spans nested inside ``parent`` (any depth)."""
        spans = self.by_thread[parent.tid]
        starts = self._starts[parent.tid]
        i = bisect.bisect_left(starts, parent.t0)
        out = []
        while i < len(spans) and spans[i].t0 <= parent.t1:
            span = spans[i]
            if span is not parent and span.t1 <= parent.t1:
                out.append(span)
            i += 1
        return out

    def self_ns(self, parent: Span, extra: list[tuple[int, int]] = ()) -> int:
        """Duration minus the union of same-thread children and ``extra``
        intervals (work done for it on other threads)."""
        covered = [(c.t0, c.t1) for c in self.children(parent)]
        covered += [(max(a, parent.t0), min(b, parent.t1)) for a, b in extra if b > a]
        return parent.dur - int(stats.union_length(covered))


def collect(ctx: Context, pids: list[int], timeout_s: float = 15.0) -> list[dict]:
    """Ask every traced process to write its spans; return the payloads."""
    (ctx.spans_dir / "DUMP").touch()
    deadline = time.perf_counter() + timeout_s
    files: list[Path] = []
    while time.perf_counter() < deadline:
        files = sorted(ctx.spans_dir.glob("spans-*.json"))
        if len(files) >= len(pids):
            break
        time.sleep(0.1)
    return [json.loads(path.read_text()) for path in files]


def _within(spans: list[Span], parent: Span) -> list[tuple[int, int]]:
    return [(s.t0, s.t1) for s in spans if s.t0 >= parent.t0 and s.t1 <= parent.t1]


def _put(result: Result, name: str, values: list[float], unit: str) -> None:
    """Median of ``values`` (0 with n=0 when the layer saw no work)."""
    result.layers[name] = result.metric(
        stats.median(values) if values else 0.0, unit, len(values)
    )


def _roles(payloads: list[dict], window: tuple[int, int]):
    procs = [Process(p, window) for p in payloads]
    coord = [p for p in procs if p.has("coord.handle") or p.has("coord.reload")]
    ingester = [p for p in procs if p.has("ingester.submit")]
    shards = [p for p in procs if p not in coord and p not in ingester]
    return procs, coord, shards, ingester


def _common(
    result: Result, procs, requests, client_cpu: float, cpu: float, n: int
) -> None:
    """Client cost per request sent (``n``), send lateness of the timed
    ``requests``, and the tracing overhead."""
    result.layers["client.us_per_req"] = result.metric(client_cpu * 1e6 / max(1, n), "us", n)
    lateness = [(r.sent - r.due) * 1e3 for r in requests if r.sent]
    tail = stats.tail(lateness, 99.0)
    result.layers["client.late_p99_ms"] = result.metric(
        tail if tail is not None else max(lateness, default=0.0), "ms", len(lateness)
    )
    spent_ns = sum(p.cost_ns * len(p.spans) for p in procs)
    n_spans = sum(len(p.spans) for p in procs)
    result.layers["trace.overhead_pct"] = result.metric(
        100.0 * spent_ns / (cpu * 1e9) if cpu > 0 else 0.0, "%", n_spans
    )


def _hedges_per_1k(before: dict, after: dict, shard_gets: int) -> float:
    hedges = coordinator_delta(before, after)["hedges"]
    return 1000.0 * hedges / shard_gets if shard_gets else 0.0


def _shard_handles(shards) -> dict[str, list[Span]]:
    out: dict[str, list[Span]] = defaultdict(list)
    for shard in shards:
        for span in shard.named("server.handle"):
            out[span.attrs].append(span)
    return out


def report_locate_mix(result, payloads, requests, before, after,
                      window, client_cpu, cpu) -> None:
    procs, coord, shards, _ = _roles(payloads, window)
    if len(coord) != 1:
        raise RuntimeError(f"expected one traced coordinator, found {len(coord)}")
    c = coord[0]
    hot = {r.target for r in requests if r.tag[0]}
    handles = c.named("coord.handle", "/locate?address=")
    hit = [h for h in handles if h.attrs in hot]
    miss = [h for h in handles if h.attrs not in hot]
    us = 1e-3
    _put(result, "serve.handle_hit_us", [c.self_ns(h) * us for h in hit], "us")
    _put(result, "serve.handle_miss_us", [c.self_ns(h) * us for h in miss], "us")
    _put(result, "serve.cache.get_us", [s.dur * us for s in c.named("cache.get")], "us")
    rtt_hot = [r.rtt * 1e6 for r in requests if r.tag[0] and r.done]
    if rtt_hot and hit:
        result.layers["serve.transport_us"] = result.metric(
            stats.median(rtt_hot) - stats.median([h.dur * us for h in hit]),
            "us", len(rtt_hot),
        )
    else:
        _put(result, "serve.transport_us", [], "us")

    computes = c.named("batcher.compute")
    _put(result, "serve.batcher.wait_us",
         [w * us for s in computes for w in s.attrs[1]], "us")
    sizes = [s.attrs[0] for s in computes]
    result.layers["serve.batcher.batch_size"] = result.metric(
        sum(sizes) / len(sizes) if sizes else 0.0, "count", len(sizes)
    )
    gets = c.named("shard_client.get", "/internal/locate-lines")
    _put(result, "cluster.coord_miss_us",
         [c.self_ns(s, _within(gets, s)) * us for s in computes], "us")
    by_target = _shard_handles(shards)
    rtt = []
    for get in gets:
        served = [h for h in by_target.get(get.attrs, ())
                  if get.t0 <= h.t0 and h.t1 <= get.t1]
        if served:
            rtt.append((get.dur - served[0].dur) * us)
    _put(result, "cluster.shard_rtt_us", rtt, "us")
    per_address = [
        s.dur * us / max(1, s.attrs)
        for shard in shards for s in shard.named("index.locate_many")
    ]
    _put(result, "serve.index.locate_us", per_address, "us")
    _put(result, "serve.encode_us",
         [s.dur * us for shard in shards for s in shard.named("encode")], "us")
    all_gets = len(c.named("shard_client.get"))
    result.layers["cluster.hedges_per_1k"] = result.metric(
        _hedges_per_1k(before, after, all_gets), "count", all_gets
    )
    _common(result, procs, requests, client_cpu, cpu, len(requests))


def report_ingest_flip(result, payloads, reads, n_sent, before, after,
                       window, client_cpu, cpu) -> None:
    procs, coord, shards, ingester = _roles(payloads, window)
    if len(coord) != 1 or len(ingester) != 1:
        raise RuntimeError("expected one traced coordinator and one ingester")
    c, ing = coord[0], ingester[0]
    ms, us = 1e-6, 1e-3
    _put(result, "ingest.spool_wait_ms",
         [(s.attrs[0] - s.attrs[1]) * 1e3 for s in ing.named("ingester.submit")], "ms")
    _put(result, "ingest.wal_append_ms",
         [s.dur * ms for s in ing.named("wal.append_delta")], "ms")
    _put(result, "serve.index.apply_delta_ms",
         [s.dur * ms for s in ing.named("index.apply_delta")], "ms")
    reload_calls = c.named("coord.handle", "/admin/reload")
    _put(result, "ingest.publish_ms",
         [ing.self_ns(p, _within(reload_calls, p)) * ms
          for p in ing.named("publisher.publish")], "ms")
    activates = c.named("shard_client.get", "/admin/activate")
    retires = c.named("shard_client.get", "/admin/retire")
    drains, reloads = [], []
    for span in c.named("coord.reload"):
        acts = [a for a in activates if span.t0 <= a.t0 and a.t1 <= span.t1]
        rets = [r for r in retires if span.t0 <= r.t0 and r.t1 <= span.t1]
        if acts and rets:
            drain = min(r.t0 for r in rets) - max(a.t1 for a in acts)
            drains.append(drain * ms)
            reloads.append((span.dur - drain) * ms)
    _put(result, "cluster.reload_ms", reloads, "ms")
    _put(result, "cluster.reload_drain_ms", drains, "ms")
    for name in ("apply", "metrics", "record"):
        _put(result, f"analytics.{name}_ms",
             [s.dur * ms for s in ing.named(f"analytics.{name}")], "ms")

    cold: dict[str, list[float]] = defaultdict(list)
    pair_counts = []
    for shard in shards:
        for span in shard.named("index.pref"):
            region, is_cold = span.attrs
            if not is_cold:
                continue
            cold[region].append(shard.self_ns(span) * ms)
            pair_counts += [
                k.dur * ms for k in shard.children(span) if k.name == "core.pair_counts"
            ]
    for region in ("US", "Europe", "Japan"):
        _put(result, f"serve.index.pref_cold_ms.{region}", cold[region], "ms")
    _put(result, "core.pair_counts_ms", pair_counts, "ms")

    _put(result, "serve.index.locate_many_us",
         [s.dur * us / max(1, s.attrs)
          for shard in shards for s in shard.named("index.locate_many")], "us")
    gets = c.named("shard_client.get", "/internal/locate-lines")
    _put(result, "cluster.merge_us",
         [c.self_ns(h, _within(gets, h)) * us
          for h in c.named("coord.handle", "/locate?addresses=")], "us")
    all_gets = len(c.named("shard_client.get"))
    result.layers["cluster.hedges_per_1k"] = result.metric(
        _hedges_per_1k(before, after, all_gets), "count", all_gets
    )
    _common(result, procs, reads, client_cpu, cpu, n_sent)


PIPELINE_STAGES = ("world", "ground_truth", "bgp_snapshot", "geo_context",
                   "skitter", "mercator")


def report_pipeline(result: Result, runs: list[dict]) -> None:
    """Per-stage wall time (median over runs) from the stage telemetry."""
    for stage in PIPELINE_STAGES:
        _put(result, f"pipeline.{stage}_s",
             [e["wall_s"] for r in runs for e in r["stages"] if e["stage"] == stage],
             "s")
    _put(result, "pipeline.map_s",
         [sum(e["wall_s"] for e in r["stages"] if e["stage"].startswith("map:"))
          for r in runs], "s")
    _put(result, "runtime.overlap",
         [sum(e["wall_s"] for e in r["stages"]) / r["wall_s"] for r in runs], "ratio")
    result.layers["trace.overhead_pct"] = result.metric(0.0, "%", 0)
