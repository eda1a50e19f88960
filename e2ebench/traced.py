"""Run one ``repro`` CLI command with span wrappers installed.

Usage::

    python e2ebench/traced.py --spans DIR -- cluster serve --snapshot S ...

Before handing the arguments to ``repro.cli.main``, this wraps the
public entry points of each layer (instance methods are replaced on
their class, module functions on every module that imported them — no
program file is edited), so every call records a span: name, start and
end on the system-wide monotonic clock, thread, and a few attributes.
Shards spawned by ``cluster serve`` are launched through this same
script, so they are traced too.

Spans stay in memory.  When a file named ``DUMP`` appears in the spans
directory, a watcher thread writes ``spans-<pid>.json`` there: the
spans plus this process's measured cost of recording one span.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

SPANS: list[tuple] = []
_now = time.monotonic_ns
_ident = threading.get_ident


def _wrap(owner, attr: str, name: str, attrs=None) -> None:
    """Replace ``owner.attr`` with a span-recording wrapper.

    ``attrs(args)``, when given, is evaluated before the call and stored
    with the span.
    """
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        # Attributes describe the call as it starts (e.g. whether a memo
        # table already held the answer), so take them first.
        extra = attrs(args) if attrs is not None else None
        start = _now()
        try:
            return original(*args, **kwargs)
        finally:
            SPANS.append((name, start, _now(), _ident(), extra))

    setattr(owner, attr, wrapper)


def _target(args) -> str:
    return args[1]


def _pref_attrs(table: str):
    def attrs(args):
        index, region = args[0], args[1]
        return [region.name, region.name not in getattr(index, table, {})]
    return attrs


def _install_batcher_spans(MicroBatcher) -> None:
    """Batcher wait (submit to compute start) and batch size.

    ``submit`` records a ``batcher.future`` span from submission until
    its future resolves (in the submitting thread's name), and the
    compute function — wrapped when the batcher is built — pops each
    key's submission time to record how long it waited.
    """
    submitted: dict[int, list[int]] = {}
    lock = threading.Lock()
    submit = MicroBatcher.submit

    def traced_submit(self, key):
        start, thread = _now(), _ident()
        with lock:
            submitted.setdefault(key, []).append(start)
        future = submit(self, key)
        future.add_done_callback(
            lambda _f: SPANS.append(("batcher.future", start, _now(), thread, key))
        )
        return future

    init = MicroBatcher.__init__

    def traced_init(self, compute, *args, **kwargs):
        def traced_compute(keys):
            start = _now()
            with lock:
                waits = [
                    start - submitted[k].pop(0)
                    for k in keys
                    if submitted.get(k)
                ]
            try:
                return compute(keys)
            finally:
                SPANS.append((
                    "batcher.compute", start, _now(), _ident(),
                    [len(keys), waits],
                ))

        init(self, traced_compute, *args, **kwargs)

    MicroBatcher.submit = traced_submit
    MicroBatcher.__init__ = traced_init


def install() -> None:
    """Wrap every layer boundary the benchmark reports on."""
    import repro.analytics.engine as engine
    import repro.analytics.store as store
    import repro.cluster.client as client
    import repro.cluster.coordinator as coordinator
    import repro.cluster.manager as manager
    import repro.cluster.shard as shard
    import repro.core.distance as distance
    import repro.ingest.publisher as publisher
    import repro.ingest.runner as runner
    import repro.ingest.wal as wal
    import repro.serve.batcher as batcher
    import repro.serve.cache as cache
    import repro.serve.index as index
    import repro.serve.server as server

    _wrap(coordinator.ClusterCoordinator, "handle_target", "coord.handle", _target)
    _wrap(coordinator.ClusterCoordinator, "reload", "coord.reload")
    _wrap(server.SnapshotServer, "handle_target", "server.handle", _target)
    _wrap(cache.LruCache, "get", "cache.get")
    _wrap(client.ShardClient, "get", "shard_client.get", _target)
    _install_batcher_spans(batcher.MicroBatcher)

    Index = index.SnapshotIndex
    _wrap(Index, "locate", "index.locate")
    _wrap(Index, "locate_many", "index.locate_many", lambda a: len(a[1]))
    _wrap(Index, "apply_delta", "index.apply_delta")
    _wrap(Index, "distance_preference", "index.pref",
          _pref_attrs("_pref_tables"))
    _wrap(Index, "preference_partial", "index.pref",
          _pref_attrs("_partial_tables"))

    _wrap(server, "encode_json", "encode")
    for module in (shard, coordinator):
        module.encode_json = server.encode_json
    server._encode = server.encode_json

    for name in ("exact_pair_counts", "exact_pair_counts_rows", "grid_pair_counts"):
        _wrap(distance, name, "core.pair_counts")
        for module in (index, engine):
            if hasattr(module, name):
                setattr(module, name, getattr(distance, name))

    _wrap(wal.WriteAheadLog, "append_delta", "wal.append_delta")
    _wrap(publisher.SnapshotPublisher, "publish", "publisher.publish")
    _wrap(runner.Ingester, "submit", "ingester.submit",
          lambda a: [time.time(), a[1].created_unix])
    _wrap(engine.AnalyticsEngine, "apply", "analytics.apply")
    _wrap(engine.AnalyticsEngine, "metrics", "analytics.metrics")
    _wrap(store.MetricStore, "record_generation", "analytics.record")

    # Shards run through this script too, with the same spans directory.
    manager.subprocess = _ShardSpawn()


class _ShardSpawn:
    """``subprocess`` as seen by the shard manager: shard commands
    (``python -m repro.cli cluster shard ...``) start through this script."""

    def __getattr__(self, name):
        return getattr(subprocess, name)

    @staticmethod
    def Popen(cmd, *args, **kwargs):  # noqa: N802 (mirrors subprocess)
        if cmd[1:3] == ["-m", "repro.cli"]:
            cmd = [cmd[0], __file__, "--spans", SPANS_DIR, "--", *cmd[3:]]
        return subprocess.Popen(cmd, *args, **kwargs)


def span_cost_ns(n: int = 20000) -> float:
    """Measured cost of recording one span, in nanoseconds."""

    class Probe:
        def call(self):
            return None

    probe = Probe()
    start = time.perf_counter_ns()
    for _ in range(n):
        probe.call()
    plain = time.perf_counter_ns() - start
    _wrap(Probe, "call", "probe")
    start = time.perf_counter_ns()
    for _ in range(n):
        probe.call()
    wrapped = time.perf_counter_ns() - start
    del SPANS[-n:]
    return max(0.0, (wrapped - plain) / n)


def _watch(spans_dir: Path, cost: float) -> None:
    flag = spans_dir / "DUMP"
    while not flag.exists():
        time.sleep(0.1)
    out = spans_dir / f"spans-{os.getpid()}.json"
    tmp = out.with_suffix(".tmp")
    tmp.write_text(json.dumps({"pid": os.getpid(), "span_cost_ns": cost,
                               "spans": list(SPANS)}))
    os.replace(tmp, out)


SPANS_DIR = ""

if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[1] != "--spans" or sys.argv[3] != "--":
        print("usage: traced.py --spans DIR -- <repro cli args>", file=sys.stderr)
        sys.exit(2)
    SPANS_DIR = sys.argv[2]
    install()
    threading.Thread(
        target=_watch, args=(Path(SPANS_DIR), span_cost_ns()), daemon=True
    ).start()
    from repro.cli import main

    sys.exit(main(sys.argv[4:]))
