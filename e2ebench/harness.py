"""Shared plumbing: checkout paths, snapshot cache, launches, results.

Everything the benchmark writes goes under ``e2ebench/.cache`` inside
the checkout it runs from: snapshots built once per source tree (keyed
by a digest of ``src/``), and one scratch directory per run that is
removed when the run ends.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import procs
from loadgen import Client

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CACHE = BENCH_DIR / ".cache"

COORD_RE = re.compile(r"cluster coordinator on http://([\d.]+):(\d+)")

#: Every end-to-end metric, as ``BENCHMARK.json`` declares them.  Every
#: workload reports all of them, each compared only against the same
#: workload on another commit; ``README.md`` says what each one is on
#: each workload.
END_TO_END = {
    "setup_s": "s",
    "rss_mb": "MiB",
    "cpu_ms_per_op": "ms",
    "primary_p50_ms": "ms",
    "secondary_p50_ms": "ms",
}

#: Every per-layer metric, as ``BENCHMARK.json`` declares them.  A traced
#: run reports all of them; a layer its workload does not run reads 0, n=0.
PER_LAYER = {
    "serve.transport_us": "us",
    "serve.handle_hit_us": "us",
    "serve.cache.get_us": "us",
    "serve.handle_miss_us": "us",
    "serve.batcher.wait_us": "us",
    "serve.batcher.batch_size": "count",
    "serve.index.locate_us": "us",
    "serve.encode_us": "us",
    "cluster.shard_rtt_us": "us",
    "cluster.coord_miss_us": "us",
    "cluster.hedges_per_1k": "count",
    "serve.index.locate_many_us": "us",
    "cluster.merge_us": "us",
    "ingest.spool_wait_ms": "ms",
    "ingest.wal_append_ms": "ms",
    "serve.index.apply_delta_ms": "ms",
    "ingest.publish_ms": "ms",
    "cluster.reload_ms": "ms",
    "cluster.reload_drain_ms": "ms",
    "analytics.apply_ms": "ms",
    "analytics.metrics_ms": "ms",
    "analytics.record_ms": "ms",
    "serve.index.pref_cold_ms.US": "ms",
    "serve.index.pref_cold_ms.Europe": "ms",
    "serve.index.pref_cold_ms.Japan": "ms",
    "core.pair_counts_ms": "ms",
    "pipeline.world_s": "s",
    "pipeline.ground_truth_s": "s",
    "pipeline.bgp_snapshot_s": "s",
    "pipeline.geo_context_s": "s",
    "pipeline.skitter_s": "s",
    "pipeline.mercator_s": "s",
    "pipeline.map_s": "s",
    "runtime.overlap": "ratio",
    "client.us_per_req": "us",
    "client.late_p99_ms": "ms",
    "trace.overhead_pct": "%",
}


@dataclass
class Metric:
    """One reported value with its unit and sample count."""

    value: float
    unit: str
    n: int = 1


@dataclass
class Result:
    """What one workload run measured and checked."""

    metrics: dict[str, Metric] = field(default_factory=dict)
    layers: dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: list[str] = field(default_factory=list)
    info: list[str] = field(default_factory=list)

    def fail(self, message: str, count: int = 1) -> None:
        """Record a failed check (counted against ``failed``)."""
        self.failed += count
        self.checks.append(message)

    def put(self, name: str, value: float, unit: str, n: int = 1) -> None:
        """Record an end-to-end metric."""
        self.metrics[name] = Metric(float(value), unit, n)

    @staticmethod
    def metric(value: float, unit: str, n: int) -> Metric:
        return Metric(float(value), unit, n)


class Context:
    """Per-run settings plus the scratch directory and launch helpers."""

    def __init__(self, seed: int, seconds: int, trace: bool) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.nproc = os.cpu_count() or 1
        self.run_dir = CACHE / f"run-{os.getpid()}"
        shutil.rmtree(self.run_dir, ignore_errors=True)
        self.run_dir.mkdir(parents=True)
        self.spans_dir = self.run_dir / "spans"
        self.spans_dir.mkdir()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(SRC)
        self.programs: list[procs.Program] = []
        self.sigint_resends = 0
        self._spinners: list[subprocess.Popen] = []

    def close(self) -> None:
        for program in self.programs:
            program.kill()
        for spinner in self._spinners:
            spinner.kill()
            spinner.wait()
        shutil.rmtree(self.run_dir, ignore_errors=True)

    def keep_cpus_awake(self) -> None:
        """Run one idle-priority busy loop per CPU for the rest of the run.

        On a virtual machine an idle CPU halts, and waking it takes a
        trip through the host whose length follows the host's load, so a
        request path that hands work between many sleeping threads (the
        ``/locate`` miss path has about ten hand-offs) reads slower
        whenever the neighbours are busy.  A ``SCHED_IDLE`` task in an
        autogroup of nice 19 runs only when nothing else wants the CPU,
        so the CPUs stay awake without taking time from the programs
        under test.  The loops are in no measured process group.
        """
        code = (
            "import os\n"
            "try:\n"
            "    with open('/proc/self/autogroup', 'w') as fh:\n"
            "        fh.write('19')\n"
            "except OSError:\n"
            "    pass\n"
            "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
            "while True:\n"
            "    pass\n"
        )
        for _ in range(self.nproc):
            self._spinners.append(subprocess.Popen(
                [sys.executable, "-c", code], stdin=subprocess.DEVNULL,
                start_new_session=True,
            ))

    # -- launching -------------------------------------------------------------

    def repro_argv(self, *args: str) -> list[str]:
        """The command line of one ``repro`` CLI invocation.

        Traced runs go through ``traced.py``, which installs the span
        wrappers in the program (and in every shard it spawns) before
        handing the same arguments to the CLI.
        """
        if self.trace:
            return [
                sys.executable, str(BENCH_DIR / "traced.py"),
                "--spans", str(self.spans_dir), "--", *args,
            ]
        return [sys.executable, "-m", "repro.cli", *args]

    def launch(self, name: str, argv: list[str]) -> procs.Program:
        log = self.run_dir / f"{name}-{len(self.programs)}.log"
        program = procs.Program(name, argv, log, self.env, ROOT)
        self.programs.append(program)
        return program

    def launch_cluster(
        self, snapshot: Path, expected_hash: str, n_conns: int, *extra: str
    ) -> tuple[procs.Program, Client, float]:
        """Start ``repro cluster serve`` with its CLI defaults.

        Ready means ``/healthz`` answers with the snapshot's hash; the
        returned set-up time runs from launch to that answer.
        """
        program = self.launch(
            "cluster",
            self.repro_argv(
                "cluster", "serve", "--snapshot", str(snapshot),
                "--port", "0", *extra,
            ),
        )
        match = program.wait_for(COORD_RE, 120.0)
        client = Client(match.group(1), int(match.group(2)), n_conns)
        health = client.get(0, "/healthz")
        ready = time.perf_counter() - program.started
        if health.status != 200:
            raise RuntimeError(f"coordinator /healthz answered {health.status}")
        served = json.loads(health.body)["snapshot_hash"]
        if served != expected_hash:
            raise RuntimeError(
                f"cluster serves {served[:12]}, expected {expected_hash[:12]}"
            )
        return program, client, ready

    def stop(self, program: procs.Program, result: Result) -> None:
        """Stop a program with SIGINT; leftovers fail the run."""
        left = program.stop()
        self.sigint_resends += program.resends
        if left:
            result.fail(
                f"{program.name}: {left} process(es) left after SIGINT; "
                f"log tail: {program.output()[-300:]!r}"
            )

    # -- snapshots ---------------------------------------------------------------

    def snapshot(self, scale: str) -> tuple[Path, str]:
        """``(path, content hash)`` of the IxMapper/Skitter snapshot.

        Built once per source tree with ``repro snapshot`` and kept in
        the cache, since the pipeline's output is a pure function of the
        scenario and the code.
        """
        out_dir = CACHE / "snapshots" / source_digest()[:16]
        path = out_dir / f"{scale}.npz"
        hash_file = out_dir / f"{scale}.hash"
        if not (path.exists() and hash_file.exists()):
            out_dir.mkdir(parents=True, exist_ok=True)
            tmp = out_dir / f"{scale}.tmp.npz"
            subprocess.run(
                [
                    sys.executable, "-m", "repro.cli", "snapshot",
                    "--scale", scale, "--jobs", str(self.nproc),
                    "--out", str(tmp),
                ],
                check=True, env=self.env, cwd=ROOT,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            from repro.datasets.serialize import load_dataset
            from repro.obs.report import dataset_digest

            hash_file.write_text(dataset_digest(load_dataset(tmp)))
            os.replace(tmp, path)
        return path, hash_file.read_text().strip()


def coordinator_delta(before: dict, after: dict) -> dict[str, float]:
    """What the coordinator's ``/stats`` counted between two snapshots."""
    counters = after["metrics"]["counters"]
    counters0 = before["metrics"]["counters"]
    delta = {
        name: counters.get(f"coord.{name}", 0) - counters0.get(f"coord.{name}", 0)
        for name in ("hedges", "failovers", "shed", "reloads")
    }
    for name in ("hits", "misses"):
        delta[name] = after["cache"][name] - before["cache"][name]
    flushes = after["batcher"]["flushes"] - before["batcher"]["flushes"]
    submitted = after["batcher"]["requests"] - before["batcher"]["requests"]
    delta["mean_batch"] = submitted / flushes if flushes else 0.0
    return delta


def describe_delta(delta: dict[str, float]) -> str:
    return (
        f"coordinator /stats: +{delta['hits']} cache hits, +{delta['misses']} "
        f"misses, mean batch {delta['mean_batch']:.3f}, +{delta['hedges']} "
        f"hedges, +{delta['failovers']} failovers, +{delta['shed']} shed, "
        f"+{delta['reloads']} reloads"
    )


def source_digest() -> str:
    """sha256 over the program's source files (paths and contents)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint() -> str:
    """Machine facts a reader needs to compare runs."""
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return (
        f"{platform.machine()} {model} x{os.cpu_count()} "
        f"python {platform.python_version()}"
    )
