"""Shard process lifecycle: spawn, banner handshake, kill, reap.

:class:`ShardManager` turns one snapshot file into a running fleet:
plan the address ranges, spawn ``repro cluster shard`` worker
processes (R replicas per range, each binding an ephemeral port), and
read each worker's one-line startup banner to learn its URL and pid.
The manager never speaks HTTP — connecting and health is the
coordinator's job — but it owns the OS processes, so the smoke test's
SIGKILL-a-replica scenario and clean shutdown both go through here.
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from repro.cluster.plan import ShardRange, partition_bounds
from repro.errors import ServeError

#: The worker's startup banner; the manager parses url and pid from it.
BANNER_RE = re.compile(
    r"shard pid=(?P<pid>\d+) gen=(?P<gen>\d+) "
    r"range=\[(?P<lo>[^,]+),(?P<hi>[^)]+)\) on (?P<url>http://\S+)"
)


@dataclass
class ShardProcess:
    """One running shard replica."""

    slot: int
    replica: int
    range: ShardRange
    proc: subprocess.Popen
    url: str
    pid: int

    @property
    def alive(self) -> bool:
        return self.proc.poll() is None


class ShardManager:
    """Spawns and owns the shard worker processes for one fleet."""

    def __init__(
        self,
        snapshot: str | Path,
        n_ranges: int = 2,
        replicas: int = 2,
        *,
        host: str = "127.0.0.1",
        gen: int = 1,
        banner_timeout_s: float = 120.0,
        python: str | None = None,
        sidecar_dir: str | Path | None = None,
    ) -> None:
        if replicas < 1:
            raise ServeError(f"replicas must be >= 1, got {replicas}")
        self.snapshot = Path(snapshot)
        self.n_ranges = n_ranges
        self.replicas = replicas
        self.host = host
        self.gen = gen
        self.sidecar_dir = (
            Path(sidecar_dir) if sidecar_dir is not None else None
        )
        self.banner_timeout_s = banner_timeout_s
        self.python = python or sys.executable
        self.ranges: list[ShardRange] = []
        self.shards: list[ShardProcess] = []

    def start(self) -> list[list[str]]:
        """Spawn the fleet; returns replica URLs grouped by range slot.

        Raises:
            ServeError: when a worker dies or fails to print its banner
                within the timeout.
        """
        from repro.cluster.coordinator import _snapshot_addresses

        self.ranges = partition_bounds(
            _snapshot_addresses(self.snapshot), self.n_ranges
        )
        procs: list[tuple[int, int, ShardRange, subprocess.Popen]] = []
        try:
            for slot, rng in enumerate(self.ranges):
                for replica in range(self.replicas):
                    procs.append(
                        (slot, replica, rng, self._spawn(rng))
                    )
            for slot, replica, rng, proc in procs:
                banner = _read_banner(proc, self.banner_timeout_s)
                self.shards.append(
                    ShardProcess(
                        slot=slot,
                        replica=replica,
                        range=rng,
                        proc=proc,
                        url=banner["url"],
                        pid=int(banner["pid"]),
                    )
                )
        except BaseException:  # ServeError, or SIGINT mid-start
            for _, _, _, proc in procs:
                _terminate(proc)
            self.shards = []
            raise
        return self.urls_by_slot()

    def _spawn(self, rng: ShardRange) -> subprocess.Popen:
        cmd = [
            self.python,
            "-m",
            "repro.cli",
            "cluster",
            "shard",
            "--snapshot",
            str(self.snapshot),
            "--host",
            self.host,
            "--port",
            "0",
            "--gen",
            str(self.gen),
        ]
        if rng.addr_lo is not None:
            cmd += ["--lo", str(rng.addr_lo)]
        if rng.addr_hi is not None:
            cmd += ["--hi", str(rng.addr_hi)]
        if self.sidecar_dir is not None:
            cmd += ["--sidecar-dir", str(self.sidecar_dir)]
        env = dict(os.environ)
        src_dir = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = (
            src_dir if not existing else f"{src_dir}{os.pathsep}{existing}"
        )
        return subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
        )

    def urls_by_slot(self) -> list[list[str]]:
        """Replica URLs grouped by range slot, replica order preserved."""
        grouped: list[list[str]] = [[] for _ in self.ranges]
        for shard in self.shards:
            grouped[shard.slot].append(shard.url)
        return grouped

    def kill(self, slot: int, replica: int, sig: int = signal.SIGKILL) -> int:
        """Send a signal to one replica; returns its pid.

        Raises:
            ServeError: when no such replica exists.
        """
        for shard in self.shards:
            if shard.slot == slot and shard.replica == replica:
                shard.proc.send_signal(sig)
                return shard.pid
        raise ServeError(f"no shard at slot={slot} replica={replica}")

    def stop_all(self) -> None:
        """Terminate every worker and reap it."""
        for shard in self.shards:
            _terminate(shard.proc)
        self.shards = []

    def __enter__(self) -> "ShardManager":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop_all()


def _read_banner(proc: subprocess.Popen, timeout_s: float) -> dict:
    """Read lines from a worker until its banner appears.

    Non-banner lines (warnings from imports, say) are skipped.  Raises
    :class:`ServeError` on timeout or if the worker exits first, with
    whatever output it produced in the message.
    """
    assert proc.stdout is not None
    deadline = time.monotonic() + timeout_s
    seen: list[str] = []
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            _terminate(proc)
            raise ServeError(
                "shard worker produced no banner within "
                f"{timeout_s:.0f}s; output so far: {seen[-5:]}"
            )
        ready, _, _ = select.select([proc.stdout], [], [], min(remaining, 0.5))
        if not ready:
            if proc.poll() is not None:
                raise ServeError(
                    f"shard worker exited with {proc.returncode} before "
                    f"its banner; output: {seen[-5:]}"
                )
            continue
        raw = proc.stdout.readline()
        if not raw:
            raise ServeError(
                f"shard worker closed stdout (exit {proc.poll()}); "
                f"output: {seen[-5:]}"
            )
        line = raw.decode("utf-8", errors="replace").strip()
        seen.append(line)
        match = BANNER_RE.search(line)
        if match:
            return match.groupdict()


def _terminate(proc: subprocess.Popen, grace_s: float = 3.0) -> None:
    if proc.poll() is not None:
        return
    proc.terminate()
    try:
        proc.wait(timeout=grace_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=grace_s)
