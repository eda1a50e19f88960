"""Processes under test: launch, readiness, CPU, memory and clean stop.

Every program the benchmark starts runs in a process group of its own
(``start_new_session``), so the group id names the program together
with every worker it spawns — a cluster coordinator's shard processes
inherit it.  CPU time and peak memory are summed over the group from
``/proc``, and after the stop signal the group must be empty: a
process left behind fails the run.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import time
from pathlib import Path

CLK_TCK = os.sysconf("SC_CLK_TCK")


def group_pids(pgid: int) -> list[int]:
    """Live (non-zombie) processes whose process group is ``pgid``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is not None and fields[2] == str(pgid) and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def _stat_fields(pid: int) -> list[str] | None:
    """``/proc/<pid>/stat`` fields after the command name (state first)."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        return None
    # The command name is parenthesised and may itself hold spaces.
    return raw[raw.rfind(")") + 2:].split()


def cpu_seconds(pids: list[int]) -> float:
    """User plus system CPU seconds consumed so far by ``pids``."""
    total = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / CLK_TCK


def group_cpu_seconds(pgid: int) -> float:
    """CPU seconds of every live process in a process group."""
    return cpu_seconds(group_pids(pgid))


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of ``VmHWM`` (peak resident set) over ``pids``, in MiB."""
    return sum(peak_rss_by_pid(pids).values())


def peak_rss_by_pid(pids: list[int]) -> dict[int, float]:
    """``VmHWM`` of each live process in ``pids``, in MiB."""
    out = {}
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except (FileNotFoundError, ProcessLookupError):
            continue
        match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
        if match:
            out[pid] = int(match.group(1)) / 1024.0
    return out


def steal_ticks() -> tuple[int, int]:
    """``(steal, total)`` CPU ticks from the aggregate ``/proc/stat`` line."""
    with open("/proc/stat") as fh:
        values = [int(v) for v in fh.readline().split()[1:]]
    return (values[7] if len(values) > 7 else 0), sum(values)


class Program:
    """One launched program: its process group, log file and banners."""

    def __init__(
        self, name: str, argv: list[str], log_path: Path, env: dict, cwd: Path
    ) -> None:
        self.name = name
        self.argv = argv
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv,
            stdout=self._log,
            stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
            env=env,
            cwd=cwd,
            start_new_session=True,
        )
        self.pgid = self.proc.pid
        self.resends = 0

    def output(self) -> str:
        try:
            return self.log_path.read_text(errors="replace")
        except FileNotFoundError:
            return ""

    def wait_for(self, pattern: re.Pattern, timeout_s: float) -> re.Match:
        """Poll the log for ``pattern``; raise when the program exits first.

        Raises:
            RuntimeError: on timeout or early exit, with the log tail.
        """
        deadline = time.perf_counter() + timeout_s
        while True:
            match = pattern.search(self.output())
            if match:
                return match
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"{self.name} exited {self.proc.returncode} before "
                    f"ready: {self.output()[-800:]}"
                )
            if time.perf_counter() > deadline:
                raise RuntimeError(
                    f"{self.name} not ready after {timeout_s:.0f}s: "
                    f"{self.output()[-800:]}"
                )
            time.sleep(0.005)

    def pids(self) -> list[int]:
        return group_pids(self.pgid)

    def stop(self, attempts: int = 4, grace_s: float = 2.0) -> int:
        """SIGINT the program and return how many processes of its group
        were left behind (those are then killed).

        The signal is re-sent every ``grace_s`` seconds, up to
        ``attempts`` times: a multi-threaded CPython program can take a
        process-directed SIGINT on a worker thread while its main thread
        sleeps on, so one signal does not always stop it.  ``resends``
        counts the extra signals this stop needed.
        """
        self.resends = 0
        for attempt in range(attempts):
            if self.proc.poll() is not None:
                break
            if attempt:
                self.resends += 1
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=grace_s)
            except subprocess.TimeoutExpired:
                pass
        deadline = time.perf_counter() + grace_s
        left = self.pids()
        while left and time.perf_counter() < deadline:
            time.sleep(0.05)
            left = self.pids()
        self.kill()
        self._log.close()
        return len(left)

    def kill(self) -> None:
        """SIGKILL whatever is left of the group and reap the leader."""
        try:
            os.killpg(self.pgid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        try:
            self.proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            pass
