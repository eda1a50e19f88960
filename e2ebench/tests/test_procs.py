"""CPU, memory and leftover accounting over a process group."""

import os
import sys
import time

import procs

# A parent that starts a child; both burn CPU, then sleep until stopped.
_FAMILY = r"""
import signal, subprocess, sys, time
IGNORE = sys.argv[1] == "ignore"
def burn(seconds):
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass
child = subprocess.Popen([sys.executable, "-c",
    "import signal, sys, time\n"
    + ("signal.signal(signal.SIGINT, signal.SIG_IGN)\n" if IGNORE else "")
    + "end = time.process_time() + 0.4\n"
    "while time.process_time() < end: pass\n"
    "print('child ready', flush=True)\n"
    "time.sleep(600)\n"])
burn(0.4)
print("parent ready", flush=True)
try:
    time.sleep(600)
except KeyboardInterrupt:
    if not IGNORE:
        child.terminate()
        child.wait()
"""


def _launch(tmp_path, mode):
    env = dict(os.environ)
    return procs.Program(
        "family", [sys.executable, "-c", _FAMILY, mode],
        tmp_path / f"{mode}.log", env, tmp_path,
    )


def _wait_ready(program):
    deadline = time.time() + 30
    while time.time() < deadline:
        out = program.output()
        if "parent ready" in out and "child ready" in out:
            return
        time.sleep(0.02)
    raise AssertionError(program.output())


def test_cpu_and_memory_sum_over_the_group(tmp_path):
    program = _launch(tmp_path, "clean")
    try:
        _wait_ready(program)
        pids = program.pids()
        assert len(pids) == 2 and program.pgid in pids
        own = procs.cpu_seconds([program.pgid])
        total = procs.group_cpu_seconds(program.pgid)
        # Each burned 0.4 s; the group total counts both processes.
        assert own >= 0.35
        assert total >= own + 0.35
        assert procs.peak_rss_mb(pids) > procs.peak_rss_mb([program.pgid])
        assert program.stop() == 0
        assert program.pids() == []
    finally:
        program.kill()


def test_a_process_left_after_sigint_is_counted_and_killed(tmp_path):
    program = _launch(tmp_path, "ignore")
    try:
        _wait_ready(program)
        # The parent exits on SIGINT; its child ignores it and is left.
        assert program.stop(attempts=2, grace_s=2.0) == 1
        assert program.pids() == []
    finally:
        program.kill()


def test_steal_ticks_reads_proc_stat():
    steal, total = procs.steal_ticks()
    assert 0 <= steal <= total and total > 0


_DEAF_ONCE = r"""
import signal, time
seen = []
def handler(signum, frame):
    seen.append(signum)
    if len(seen) > 1:
        raise KeyboardInterrupt
signal.signal(signal.SIGINT, handler)
print("parent ready", flush=True)
print("child ready", flush=True)
try:
    time.sleep(600)
except KeyboardInterrupt:
    pass
"""


def test_sigint_is_resent_until_the_program_stops(tmp_path):
    program = procs.Program(
        "deaf-once", [sys.executable, "-c", _DEAF_ONCE],
        tmp_path / "deaf.log", dict(os.environ), tmp_path,
    )
    try:
        _wait_ready(program)
        assert program.stop(attempts=3, grace_s=0.5) == 0
        assert program.resends == 1
        assert program.proc.returncode == 0
    finally:
        program.kill()
