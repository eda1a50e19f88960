"""``pipeline_default``: the paper-scale reproduction in fresh processes.

Each repetition launches ``pipeline_child.py``, which imports the
pipeline, reports ready, runs ``run_pipeline(default_scenario(20020103),
jobs=nproc)`` with no artifact cache and prints the four dataset
digests; they must equal the golden values in ``golden.json``.  This is
the only workload that runs the population, net, routing/measure,
geoloc, bgp and datasets stages and the ``runtime`` executor.  The
scenario is fixed, so the seed changes nothing here.

Reported, as medians over the runs: the wall time of ``run_pipeline``
as ``primary_p50_ms``, the process's wall time from launch to exit (what
a user running it waits) as ``secondary_p50_ms``, and the process's CPU
time per pipeline run as ``cpu_ms_per_op``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time

import spans as spanlib
import stats
from harness import BENCH_DIR, Context, Result

#: Fewest pipeline runs per benchmark run, however short ``--seconds``.
MIN_RUNS = 3
#: Longest one pipeline run may take before it counts as failed.
RUN_TIMEOUT_S = 150.0

READY_RE = re.compile(r"^ready$", re.M)


def run(ctx: Context, result: Result) -> None:
    golden = json.loads((BENCH_DIR / "golden.json").read_text())["dataset_digests"]
    argv = [sys.executable, str(BENCH_DIR / "pipeline_child.py"),
            "--jobs", str(ctx.nproc)]
    if ctx.trace:
        argv.append("--trace")
    runs = []
    started = time.perf_counter()
    while result.attempted < MIN_RUNS or time.perf_counter() - started < ctx.seconds:
        result.attempted += 1
        program = ctx.launch("pipeline", argv)
        program.wait_for(READY_RE, 60.0)
        setup_s = time.perf_counter() - program.started
        try:
            program.proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            result.fail(f"pipeline run exceeded {RUN_TIMEOUT_S:.0f}s")
        process_s = time.perf_counter() - program.started
        ctx.stop(program, result)
        lines = program.output().strip().splitlines()
        if program.proc.returncode != 0 or not lines:
            result.fail(f"pipeline run exited {program.proc.returncode}: {lines[-3:]}")
            continue
        report = json.loads(lines[-1])
        if report["digests"] != golden:
            result.fail(f"dataset digests differ from golden.json: {report['digests']}")
            continue
        report["setup_s"] = setup_s
        report["process_s"] = process_s
        runs.append(report)
    if not runs:
        raise RuntimeError("no pipeline run succeeded")
    result.put("setup_s", stats.median([r["setup_s"] for r in runs]), "s", len(runs))
    result.put("rss_mb", stats.median([r["rss_mb"] for r in runs]), "MiB", len(runs))
    result.put("cpu_ms_per_op", stats.median([r["cpu_s"] for r in runs]) * 1e3,
               "ms", len(runs))
    result.put("primary_p50_ms", stats.median([r["wall_s"] for r in runs]) * 1e3,
               "ms", len(runs))
    result.put("secondary_p50_ms",
               stats.median([r["process_s"] for r in runs]) * 1e3, "ms", len(runs))
    result.info.append(
        "runs: " + ", ".join(
            f"{r['wall_s']:.2f}s wall / {r['cpu_s']:.2f}s cpu / "
            f"{r['process_s']:.2f}s launch to exit" for r in runs
        )
    )
    if ctx.trace:
        spanlib.report_pipeline(result, runs)
