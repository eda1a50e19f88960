"""One paper-scale pipeline run in a fresh process (no artifact cache).

Prints ``ready`` once the pipeline is imported, then runs
``run_pipeline(default_scenario(20020103), jobs=N)`` and prints one
JSON line with the run's wall time, CPU time, peak memory and the four
dataset digests (and, with ``--trace``, every stage's start, end and
wall time from the pipeline's own stage telemetry).

Usage: ``python e2ebench/pipeline_child.py --jobs N [--trace]``
"""

from __future__ import annotations

import argparse
import json
import re
import time

from repro.config import default_scenario
from repro.datasets.pipeline import run_pipeline
from repro.obs.report import dataset_digest
from repro.runtime.telemetry import Telemetry

SCENARIO_SEED = 20020103


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    print("ready", flush=True)
    telemetry = Telemetry() if args.trace else None
    cpu0 = time.process_time()
    start = time.perf_counter()
    result = run_pipeline(
        default_scenario(SCENARIO_SEED), jobs=args.jobs, telemetry=telemetry
    )
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    digests = {
        label: dataset_digest(dataset)
        for label, dataset in sorted(result.datasets.items())
    }
    with open("/proc/self/status") as fh:
        hwm_kb = int(re.search(r"^VmHWM:\s+(\d+) kB", fh.read(), re.M).group(1))
    report = {
        "wall_s": wall,
        "cpu_s": cpu,
        "rss_mb": hwm_kb / 1024.0,
        "digests": digests,
    }
    if telemetry is not None:
        report["stages"] = [
            {
                "stage": event.stage,
                "wall_s": event.wall_s,
                "start_s": event.start_s - start,
                "end_s": event.end_s - start,
            }
            for event in telemetry.events
        ]
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main()
