"""Repository benchmark: one command, every workload, checked answers.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload locate_mix --seed 1 --seconds 20 --trace 0

Workloads (see e2ebench/README.md for why each exists):

- ``locate_mix``       single-address /locate hits and misses on the
                       default-scale cluster
- ``ingest_flip``      generation flips through the streaming ingester
                       beside batched reads, on the small snapshot
- ``pipeline_default`` the paper-scale pipeline in a fresh process

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` the same seeded inputs
are replayed with span wrappers installed and the object holds the
per-layer metrics instead.  Every answer is checked; a mismatch counts
as failed and sets ``correct`` to false.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

WORKLOADS = ("locate_mix", "ingest_flip", "pipeline_default")


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="e2ebench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _on_term(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if args.seconds < 1:
        print("error: --seconds must be >= 1", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: no program source under {ROOT / 'src'}; run from the "
            "root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Children exec with SIGINT at its default disposition even when this
    # process was started with it ignored, so the SIGINT stop reaches them.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, _on_term)

    import procs
    from harness import END_TO_END, PER_LAYER, Context, Result, Metric, fingerprint

    ctx = Context(args.seed, args.seconds, bool(args.trace))
    result = Result()
    started = time.perf_counter()
    steal0, total0 = procs.steal_ticks()
    try:
        if args.workload == "locate_mix":
            import wl_locate as workload
        elif args.workload == "ingest_flip":
            import wl_ingest as workload
        else:
            import wl_pipeline as workload
        workload.run(ctx, result)
    finally:
        ctx.close()

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} wall {time.perf_counter() - started:.1f}s")
    steal1, total1 = procs.steal_ticks()
    steal = (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0
    print(f"machine: {fingerprint()}; CPU steal share {steal:.4f}")
    print(f"stops: {ctx.sigint_resends} SIGINT re-send(s) needed")
    for line in result.info:
        print(line)
    for message in result.checks[:20]:
        print(f"FAILED: {message}")
    print(f"failed/attempted: {result.failed}/{result.attempted}")
    # A traced run's end-to-end figures carry the tracing cost: they are
    # shown for reference, and only the per-layer metrics are reported.
    reported = result.layers if args.trace else result.metrics
    declared = PER_LAYER if args.trace else END_TO_END
    if args.trace:
        for name, unit in PER_LAYER.items():
            reported.setdefault(name, Metric(0.0, unit, 0))
    wrong = sorted(
        name for name in set(declared) | set(reported)
        if name not in reported or declared.get(name) != reported[name].unit
    )
    if wrong:
        print(f"error: metrics missing, undeclared or in the wrong unit: {wrong}",
              file=sys.stderr)
        return 1
    reported = {name: reported[name] for name in declared}
    if args.trace:
        print("end-to-end (traced, not reported): " + ", ".join(
            f"{name} {m.value:.4g} {m.unit}" for name, m in result.metrics.items()
        ))
    for name, metric in reported.items():
        print(f"  {name:34s} {metric.value:14.4f} {metric.unit:6s} n={metric.n}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": max(1, result.attempted),
        "failed": result.failed,
        "metrics": {
            name: {"value": metric.value, "unit": metric.unit}
            for name, metric in reported.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
