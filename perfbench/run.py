"""Benchmark entry point: one named workload, one seed, one JSON result.

    python3 perfbench/run.py --workload ingest-wide --seed 1 --seconds 12 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints every end-to-end
metric; ``--trace 1`` is the separate traced run and prints every
per-layer metric.  The last line of standard output is the result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The line before it is a report with the environment, the workload's
own metric names and the load generator's lateness.  The exit code is
nonzero when any correctness gate fails or a spawned process outlives
the run.  See NOTES.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

from common import (PER_LAYER, PINNED_ENV, Outcome, ProcessLedger,
                    environment, log, split_cpus)

# BLAS pools are sized when NumPy loads, so pin before any import of it.
os.environ.update(PINNED_ENV)

ROOT = Path.cwd()
SRC = ROOT / "src"

WORKLOADS = ("ingest-wide", "fleet-mixed", "analyze-archive")

UNITS = {
    "setup_s": "s", "intervals_per_s": "1/s", "latency_p50_ms": "ms",
    "latency_tail_ms": "ms", "cpu_us_per_interval": "us", "rss_mb": "MiB",
    "label_match": "ratio", "agreement_median": "ratio",
}


class Context:
    """What one run needs: seed, budget, scratch space, process ledger."""

    def __init__(self, args, rel: Path) -> None:
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.root = ROOT
        self.src = SRC
        self.rel = rel                    # scratch dir, relative to ROOT
        self.work = ROOT / rel
        self.spans_path = self.work / "spans.tsv"
        self.ledger = ProcessLedger()
        self.outcome = Outcome()
        self.report: dict = {}
        self.daemon_cpus = None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import offline
    import online

    rel = Path(".perfbench-tmp") / f"{os.getpid()}-{time.time_ns()}"
    ctx = Context(args, rel)
    own_cpus, ctx.daemon_cpus = split_cpus()
    if own_cpus:
        os.sched_setaffinity(0, own_cpus)
    ctx.work.mkdir(parents=True)
    env = environment()
    log(f"{args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} env={env}")
    try:
        if args.workload == "analyze-archive":
            metrics = (offline.run_traced if args.trace else offline.run)(ctx)
        else:
            spec = (online.INGEST_WIDE if args.workload == "ingest-wide"
                    else online.FLEET_MIXED)
            metrics = (online.run_traced if args.trace else online.run)(spec, ctx)
        if args.trace:
            log(f"spans written to {ctx.spans_path}")
    finally:
        survivors = ctx.ledger.survivors()
        for pid in survivors:
            try:
                os.kill(pid, 9)
            except OSError:
                pass
        shutil.rmtree(ctx.work, ignore_errors=True)
        try:
            ctx.work.parent.rmdir()
        except OSError:
            pass
    out = ctx.outcome
    if survivors:
        out.fail(1, f"spawned processes outlived the run: {survivors}")
    for reason in out.reasons:
        log(f"FAILED: {reason}")
    attempted = max(1, out.attempted)
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env,
              "failed_ratio": out.failed / attempted}
    report.update(ctx.report)
    print(json.dumps({"report": report}, default=float))
    correct = out.failed == 0
    units = dict(UNITS, **PER_LAYER)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": out.failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
