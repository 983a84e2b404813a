#!/usr/bin/env python3
"""Capture-to-verdict benchmark of ``rtc-compliance``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pcap-audit --seed 1 --seconds 10 --trace 0

Workloads: ``pcap-audit``, ``paper-matrix``, ``live-replay`` (see
``workloads.py`` and README.md).  The program runs as a user runs it, by
its CLI with no execution flags.  A run makes its inputs from ``--seed``,
byte-compiles ``src/`` in place (the only build a pure Python program
has; the bytecode is ignored by git), then attempts whole rounds of the workload's
operations until ``--seconds`` have passed, checks every output against
the paper and the generator's ground truth, and prints one JSON object
as its last line::

    {"correct": true, "attempted": 25, "failed": 1, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the run makes one untraced and one traced round on the
same inputs, requires their summaries to be identical, and reports the
per-layer metrics of the traced round plus the extra wall time tracing
cost (``trace.overhead_s``).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench-work")

#: A run starts no further round once this much wall time has passed,
#: so it ends well inside the 180 s a run may take.
ROUND_BUDGET_S = 150.0

UNITS = {
    "setup_s": "s",
    "records_per_s": "records/s",
    "peak_rss_mb": "MB",
    "verdict_latency_p50_s": "s",
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def combine(rounds) -> dict:
    """End-to-end metrics over every round of a run."""
    import statistics

    setup = [s for rnd in rounds for s in rnd.setup]
    latency = [s for rnd in rounds for s in rnd.latency]
    records = sum(rnd.records for rnd in rounds)
    wall = sum(rnd.wall for rnd in rounds)
    if not setup or not latency or not wall:
        return {}
    return {
        "setup_s": statistics.median(setup),
        "records_per_s": records / wall,
        "peak_rss_mb": max(rnd.peak_kb for rnd in rounds) / 1024.0,
        "verdict_latency_p50_s": statistics.median(latency),
    }


def describe_environment() -> None:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    print(f"environment: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy_version}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated run still stops its processes and removes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        fail(f"no program source under {SRC}; run from the root of a checkout")
    if not compileall.compile_dir(SRC, quiet=1):
        fail("src/ does not compile")
    sys.path.insert(0, SRC)

    import procs
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"expected one of {sorted(workloads.WORKLOADS)}")
    prepare, execute = workloads.WORKLOADS[args.workload]
    describe_environment()

    os.makedirs(WORK_DIR, exist_ok=True)
    ws = procs.Workspace(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    os.makedirs(ws.home)
    started = time.monotonic()
    try:
        prepared = prepare(ws, args.seed)
        for item in prepared or ():
            print(f"input {item['name']} "
                  f"seed={item['seed']} records={item['records']} "
                  f"sha256={item['sha256']}")
        problems = []
        if args.trace:
            plain = execute(ws, args.seed, prepared, False)
            traced = execute(ws, args.seed, prepared, True)
            rounds = [plain, traced]
            if plain.digests != traced.digests:
                differing = sorted(
                    name for name in set(plain.digests) | set(traced.digests)
                    if plain.digests.get(name) != traced.digests.get(name))
                problems.append(f"traced summaries differ from untraced: {differing}")
            metrics = traced.layer.metrics()
            metrics["trace.overhead_s"] = traced.wall - plain.wall
            share = traced.wall / plain.wall - 1 if plain.wall else 0.0
            print(f"tracing: {traced.layer.spans} spans, overhead "
                  f"{traced.wall - plain.wall:+.3f} s on {plain.wall:.3f} s "
                  f"({share * 100:+.1f}%)")
            units = {name: unit for name, unit, _ in workloads.layers.PER_LAYER}
        else:
            rounds = []
            measure_start = time.monotonic()
            while True:
                round_start = time.monotonic()
                rounds.append(execute(ws, args.seed, prepared, False))
                now = time.monotonic()
                if now - measure_start >= args.seconds:
                    break
                if now - started + (now - round_start) > ROUND_BUDGET_S:
                    break
            metrics = combine(rounds)
            units = UNITS
        for rnd in rounds:
            problems.extend(rnd.problems)
        ops = [op for rnd in rounds for op in rnd.ops]
    finally:
        procs.stop_resource_tracker()
        shutil.rmtree(ws.root, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass

    for rnd in rounds:
        for line in rnd.details:
            print(line)
    for op in ops:
        if op["failed"]:
            print(f"failed operation {args.workload}/{op['name']}: {op['error']}")
    for problem in problems:
        print(f"check failed: {problem}")
    if not metrics:
        print("no operation succeeded; nothing to measure", file=sys.stderr)
    result = {
        "correct": not problems and bool(metrics),
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op["failed"]),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
