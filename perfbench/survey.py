#!/usr/bin/env python3
"""DPI configuration survey on the pcap-audit captures (reference only).

    python3 perfbench/survey.py --seed 1

Makes the 12 pcap-audit captures for the seed, then analyzes each one
under every combination of DPI backend (scalar, columnar), fast path
(on, off) and candidate cache (default size, off), each capture in a
fresh process, the way ``rtc-compliance pcap`` does (mmap batch decode,
chunked ``run_streaming``).  It prints one markdown row per
configuration: records per second over all captures, the largest peak
RSS of any capture, and whether its verdicts equal the default
configuration's.  The ``pcap`` command exposes only the backend as a
flag, so the survey builds the engine through the library.  Nothing
here is an output check of the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def analyze_one(backend: str, fastpath: bool, cache: bool, path: str) -> dict:
    from repro.core import ComplianceChecker
    from repro.dpi import DpiEngine
    from repro.packets.batch import BatchPcapReader
    from repro.pipeline import run_streaming

    from probe import vmhwm_kb

    kwargs = {"backend": backend, "fastpath": fastpath}
    if not cache:
        kwargs["cache_size"] = 0
    start = time.monotonic()
    with BatchPcapReader(path) as reader:
        records = (record for chunk in reader.chunks() for record in chunk)
        _result, verdicts, _stats = run_streaming(
            records, DpiEngine(**kwargs), ComplianceChecker())
        count = reader.stats.records
    seconds = time.monotonic() - start
    digest = hashlib.sha256()
    for verdict in verdicts:
        digest.update(repr((verdict.message.type_key(), verdict.compliant,
                            verdict.violation_keys())).encode())
    return {"records": count, "seconds": seconds, "vmhwm_kb": vmhwm_kb(),
            "verdicts": digest.hexdigest()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--one", nargs=4, metavar=("BACKEND", "FASTPATH", "CACHE", "PCAP"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    sys.path.insert(0, SRC)
    if args.one:
        backend, fastpath, cache, path = args.one
        print(json.dumps(analyze_one(backend, fastpath == "1", cache == "1", path)))
        return 0

    import inputs

    os.makedirs(os.path.join(ROOT, ".perfbench-work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="survey-", dir=os.path.join(ROOT, ".perfbench-work"))
    try:
        captures = inputs.make_audit_inputs(args.seed, work)[:-1]
        env = dict(os.environ, PYTHONPATH=SRC)
        configs = list(itertools.product(("scalar", "columnar"), (True, False),
                                          (True, False)))
        print("| backend | fast path | cache | rec/s | peak RSS (MB) | verdicts |")
        print("|---|---|---|---|---|---|")
        reference = None
        for backend, fastpath, cache in configs:
            records = seconds = peak = 0
            digests = []
            for item in captures:
                out = subprocess.run(
                    [sys.executable, os.path.abspath(__file__), "--one", backend,
                     str(int(fastpath)), str(int(cache)), item["path"]],
                    env=env, check=True, capture_output=True, text=True).stdout
                row = json.loads(out.splitlines()[-1])
                records += row["records"]
                seconds += row["seconds"]
                peak = max(peak, row["vmhwm_kb"])
                digests.append(row["verdicts"])
            if reference is None:
                reference = digests
            print(f"| {backend} | {'on' if fastpath else 'off'} | "
                  f"{'on' if cache else 'off'} | {records / seconds:.0f} | "
                  f"{peak / 1024:.0f} | "
                  f"{'same' if digests == reference else 'DIFFERENT'} |", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
