"""Run one ``rtc-compliance`` command in this process and report on it.

Usage, from the root of a checkout with ``src/`` on ``PYTHONPATH``::

    python3 perfbench/probe.py REPORT.json TRACE OP -- pcap capture.pcap
    python3 perfbench/probe.py REPORT.json 0 setup --

The benchmark starts every analyzing process through this file.  The
command runs through ``repro.cli.main``, the console-script entry point,
with no execution flags, so it sees the configuration a user gets by
default.  Around it the probe notes when imports finished, keeps a
reference to the results the command already holds (so the benchmark
can check them after the command returns, outside the timed region;
the daemon's session results are read as the client deletes them),
and reads the peak resident memory of this process and of any pool
workers still alive when the command returns.  With TRACE=1 it first
wraps each layer's public calls in spans (``tracing.py``).  An empty
command only imports, which samples set-up time.

The report is a JSON file; the command's own standard output is left
untouched for the benchmark to parse.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback


def vmhwm_kb(pid="self"):
    """Peak resident set of a live process, in kB (None once it is gone)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def _session_facts(result) -> dict:
    """Counts a closed ``AnalysisSession`` produced, for the checks."""
    dpi = result.dpi
    stats = dpi.stats
    stages = {name: stat.to_json() for name, stat in result.stage_stats.items()}
    return {
        "verdicts": len(result.verdicts),
        "messages": sum(len(a.messages) for a in dpi.analyses),
        "class_total": sum(dpi.by_class().values()),
        "dpi": {
            "datagrams": stats.datagrams,
            "sweeps": stats.sweeps,
            "fastpath_hits": stats.fastpath_hits,
            "fastpath_fallbacks": stats.fastpath_fallbacks,
            "fastpath_redos": stats.fastpath_redos,
            "cache_hits": stats.cache_hits,
            "cache_misses": stats.cache_misses,
            "invariant_violations": stats.invariant_violations(),
        },
        "stages": stages,
    }


def _matrix_facts(matrix) -> dict:
    apps = {}
    for app, agg in matrix.per_app.items():
        stats = agg.dpi_stats
        raw = agg.raw
        apps[app] = {
            "raw_records": raw.udp_packets + raw.tcp_packets,
            "precision": agg.filter_precision,
            "recall": agg.filter_recall,
            "class_total": sum(agg.class_counts.values()),
            "messages": sum(agg.protocol_counts.values()),
            "cells": agg.cells,
            "dpi": {
                "datagrams": stats.datagrams,
                "sweeps": stats.sweeps,
                "fastpath_hits": stats.fastpath_hits,
                "fastpath_fallbacks": stats.fastpath_fallbacks,
                "fastpath_redos": stats.fastpath_redos,
                "cache_hits": stats.cache_hits,
                "cache_misses": stats.cache_misses,
                "invariant_violations": stats.invariant_violations(),
            },
            "stages": {
                name: stat.to_json() for name, stat in agg.stage_stats.items()
            },
        }
    return apps


def main() -> int:
    report_path, trace, op = sys.argv[1], sys.argv[2] == "1", sys.argv[3]
    argv = sys.argv[sys.argv.index("--") + 1:]

    import repro.cli

    held = {"readers": [], "sessions": {}, "service": {}, "matrix": None}
    command = argv[0] if argv else None
    if command == "pcap":
        from repro.packets.batch import BatchPcapReader
        from repro.service.session import AnalysisSession

        reader_init = BatchPcapReader.__init__
        session_close = AnalysisSession.close

        def init(self, *args, **kwargs):
            reader_init(self, *args, **kwargs)
            held["readers"].append(self)

        def close(self):
            result = session_close(self)
            held["sessions"][id(self)] = result
            return result

        BatchPcapReader.__init__ = init
        AnalysisSession.close = close
    elif command == "matrix":
        run_matrix = repro.cli.run_matrix

        def matrix_hook(*args, **kwargs):
            held["matrix"] = run_matrix(*args, **kwargs)
            return held["matrix"]

        repro.cli.run_matrix = matrix_hook
    elif command == "serve":
        from repro.service.http import ComplianceService

        delete_session = ComplianceService.delete_session

        def delete_hook(self, session_id):
            handle = self.get(session_id)
            payload = delete_session(self, session_id)
            if handle.result is not None:
                held["service"][session_id] = dict(
                    _session_facts(handle.result), id=session_id, app=handle.app)
            return payload

        ComplianceService.delete_session = delete_hook

    tracer = None
    trace_dir = os.path.join(os.path.dirname(report_path), f"trace-{op}")
    if trace:
        import tracing

        tracer = tracing.Tracer(trace_dir, op)
        tracing.install(tracer)

    ready = time.monotonic()
    report = {"ready": ready, "argv": argv, "error": None, "rc": 0}
    if argv:
        try:
            report["rc"] = repro.cli.main(argv)
        except SystemExit as exc:
            report["rc"] = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:
            report["error"] = f"{type(exc).__name__}: {exc}"
            report["rc"] = 1
            traceback.print_exc()
        sys.stdout.flush()
    report["done"] = time.monotonic()

    import multiprocessing

    report["vmhwm_kb"] = vmhwm_kb()
    report["worker_vmhwm_kb"] = [
        vmhwm_kb(child.pid) for child in multiprocessing.active_children()
    ]
    report["sessions"] = [_session_facts(r) for r in held["sessions"].values()]
    if held["readers"]:
        reader = held["readers"][-1]
        report["ingest"] = dict(reader.stats.as_dict(), vectorized=reader.vectorized)
    if held["matrix"] is not None:
        report["matrix"] = _matrix_facts(held["matrix"])
    report["service"] = list(held["service"].values())
    if tracer is not None:
        tracer.dump()
    with open(report_path + ".tmp", "w") as handle:
        json.dump(report, handle)
    os.replace(report_path + ".tmp", report_path)
    return int(report["rc"] or 0)


if __name__ == "__main__":
    sys.exit(main())
