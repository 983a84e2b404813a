"""Per-layer figures of one traced round, named by the program's modules.

Times are the summed durations of the spans ``tracing.py`` records
around each layer's calls (inclusive of the layers they call, except
that a span nested in one of the same name is not counted twice).
Counts come from the program's own counters on the result objects the
probe kept: ``DpiStats``, the pipeline's ``StageStats``, the pcap
decoder's ``IngestStats`` and the service's queue counters.

README.md lists the end-to-end metric each layer metric should move, and
on which workload.
"""

from __future__ import annotations

import glob
import json
from collections import defaultdict

#: name, unit, better — the ``per_layer`` list of BENCHMARK.json.
PER_LAYER = [
    ("packets.index_s", "s", "lower"),
    ("packets.decode_s", "s", "lower"),
    ("packets.frames", "count", "higher"),
    ("packets.fast_path_frames", "count", "higher"),
    ("packets.fallback_frames", "count", "lower"),
    ("apps.simulate_s", "s", "lower"),
    ("apps.records", "count", "higher"),
    ("filtering.filter_s", "s", "lower"),
    ("filtering.records_in", "count", "higher"),
    ("filtering.kept", "count", "higher"),
    ("filtering.peak_buffered", "count", "lower"),
    ("dpi.dpi_s", "s", "lower"),
    ("dpi.datagrams", "count", "higher"),
    ("dpi.messages", "count", "higher"),
    ("dpi.sweeps", "count", "lower"),
    ("dpi.fastpath_hits", "count", "higher"),
    ("dpi.fastpath_fallbacks", "count", "lower"),
    ("dpi.fastpath_redos", "count", "lower"),
    ("dpi.fastpath_hit_rate", "ratio", "higher"),
    ("dpi.cache_hits", "count", "higher"),
    ("dpi.cache_misses", "count", "lower"),
    ("dpi.cache_hit_rate", "ratio", "higher"),
    ("dpi.peak_buffered", "count", "lower"),
    ("core.check_s", "s", "lower"),
    ("core.verdicts", "count", "higher"),
    ("core.summarize_s", "s", "lower"),
    ("session.feed_s", "s", "lower"),
    ("session.close_s", "s", "lower"),
    ("experiments.cell_s", "s", "lower"),
    ("experiments.pool_busy", "ratio", "higher"),
    ("experiments.tables_s", "s", "lower"),
    ("service.create_s", "s", "lower"),
    ("service.sse_s", "s", "lower"),
    ("service.queue_blocked", "count", "lower"),
    ("service.queue_drops", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

#: span name -> metric name
SPAN_METRICS = {
    "packets.index": "packets.index_s",
    "packets.decode": "packets.decode_s",
    "apps.simulate": "apps.simulate_s",
    "filtering.filter": "filtering.filter_s",
    "dpi.dpi": "dpi.dpi_s",
    "core.check": "core.check_s",
    "core.summarize": "core.summarize_s",
    "session.feed": "session.feed_s",
    "session.close": "session.close_s",
    "experiments.cell": "experiments.cell_s",
    "experiments.tables": "experiments.tables_s",
}

DPI_COUNTS = ("datagrams", "sweeps", "fastpath_hits", "fastpath_fallbacks",
              "fastpath_redos", "cache_hits", "cache_misses")


class LayerFigures:
    """Accumulates one round's per-layer figures."""

    def __init__(self):
        self.values = defaultdict(float)
        self.spans = 0
        #: workers x matrix wall, the denominator of pool_busy
        self.matrix_capacity = 0.0

    def add_trace_dir(self, directory: str) -> None:
        for path in sorted(glob.glob(f"{directory}/spans-*.json")):
            with open(path) as handle:
                payload = json.load(handle)
            spans = payload["spans"]
            for span in spans:
                if span is None:
                    continue
                name, _start, _end, parent, _op, busy = span
                self.spans += 1
                if parent >= 0 and spans[parent] and spans[parent][0] == name:
                    continue
                metric = SPAN_METRICS.get(name)
                if metric:
                    self.values[metric] += busy
            self.values["apps.records"] += payload["counters"].get(
                "apps.simulate.items", 0)

    def _add_stages(self, stages: dict) -> None:
        values = self.values
        filt = stages.get("filter")
        if filt:
            values["filtering.records_in"] += filt["records_in"]
            values["filtering.kept"] += filt["records_out"]
            values["filtering.peak_buffered"] = max(
                values["filtering.peak_buffered"], filt["peak_buffered"])
        dpi = stages.get("dpi")
        if dpi:
            values["dpi.peak_buffered"] = max(
                values["dpi.peak_buffered"], dpi["peak_buffered"])
        check = stages.get("check")
        if check:
            values["core.verdicts"] += check["records_out"]

    def _add_dpi(self, dpi: dict, messages: int) -> None:
        for name in DPI_COUNTS:
            self.values[f"dpi.{name}"] += dpi[name]
        self.values["dpi.messages"] += messages

    def add_sessions(self, sessions) -> None:
        """Facts of closed ``AnalysisSession`` results (see ``probe.py``)."""
        for facts in sessions:
            self._add_dpi(facts["dpi"], facts["messages"])
            self._add_stages(facts["stages"])

    def add_ingest(self, ingest: dict) -> None:
        self.values["packets.frames"] += ingest["frames"]
        self.values["packets.fast_path_frames"] += ingest["fast_path"]
        self.values["packets.fallback_frames"] += ingest["fallbacks"]

    def add_matrix(self, facts: dict, wall: float, workers: int) -> None:
        for app_facts in facts.values():
            self._add_dpi(app_facts["dpi"], app_facts["messages"])
            self._add_stages(app_facts["stages"])
        self.matrix_capacity = wall * workers

    def add_service(self, create_s: float, sse_s: float, queue: dict) -> None:
        self.values["service.create_s"] += create_s
        self.values["service.sse_s"] += sse_s
        self.values["service.queue_blocked"] += queue["blocked"]
        self.values["service.queue_drops"] += queue["drops"]

    def metrics(self) -> dict:
        values = dict(self.values)
        datagrams = values.get("dpi.datagrams", 0)
        lookups = values.get("dpi.cache_hits", 0) + values.get("dpi.cache_misses", 0)
        values["dpi.fastpath_hit_rate"] = (
            values.get("dpi.fastpath_hits", 0) / datagrams if datagrams else 0.0)
        values["dpi.cache_hit_rate"] = (
            values.get("dpi.cache_hits", 0) / lookups if lookups else 0.0)
        capacity = self.matrix_capacity
        values["experiments.pool_busy"] = (
            values.get("experiments.cell_s", 0.0) / capacity if capacity else 0.0)
        return {name: values.get(name, 0.0) for name, _unit, _better in PER_LAYER}
