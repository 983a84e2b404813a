"""Spans around the calls into each layer of the program, kept in memory.

The benchmark installs these wrappers from its own files, inside the
analyzing processes (see ``probe.py``); nothing under ``src/`` knows
about them.  Each span records its name, start, end, the span that
enclosed it on the same thread, the operation it belongs to and its
process.  Spans stay in a list and are written out once, when the
process that recorded them ends: the probe writes its own, and forked
pool workers write theirs from a ``multiprocessing`` exit finalizer.

A layer whose public surface is a generator (capture decode, call
simulation) is timed per ``next()`` and folded into one span per call
whose ``busy`` field is the summed time inside the generator.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from typing import Callable, Dict, List, Optional

#: (owner module, owner attribute or "" for a module-level function,
#: attribute, span name, kind).  Kind ``call`` spans one call, ``gen``
#: folds a generator's ``next()`` calls into one span, ``cell`` spans
#: one matrix cell and labels the spans inside it with the cell.
LAYER_CALLS = [
    ("repro.packets.batch", "BatchPcapReader", "__init__", "packets.index", "call"),
    ("repro.packets.batch", "BatchPcapReader", "chunks", "packets.decode", "gen"),
    ("repro.apps.base", "AppSimulator", "iter_records", "apps.simulate", "gen"),
    ("repro.pipeline.stages", "FilterStage", "process", "filtering.filter", "call"),
    ("repro.pipeline.stages", "FilterStage", "process_chunk", "filtering.filter", "call"),
    ("repro.pipeline.stages", "FilterStage", "flush", "filtering.filter", "call"),
    ("repro.pipeline.stages", "FilterStage", "evict", "filtering.filter", "call"),
    ("repro.pipeline.stages", "DpiStage", "process", "dpi.dpi", "call"),
    ("repro.pipeline.stages", "DpiStage", "process_chunk", "dpi.dpi", "call"),
    ("repro.pipeline.stages", "DpiStage", "flush", "dpi.dpi", "call"),
    ("repro.pipeline.stages", "DpiStage", "evict", "dpi.dpi", "call"),
    ("repro.pipeline.stages", "CheckStage", "process", "core.check", "call"),
    ("repro.pipeline.stages", "CheckStage", "process_chunk", "core.check", "call"),
    ("repro.pipeline.stages", "CheckStage", "flush", "core.check", "call"),
    ("repro.core.metrics", "ComplianceSummary", "from_verdicts", "core.summarize", "call"),
    ("repro.experiments.runner", "", "merge_summaries", "core.summarize", "call"),
    ("repro.service.session", "AnalysisSession", "feed", "session.feed", "call"),
    ("repro.service.session", "AnalysisSession", "close", "session.close", "call"),
    ("repro.experiments.parallel", "", "run_cell", "experiments.cell", "cell"),
]

#: Table and figure builders the ``matrix`` command calls by the names
#: ``repro.cli`` imported them under.
TABLE_CALLS = [
    "table1", "table2", "table3", "table4", "table5", "table6",
    "figure3", "figure4", "figure5",
    "render_table1", "render_table2", "render_table3",
    "render_observed_types", "render_ratio_series",
]


class Tracer:
    """Process-local span store; safe to use from several threads."""

    def __init__(self, out_dir: str, op: str):
        self.out_dir = out_dir
        self.default_op = op
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._local = threading.local()
        #: (name, start, end, parent index, op, busy seconds)
        self.spans: List[tuple] = []
        self.counters: Dict[str, int] = {}

    # -- process and thread context -----------------------------------

    def _check_process(self) -> None:
        """A forked worker starts with a copy of its parent's spans;
        drop them and arrange to write its own when it exits."""
        pid = os.getpid()
        if pid == self._pid:
            return
        with self._lock:
            if pid == self._pid:
                return
            self._pid = pid
            self.spans = []
            self.counters = {}
            self._local = threading.local()
        from multiprocessing import util

        util.Finalize(None, self.dump, exitpriority=100)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_op(self) -> str:
        return getattr(self._local, "op", None) or self.default_op

    def set_op(self, op: Optional[str]) -> None:
        self._local.op = op

    # -- recording ----------------------------------------------------

    def begin(self, name: str):
        self._check_process()
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)
        stack.append(index)
        return (index, name, time.monotonic(), parent)

    def end(self, token, busy: Optional[float] = None) -> None:
        index, name, start, parent = token
        finish = time.monotonic()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()
        self.spans[index] = (
            name, start, finish, parent, self.current_op(),
            finish - start if busy is None else busy,
        )

    def count(self, name: str, value: int) -> None:
        self._check_process()
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def dump(self) -> None:
        """Write this process's spans and counters as one JSON file."""
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.json")
        with self._lock:
            payload = {
                "pid": os.getpid(),
                "spans": list(self.spans),
                "counters": dict(self.counters),
            }
        with open(path + ".tmp", "w") as handle:
            json.dump(payload, handle)
        os.replace(path + ".tmp", path)

    # -- wrappers -----------------------------------------------------

    def wrap_call(self, fn: Callable, name: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(token)

        return traced

    def wrap_gen(self, fn: Callable, name: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = tracer.begin(name)
            busy = 0.0
            items = 0
            try:
                iterator = fn(*args, **kwargs)
                while True:
                    started = time.monotonic()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        busy += time.monotonic() - started
                        return
                    busy += time.monotonic() - started
                    items += 1
                    yield item
            finally:
                tracer.end(token, busy)
                tracer.count(name + ".items", items)

        return traced

    def wrap_cell(self, fn: Callable, name: str) -> Callable:
        """Span one matrix cell and label its spans with the cell."""
        tracer = self

        @functools.wraps(fn)
        def traced(cell, *args, **kwargs):
            app, network, repeat = cell
            tracer.set_op(f"{app}/{network.value}/{repeat}")
            token = tracer.begin(name)
            try:
                return fn(cell, *args, **kwargs)
            finally:
                tracer.end(token)
                tracer.set_op(None)

        return traced


def _replace(owner, attr: str, make: Callable[[Callable], Callable]) -> None:
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    elif isinstance(raw, staticmethod):
        setattr(owner, attr, staticmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))


def install(tracer: Tracer) -> None:
    """Wrap every layer call in :data:`LAYER_CALLS` and the matrix tables."""
    import importlib

    import repro.cli

    wrappers = {"call": tracer.wrap_call, "gen": tracer.wrap_gen,
                "cell": tracer.wrap_cell}
    for module_name, owner_name, attr, name, kind in LAYER_CALLS:
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        _replace(owner, attr, lambda fn, n=name, k=kind: wrappers[k](fn, n))
    for attr in TABLE_CALLS:
        _replace(repro.cli, attr, lambda fn: tracer.wrap_call(fn, "experiments.tables"))
