"""The three workloads: one round each, with checks and raw samples.

A round attempts the same operations every time, so the share of failed
operations is the same in every run:

* ``pcap-audit``: 24 captures (6 apps x 2 calls x clean/lossy) and one
  truncated capture, each analyzed by ``rtc-compliance pcap`` in a fresh
  process.
* ``paper-matrix``: one ``rtc-compliance matrix`` process, 18 cells.
* ``live-replay``: one ``rtc-compliance serve`` daemon, 12 sessions (each
  app twice).

A round returns a :class:`Round` holding its operations, the problems
its checks found, the samples the end-to-end metrics are made from, a
digest of every summary (to compare a traced round with an untraced
one), and, for a traced round, the raw per-layer figures.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import checks
import inputs
import layers
from procs import Workspace, run_probe, start_daemon


@dataclass
class Round:
    ops: List[dict] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    setup: List[float] = field(default_factory=list)
    latency: List[float] = field(default_factory=list)
    records: int = 0
    wall: float = 0.0
    peak_kb: int = 0
    digests: Dict[str, str] = field(default_factory=dict)
    details: List[str] = field(default_factory=list)
    layer: Optional[layers.LayerFigures] = None

    def op(self, name: str, error: Optional[str] = None) -> None:
        self.ops.append({"name": name, "failed": error is not None, "error": error})

    def sample(self, name: str, latency: float, records: int, wall: float) -> None:
        """One successful operation's contribution to the metrics."""
        self.latency.append(latency)
        self.records += records
        self.wall += wall
        self.details.append(f"operation {name}: latency {latency:.3f} s, {records} records")


def _digest(*parts: str) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode())
    return digest.hexdigest()


def _isolation(ws: Workspace, rnd: Round) -> None:
    stray = ws.stray_files()
    if stray:
        rnd.problems.append(f"the program wrote under HOME: {stray}")


# --- pcap-audit ----------------------------------------------------------------

def prepare_pcap_audit(ws: Workspace, seed: int) -> List[dict]:
    os.makedirs(ws.path("captures"))
    return inputs.make_audit_inputs(seed, ws.path("captures"))


def pcap_audit(ws: Workspace, seed: int, captures: List[dict], trace: bool) -> Round:
    rnd = Round(layer=layers.LayerFigures() if trace else None)
    zoom_rtp = checks.zoom_declared_rtp()
    volume: Dict[str, Dict[str, tuple]] = {}
    types: Dict[str, list] = {}
    vectorized = set()
    for item in captures:
        name = item["name"]
        run = run_probe(ws, name, ["pcap", item["path"]], trace)
        if not run.ok:
            rnd.op(name, run.error)
            continue
        rnd.op(name)
        summary = checks.parse_pcap_output(run.stdout)
        facts = run.report["sessions"][0]
        rnd.problems += checks.check_record_count(
            name, item["records"], summary["ingest_records"])
        rnd.problems += checks.check_summary(item["app"], summary, zoom_rtp)
        rnd.problems += checks.check_consistency(
            name, sum(summary["classes"].values()), facts["dpi"]["datagrams"],
            facts["dpi"]["invariant_violations"], facts["verdicts"],
            summary["volume"][1])
        volume.setdefault(f"{item['profile']} call {item['call']}", {})[item["app"]] = (
            summary["volume"])
        types.setdefault(item["app"], []).append(summary["types"])
        rnd.setup.append(run.setup_s)
        rnd.sample(name, run.main_s, item["records"], run.main_s)
        rnd.peak_kb = max(rnd.peak_kb, run.report["vmhwm_kb"])
        rnd.digests[name] = _digest(*(
            line for line in run.stdout.splitlines() if not line.startswith("Ingest:")))
        if trace:
            rnd.layer.add_trace_dir(run.trace_dir)
            rnd.layer.add_sessions(run.report["sessions"])
            rnd.layer.add_ingest(run.report["ingest"])
            vectorized.add(run.report["ingest"]["vectorized"])
    if vectorized:
        rnd.details.append(f"vectorized pcap index scan: {sorted(vectorized)}")
    for app, per_call in types.items():
        rnd.problems += checks.check_paper_types(
            app, checks.merge_types(*per_call), zoom_rtp)
    for group, per_app in volume.items():
        if len(per_app) == len(inputs.APPS):
            rnd.problems += [f"{group}: {text}" for text in checks.check_figure4(per_app)]
    _isolation(ws, rnd)
    return rnd


# --- paper-matrix --------------------------------------------------------------

#: Extra import-only processes per round, so set-up is a median of five.
SETUP_PROBES = 4


def matrix_cells() -> List[str]:
    return [f"{app}/{net}" for app in inputs.APPS
            for net in ("cellular", "wifi_p2p", "wifi_relay")]


def _check_matrix(rnd: Round, run, zoom_rtp) -> int:
    """Check one matrix execution; returns its raw record count."""
    facts = run.report["matrix"]
    parsed = checks.parse_matrix_output(run.stdout)
    records = 0
    for app in inputs.APPS:
        app_facts = facts[app]
        seen = [proto for proto in parsed["table3"].get(app, {}) if proto != "all"]
        rnd.problems += checks.check_paper_types(
            app, parsed["types"].get(app, []), zoom_rtp)
        rnd.problems += checks.check_presence(app, seen)
        rnd.problems += checks.check_filter_quality(
            app, app_facts["precision"], app_facts["recall"])
        rnd.problems += checks.check_consistency(
            app, app_facts["class_total"], app_facts["dpi"]["datagrams"],
            app_facts["dpi"]["invariant_violations"])
        records += app_facts["raw_records"]
    rnd.problems += checks.check_table3(parsed["table3"])
    rnd.problems += checks.check_figure4(
        {app: (share, 100.0) for app, share in parsed["figure4"].items()})
    if not os.path.exists(run.calibration):
        rnd.problems.append("the matrix wrote no calibration file where pointed")
    return records


def prepare_paper_matrix(ws: Workspace, seed: int) -> None:
    """The matrix makes its own calls from ``--seed``."""
    return None


def paper_matrix(ws: Workspace, seed: int, _prepared: None, trace: bool) -> Round:
    rnd = Round(layer=layers.LayerFigures() if trace else None)
    zoom_rtp = checks.zoom_declared_rtp()
    for index in range(SETUP_PROBES):
        probe = run_probe(ws, f"setup{index}", [])
        if probe.ok:
            rnd.setup.append(probe.setup_s)
    run = run_probe(ws, "matrix", ["matrix", "--seed", str(seed)], trace)
    if not run.ok:
        for cell in matrix_cells():
            rnd.op(cell, run.error)
        return rnd
    for cell in matrix_cells():
        rnd.op(cell)
    records = _check_matrix(rnd, run, zoom_rtp)
    _isolation(ws, rnd)
    rnd.setup.append(run.setup_s)
    rnd.sample("matrix", run.main_s, records, run.main_s)
    rnd.peak_kb = max([run.report["vmhwm_kb"]] + [
        kb for kb in run.report["worker_vmhwm_kb"] if kb])
    rnd.digests["matrix"] = _digest(run.stdout)
    if trace:
        rnd.layer.add_trace_dir(run.trace_dir)
        rnd.layer.add_matrix(run.report["matrix"], run.main_s,
                             max(1, len(run.report["worker_vmhwm_kb"])))
    return rnd


# --- live-replay ---------------------------------------------------------------

#: Throwaway daemons started before the measured one, for set-up samples.
SETUP_DAEMONS = 2
HEALTH_TIMEOUT = 60.0


def _wait_healthy(port: int) -> float:
    deadline = time.monotonic() + HEALTH_TIMEOUT
    while time.monotonic() < deadline:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            response.read()
            if response.status == 200:
                return time.monotonic()
        except OSError:
            pass
        finally:
            conn.close()
        time.sleep(0.005)
    raise RuntimeError("daemon never answered /healthz")


def _read_events(port: int, session_id: str) -> dict:
    """Consume one session's SSE stream up to its ``end`` event."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request("GET", f"/sessions/{session_id}/events")
        response = conn.getresponse()
        if response.status != 200:
            raise RuntimeError(f"/events answered {response.status}")
        stream = {"verdicts": 0, "verdict_digest": hashlib.sha256(),
                  "first_verdict": None, "end": None, "summary": None,
                  "snapshot": None, "error": None}
        event = None
        while True:
            line = response.readline()
            if not line:
                break
            if line.startswith(b"event: "):
                event = line[7:].strip().decode()
            elif line.startswith(b"data: "):
                data = line[6:]
                if event == "verdict":
                    if stream["first_verdict"] is None:
                        stream["first_verdict"] = time.monotonic()
                    stream["verdicts"] += 1
                    stream["verdict_digest"].update(data)
                elif event == "snapshot":
                    stream["snapshot"] = json.loads(data)
                elif event == "summary":
                    stream["summary"] = json.loads(data)
                elif event == "error":
                    stream["error"] = json.loads(data)["error"]
                elif event == "end":
                    stream["end"] = time.monotonic()
                    break
        return stream
    finally:
        conn.close()


def prepare_live_replay(ws: Workspace, seed: int) -> List[dict]:
    return inputs.live_truth(seed)


def live_replay(ws: Workspace, seed: int, truth: List[dict], trace: bool) -> Round:
    rnd = Round(layer=layers.LayerFigures() if trace else None)
    for index in range(SETUP_DAEMONS):
        daemon = start_daemon(ws, f"setup{index}")
        try:
            rnd.setup.append(_wait_healthy(daemon.port) - daemon.spawned)
        finally:
            daemon.stop()
    daemon = start_daemon(ws, "daemon", trace)
    volume = {}
    sessions = {}
    try:
        rnd.setup.append(_wait_healthy(daemon.port) - daemon.spawned)
        control = http.client.HTTPConnection("127.0.0.1", daemon.port, timeout=120)
        try:
            for item in truth:
                name = item["name"]
                spec = {"app": item["app"], "network": "wifi_relay", "seed": item["seed"],
                        "duration": inputs.LIVE_DURATION, "scale": inputs.LIVE_SCALE,
                        "pace": "clock", "speed": inputs.LIVE_SPEED}
                posted = time.monotonic()
                control.request("POST", "/sessions", body=json.dumps(spec),
                                headers={"Content-Type": "application/json"})
                response = control.getresponse()
                created = json.loads(response.read())
                accepted = time.monotonic()
                if response.status != 201:
                    rnd.op(name, f"POST /sessions answered {response.status}: {created}")
                    continue
                stream = _read_events(daemon.port, created["id"])
                control.request("DELETE", f"/sessions/{created['id']}")
                deleted = control.getresponse()
                deleted.read()
                if deleted.status != 200:
                    rnd.problems.append(f"{name}: DELETE answered {deleted.status}")
                if stream["error"] or stream["end"] is None or not stream["summary"]:
                    rnd.op(name, stream["error"] or "stream ended without a summary")
                    continue
                rnd.op(name)
                sessions[created["id"]] = (item, stream)
                summary = checks.summary_from_event(stream["summary"])
                rnd.problems += checks.check_summary(item["app"], summary)
                rnd.problems += checks.check_record_count(
                    name, item["records"], stream["snapshot"]["records_fed"])
                stages = {stage["name"]: stage for stage in stream["snapshot"]["stages"]}
                rnd.problems += checks.check_filter_kept(
                    name, item["rtc_records"], stages["filter"]["records_out"])
                volume.setdefault(name[-1], {})[item["app"]] = summary["volume"]
                due = accepted + item["release"] / inputs.LIVE_SPEED
                rnd.sample(name, stream["end"] - due, item["records"],
                           stream["end"] - posted)
                rnd.digests[name] = _digest(
                    stream["verdict_digest"].hexdigest(),
                    json.dumps(stream["summary"], sort_keys=True))
                if trace:
                    rnd.layer.add_service(accepted - posted,
                                          stream["end"] - stream["first_verdict"],
                                          stream["snapshot"]["queue"])
        finally:
            control.close()
    finally:
        report = daemon.stop()
    if report is None:
        rnd.problems.append("the daemon wrote no report")
        return rnd
    by_id = {entry["id"]: entry for entry in report["service"]}
    for session_id, (item, stream) in sessions.items():
        facts = by_id.get(session_id)
        if facts is None:
            rnd.problems.append(f"{item['name']}: the daemon reported no result")
            continue
        rnd.problems += checks.check_consistency(
            item["name"], facts["class_total"], facts["dpi"]["datagrams"],
            facts["dpi"]["invariant_violations"], stream["verdicts"],
            stream["summary"]["volume"]["total"])
    for per_app in volume.values():
        if len(per_app) == len(inputs.APPS):
            rnd.problems += checks.check_figure4(per_app)
    _isolation(ws, rnd)
    rnd.peak_kb = report["vmhwm_kb"]
    if trace:
        rnd.layer.add_trace_dir(daemon.trace_dir)
        rnd.layer.add_sessions(report["service"])
    return rnd


#: name -> (make the inputs from a seed, run one round on them)
WORKLOADS = {
    "pcap-audit": (prepare_pcap_audit, pcap_audit),
    "paper-matrix": (prepare_paper_matrix, paper_matrix),
    "live-replay": (prepare_live_replay, live_replay),
}
