"""Start, time and clean up the processes the benchmark measures.

Every analyzing process runs ``probe.py`` in a session of its own, with
``src/`` on its path, a fresh planner calibration file, and a ``HOME`` inside the
run's work directory: whatever the program would write to the user's
cache lands there instead, where the run can see it and then delete it.
After a process exits, the benchmark waits for every other member of its
process group (pool workers) to be gone too, killing them if they
linger.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
PROBE = os.path.join(BENCH_DIR, "probe.py")


@dataclass
class Workspace:
    """One run's scratch directory inside the checkout."""

    root: str
    counter: int = 0

    @property
    def home(self) -> str:
        return os.path.join(self.root, "home")

    def path(self, name: str) -> str:
        return os.path.join(self.root, name)

    def fresh(self, stem: str) -> str:
        self.counter += 1
        return os.path.join(self.root, f"{stem}-{self.counter}")

    def env(self, calibration: str) -> Dict[str, str]:
        env = dict(os.environ)
        env.pop("XDG_CACHE_HOME", None)
        env["HOME"] = self.home
        env["RTC_COMPLIANCE_CALIBRATION"] = calibration
        env["PYTHONPATH"] = SRC
        return env

    def stray_files(self) -> List[str]:
        """Files anything wrote under the run's private ``HOME``."""
        found = []
        for base, _dirs, files in os.walk(self.home):
            found.extend(os.path.join(base, name) for name in files)
        return found


@dataclass
class ProbeRun:
    rc: int
    stdout: str
    stderr: str
    report: Optional[dict]
    spawned: float
    trace_dir: str
    calibration: str

    @property
    def ok(self) -> bool:
        return self.rc == 0 and self.report is not None and not self.report["error"]

    @property
    def setup_s(self) -> float:
        return self.report["ready"] - self.spawned

    @property
    def main_s(self) -> float:
        return self.report["done"] - self.report["ready"]

    @property
    def error(self) -> str:
        if self.report and self.report.get("error"):
            return self.report["error"]
        tail = self.stderr.strip().splitlines()[-1:] or [f"exit code {self.rc}"]
        return tail[0]


def wait_group(pgid: int, timeout: float = 10.0) -> None:
    """Wait until no process is left in group *pgid*; kill stragglers.

    After the SIGKILL it waits one more *timeout* and then returns: what
    is still listed then is a zombie nobody reaps, which runs nothing.
    """
    deadline = time.monotonic() + timeout
    killed = False
    while True:
        try:
            os.killpg(pgid, 0)
        except (ProcessLookupError, PermissionError):
            return
        if time.monotonic() > deadline:
            if killed:
                return
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                return
            killed = True
            deadline = time.monotonic() + timeout
        time.sleep(0.02)


def stop_resource_tracker() -> None:
    """Stop and reap the resource tracker a spawn pool started in this process.

    Left alone it exits only once it sees this process gone, so it would
    outlive the benchmark.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def probe_command(report: str, trace: bool, op: str, args: List[str]) -> List[str]:
    return [sys.executable, PROBE, report, "1" if trace else "0", op, "--", *args]


def run_probe(
    ws: Workspace,
    op: str,
    args: List[str],
    trace: bool = False,
    timeout: float = 150.0,
) -> ProbeRun:
    """Run one command to completion through the probe."""
    report_path = ws.fresh(f"report-{op}") + ".json"
    calibration = ws.fresh("calibration") + ".json"
    env = ws.env(calibration)
    spawned = time.monotonic()
    proc = subprocess.Popen(
        probe_command(report_path, trace, op, args),
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate()
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        wait_group(proc.pid)
    report = None
    if os.path.exists(report_path):
        with open(report_path) as handle:
            report = json.load(handle)
    return ProbeRun(
        proc.returncode, stdout, stderr, report, spawned,
        os.path.join(os.path.dirname(report_path), f"trace-{op}"), calibration,
    )


@dataclass
class Daemon:
    """A ``rtc-compliance serve`` process on an ephemeral port."""

    proc: subprocess.Popen
    spawned: float
    report_path: str
    trace_dir: str
    port: int = 0

    def stop(self, timeout: float = 30.0) -> Optional[dict]:
        """SIGTERM (the daemon drains and exits), then reap the group."""
        if self.proc.poll() is None:
            try:
                self.proc.send_signal(signal.SIGTERM)
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        self.proc.stdout.read()
        self.proc.stdout.close()
        wait_group(self.proc.pid)
        if os.path.exists(self.report_path):
            with open(self.report_path) as handle:
                return json.load(handle)
        return None


def start_daemon(ws: Workspace, op: str, trace: bool = False) -> Daemon:
    """Spawn the daemon on port 0 and read the port it bound.

    The daemon prints its listening line first; its standard error goes
    to a file so neither pipe can fill while it runs.
    """
    report_path = ws.fresh(f"report-{op}") + ".json"
    env = ws.env(ws.fresh("calibration") + ".json")
    with open(ws.fresh("daemon-stderr"), "w") as errors:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            probe_command(report_path, trace, op,
                          ["serve", "--host", "127.0.0.1", "--port", "0"]),
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=errors,
            text=True, start_new_session=True,
        )
    daemon = Daemon(proc, spawned, report_path,
                    os.path.join(os.path.dirname(report_path), f"trace-{op}"))
    line = proc.stdout.readline()
    if "listening on http://" not in line:
        daemon.stop()
        raise RuntimeError(f"daemon did not start: {line!r}")
    daemon.port = int(line.rsplit(":", 1)[1])
    return daemon
