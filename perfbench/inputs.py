"""Workload inputs, made from a seed, and a stdlib pcap record walk.

Captures are synthesized through the program's public generator API
(``repro.apps`` simulators, ``repro.netem`` impairment, ``write_pcap``),
the same calls ``rtc-compliance synthesize`` makes, in the benchmark's
own process or its helper processes.  Making them counts toward no
metric.  The record walk in :func:`count_records` is written against
the pcap file format, not the program, so its counts are independent
ground truth for the program's ingest count.
"""

from __future__ import annotations

import hashlib
import os
import struct
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from typing import Dict, List, Tuple

APPS = ("zoom", "facetime", "whatsapp", "messenger", "discord", "meet")

#: pcap-audit: two relayed calls per app, each clean and under ``lossy``.
#: A capture's analysis cost depends on its content (the DPI fast path
#: locks early on some calls and late on others), so the median latency
#: needs many distinct calls more than long ones.
AUDIT_NETWORK = "wifi_relay"
AUDIT_DURATION = 30.0
AUDIT_SCALE = 0.5
AUDIT_PROFILES = ("none", "lossy")
AUDIT_CALLS = 2

#: The truncated capture does not depend on ``--seed``: its operation
#: fails today on every run, and must fail the same way on every run.
TRUNCATED_APP = "whatsapp"
TRUNCATED_SEED = 20250
TRUNCATED_DURATION = 10.0

#: live-replay: 30 s relayed calls paced at 80x, each app twice.
LIVE_DURATION = 30.0
LIVE_SCALE = 0.5
LIVE_SPEED = 80.0
LIVE_PASSES = 2


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _record_header(data: bytes, path: str) -> struct.Struct:
    """The record-header layout, from the magic of the global header."""
    magic = data[:4]
    if magic in (b"\xd4\xc3\xb2\xa1", b"\x4d\x3c\xb2\xa1"):
        return struct.Struct("<IIII")
    if magic in (b"\xa1\xb2\xc3\xd4", b"\xa1\xb2\x3c\x4d"):
        return struct.Struct(">IIII")
    raise ValueError(f"{path}: not a classic pcap file")


def count_records(path: str) -> Tuple[int, bool]:
    """Complete records in a classic pcap file, and whether it was cut.

    Reads only the 24-byte global header and each 16-byte record header,
    as tcpdump and Wireshark do; a record whose header or body runs past
    the end of the file is not counted.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    header = _record_header(data, path)
    offset, count = 24, 0
    while offset < len(data):
        if len(data) - offset < 16:
            return count, True
        incl_len = header.unpack_from(data, offset)[2]
        if offset + 16 + incl_len > len(data):
            return count, True
        offset += 16 + incl_len
        count += 1
    return count, False


def _call_config(seed: int, duration: float, scale: float, network: str):
    from repro.apps import CallConfig, NetworkCondition

    return CallConfig(
        network=NetworkCondition(network), seed=seed,
        call_duration=duration, media_scale=scale,
    )


def _write_call(app: str, seed: int, duration: float, scale: float,
                profiles: Tuple[str, ...], stem: str) -> List[Dict]:
    """Simulate one call once and write it out under each profile.

    Impairment is applied exactly as ``AppSimulator.iter_records`` does,
    so each file equals ``rtc-compliance synthesize --impairment P``.
    """
    from repro.apps import get_simulator
    from repro.netem import build_impairer
    from repro.packets.pcap import write_pcap

    simulator = get_simulator(app)
    config = _call_config(seed, duration, scale, AUDIT_NETWORK)
    records = simulator.simulate(config).records
    made = []
    for profile in profiles:
        impairer = build_impairer(
            profile, config.seed,
            f"{simulator.name}/{config.network.value}/{config.call_index}",
        )
        chosen = records if impairer is None else impairer.apply(records)
        path = f"{stem}-{profile}.pcap"
        write_pcap(path, chosen)
        made.append({"app": app, "profile": profile, "seed": seed, "path": path,
                     "name": f"{os.path.basename(stem)}-{profile}",
                     "call": os.path.basename(stem).rsplit("-", 1)[-1]})
    return made


def audit_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def make_audit_inputs(seed: int, directory: str, workers: int = 2) -> List[Dict]:
    """The 24 pcap-audit captures for *seed*, plus the truncated one.

    Returns one dict per capture with its path, sha256, the record
    count of the stdlib walk and, for the truncated capture, the byte
    offset of the cut.
    """
    jobs = [
        (APPS[index % len(APPS)], audit_seed(seed, index), AUDIT_DURATION,
         AUDIT_SCALE, AUDIT_PROFILES,
         os.path.join(directory, f"{APPS[index % len(APPS)]}-{index // len(APPS)}"))
        for index in range(AUDIT_CALLS * len(APPS))
    ]
    jobs.append((TRUNCATED_APP, TRUNCATED_SEED, TRUNCATED_DURATION,
                 AUDIT_SCALE, ("none",), os.path.join(directory, "truncated")))
    with ProcessPoolExecutor(workers, mp_context=get_context("spawn")) as pool:
        futures = [pool.submit(_write_call, *job) for job in jobs]
        made = [item for future in futures for item in future.result()]
    truncated = made.pop()
    for item in made:
        item["records"], cut = count_records(item["path"])
        item["sha256"] = sha256(item["path"])
        if cut:
            raise RuntimeError(f"{item['path']}: written capture is cut short")
    cut_at = truncate_mid_record(truncated["path"])
    truncated["records"], _cut = count_records(truncated["path"])
    truncated.update(profile="truncated", name=f"{TRUNCATED_APP}-truncated",
                     cut_at=cut_at, sha256=sha256(truncated["path"]))
    return made + [truncated]


def truncate_mid_record(path: str) -> int:
    """Cut *path* in the middle of the body of its middle record."""
    complete, _cut = count_records(path)
    with open(path, "rb") as handle:
        data = handle.read()
    header = _record_header(data, path)
    offset = 24
    for _ in range(complete // 2):
        offset += 16 + header.unpack_from(data, offset)[2]
    cut_at = offset + 16 + header.unpack_from(data, offset)[2] // 2
    with open(path, "r+b") as handle:
        handle.truncate(cut_at)
    return cut_at


def live_seed(seed: int, index: int) -> int:
    return seed * 1000 + 500 + index


def _session_truth(app: str, name: str, seed: int) -> Dict:
    from repro.apps import get_simulator
    from repro.service.ingest import DEFAULT_BATCH_SIZE

    config = _call_config(seed, LIVE_DURATION, LIVE_SCALE, "wifi_relay")
    records = list(get_simulator(app).iter_records(config))
    digest = hashlib.sha256()
    for record in records:
        digest.update(struct.pack("<d", record.timestamp))
        digest.update(record.payload)
    last_batch = (len(records) - 1) // DEFAULT_BATCH_SIZE * DEFAULT_BATCH_SIZE
    return {
        "app": app,
        "name": name,
        "seed": seed,
        "records": len(records),
        "rtc_records": sum(1 for r in records if r.truth is not None and r.truth.is_rtc),
        "release": records[last_batch].timestamp - records[0].timestamp,
        "sha256": digest.hexdigest(),
    }


def live_truth(seed: int, workers: int = 2) -> List[Dict]:
    """Record count of each live-replay session, and when its last record
    becomes available, from the generator the daemon itself replays.

    A clock-paced replay releases records in batches of the service's
    default size, each when its first record is due, so the last record
    is available ``release`` capture seconds after the first one.
    """
    jobs = [
        (APPS[index % len(APPS)], f"{APPS[index % len(APPS)]}-{index // len(APPS)}",
         live_seed(seed, index))
        for index in range(LIVE_PASSES * len(APPS))
    ]
    with ProcessPoolExecutor(workers, mp_context=get_context("spawn")) as pool:
        futures = [pool.submit(_session_truth, *job) for job in jobs]
        return [future.result() for future in futures]
