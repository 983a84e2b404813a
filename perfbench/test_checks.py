"""Each output check accepts a sound summary and rejects a corrupted one.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import json
import os
import struct
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402

PCAP_OUTPUT = """\
Application: whatsapp-none.pcap
Volume compliance: 98.75% (8710/8820 messages)
  stun_turn   80.00% (120/150)
  rtp        100.00% (8500/8500)
  rtcp       100.00% (90/170)
Message-type compliance: 10/19
  [OK ] rtcp       200            x50
  [OK ] rtcp       202            x40
  [OK ] rtp        97             x8500
  [OK ] stun_turn  0x0001         x100
  [BAD] stun_turn  0x0800         x30  e.g. [C3:undefined-attribute] attribute type 0x4000
Datagram classes:
  standard             8800 (99.6%)
  fully_proprietary    35 (0.4%)
Ingest: 9123 frames -> 9123 records in 0.070s (130000 rec/s, fast-path 100.0%, fallback rate 0.0000)
"""

MATRIX_OUTPUT = """\
App        |  STUN/TURN |        RTP |       RTCP |       QUIC |        All
---------------------------------------------------------------------------
facetime   |     0/4    |     0/5    |        N/A |     4/4    |     4/13
discord    |        N/A |     0/4    |     0/5    |        N/A |     0/9
All Apps   |    27/50   |    73/82   |    10/22   |     4/4    |        N/A

Table 4: STUN/TURN message types
================================
facetime:
  compliant:     -
  non-compliant: 0x0001, 0x0017, 0x0101, ChannelData

Table 6: RTCP packet types
==========================
discord:
  compliant:     -
  non-compliant: 200, 201, 204, 205, 206

Figure 4 (by app, volume)
  facetime       0.48%
  discord       85.89% ##################################
Figure 4 (by protocol, volume)
  rtp           80.95% ################################
"""


# --- paper Tables 4-6 ---------------------------------------------------------

def test_paper_types_accept_the_papers_rows():
    for app in inputs.APPS:
        row = checks.paper_row(app)
        types = [(proto, label, flag)
                 for proto, labels in row.items() for label, flag in labels.items()]
        assert checks.check_paper_types(app, types) == []


def test_paper_types_reject_a_flipped_flag():
    assert checks.check_paper_types("whatsapp", [("stun_turn", "0x0001", False)])


def test_one_call_may_show_an_intermittent_fault_type_compliant():
    sound = [("stun_turn", "0x0101", True)]
    assert checks.check_paper_types("facetime", sound)
    assert checks.check_paper_types("facetime", sound, exact=False) == []
    assert checks.check_paper_types("whatsapp", [("stun_turn", "0x0001", False)],
                                    exact=False)


def test_merged_calls_are_non_compliant_if_any_call_is():
    merged = checks.merge_types([("rtp", "100", True), ("quic", "short", True)],
                                [("rtp", "100", False)])
    assert merged == [("quic", "short", True), ("rtp", "100", False)]


def test_paper_types_reject_a_type_outside_the_row():
    assert checks.check_paper_types("meet", [("rtcp", "203", False)])
    assert checks.check_paper_types("discord", [("stun_turn", "0x0001", False)])


def test_zoom_rtp_follows_the_generators_list():
    declared = checks.zoom_declared_rtp()
    assert "98" in declared and "110" in declared
    assert checks.check_paper_types("zoom", [("rtp", "98", True)]) == []
    assert checks.check_paper_types("zoom", [("rtp", "98", False)])
    assert checks.check_paper_types("zoom", [("rtp", "96", True)])


# --- protocol presence --------------------------------------------------------

@pytest.mark.parametrize("app, protocols", [
    ("discord", {"rtp", "rtcp", "stun_turn"}),
    ("facetime", {"rtp", "quic", "rtcp"}),
    ("facetime", {"rtp", "stun_turn"}),
])
def test_presence_rejects(app, protocols):
    assert checks.check_presence(app, protocols)


def test_presence_accepts():
    assert checks.check_presence("discord", {"rtp", "rtcp"}) == []
    assert checks.check_presence("facetime", {"rtp", "stun_turn", "quic"}) == []
    assert checks.check_presence("meet", {"rtp", "rtcp", "stun_turn"}) == []


# --- paper Table 3 ------------------------------------------------------------

def test_table3_cells():
    row = {"stun_turn": (27, 50), "rtp": (73, 82), "rtcp": (10, 22), "quic": (4, 4)}
    facetime = {"stun_turn": (0, 4), "rtp": (0, 5), "quic": (4, 4)}
    table = {"All Apps": row, "facetime": facetime}
    assert checks.check_table3(table) == []
    assert checks.check_table3(dict(table, **{"All Apps": dict(row, stun_turn=(26, 50))}))
    assert checks.check_table3(dict(table, **{"All Apps": dict(row, rtcp=(10, 23))}))
    assert checks.check_table3(dict(table, facetime=dict(facetime, quic=(3, 4))))
    assert checks.check_table3({"All Apps": row})


# --- filter quality -----------------------------------------------------------

def test_filter_kept():
    assert checks.check_filter_kept("whatsapp-0", 4560, 4600) == []
    assert checks.check_filter_kept("whatsapp-0", 4560, 4520) == []
    assert checks.check_filter_kept("whatsapp-0", 4560, 9)


def test_filter_quality():
    assert checks.check_filter_quality("zoom", 0.99, 1.0) == []
    assert checks.check_filter_quality("zoom", 0.96, 1.0)
    assert checks.check_filter_quality("zoom", 0.99, 0.985)
    assert checks.check_filter_quality("zoom", float("nan"), 1.0)


# --- record counts ------------------------------------------------------------

def _pcap(path, bodies, cut=0):
    with open(path, "wb") as handle:
        handle.write(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1))
        for index, body in enumerate(bodies):
            handle.write(struct.pack("<IIII", index, 0, len(body), len(body)))
            handle.write(body)
    if cut:
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - cut)


def test_record_walk_counts_complete_records(tmp_path):
    path = str(tmp_path / "x.pcap")
    _pcap(path, [b"a" * 60, b"b" * 70, b"c" * 80])
    assert inputs.count_records(path) == (3, False)
    _pcap(path, [b"a" * 60, b"b" * 70, b"c" * 80], cut=40)
    assert inputs.count_records(path) == (2, True)
    _pcap(path, [b"a" * 60, b"b" * 70, b"c" * 80], cut=85)
    assert inputs.count_records(path) == (2, True)


def test_truncate_mid_record_cuts_inside_a_body(tmp_path):
    path = str(tmp_path / "x.pcap")
    _pcap(path, [b"a" * 60, b"b" * 70, b"c" * 80, b"d" * 90])
    cut_at = inputs.truncate_mid_record(path)
    assert cut_at == 24 + (16 + 60) + (16 + 70) + 16 + 40
    assert inputs.count_records(path) == (2, True)


def test_record_count_check():
    assert checks.check_record_count("zoom", 9123, 9123) == []
    assert checks.check_record_count("zoom", 9123, 9122)
    assert checks.check_record_count("zoom", 9123, None)


# --- internal consistency -----------------------------------------------------

def test_consistency():
    assert checks.check_consistency("x", 100, 100, [], 90, 90) == []
    assert checks.check_consistency("x", 99, 100, [], 90, 90)
    assert checks.check_consistency("x", 100, 100, [], 91, 90)
    assert checks.check_consistency("x", 100, 100, ["sweeps (1) fewer than"], 90, 90)


# --- paper Figure 4 -----------------------------------------------------------

def test_figure4_facetime_lowest():
    volume = {"zoom": (999, 1000), "facetime": (4, 1000), "discord": (860, 1000)}
    assert checks.check_figure4(volume) == []
    assert checks.check_figure4(dict(volume, discord=(3, 1000)))
    assert checks.check_figure4({"zoom": (1, 2)})


# --- parsed program output, corrupted -----------------------------------------

def test_parsed_pcap_summary_passes_and_corruptions_fail():
    summary = checks.parse_pcap_output(PCAP_OUTPUT)
    assert summary["volume"] == (8710, 8820)
    assert summary["ingest_records"] == 9123
    assert sum(summary["classes"].values()) == 8835
    assert checks.check_summary("whatsapp", summary) == []

    flipped = PCAP_OUTPUT.replace("[OK ] stun_turn  0x0001", "[BAD] stun_turn  0x0001")
    assert checks.check_summary("whatsapp", checks.parse_pcap_output(flipped))
    unknown = PCAP_OUTPUT.replace("stun_turn  0x0800", "stun_turn  0x0806")
    assert checks.check_summary("whatsapp", checks.parse_pcap_output(unknown))
    assert checks.check_summary("discord", summary)
    quic = PCAP_OUTPUT.replace("Application: whatsapp", "Application: facetime")
    assert checks.check_summary("facetime", checks.parse_pcap_output(quic))


def test_parsed_matrix_tables_pass_and_corruptions_fail():
    parsed = checks.parse_matrix_output(MATRIX_OUTPUT)
    assert parsed["table3"]["All Apps"]["stun_turn"] == (27, 50)
    assert "quic" not in parsed["table3"]["discord"]
    assert checks.check_table3(parsed["table3"]) == []
    assert checks.check_paper_types("facetime", parsed["types"]["facetime"]) == []
    assert checks.check_paper_types("discord", parsed["types"]["discord"]) == []
    assert parsed["figure4"] == {"facetime": 0.48, "discord": 85.89}
    assert checks.check_figure4(
        {app: (share, 100.0) for app, share in parsed["figure4"].items()}) == []

    corrupted = checks.parse_matrix_output(
        MATRIX_OUTPUT.replace("10/22", "11/22").replace("204, 205", "203, 205"))
    assert checks.check_table3(corrupted["table3"])
    assert checks.check_paper_types("discord", corrupted["types"]["discord"])


def test_sse_summary_event():
    event = {
        "app": "facetime",
        "volume": {"compliant": 34, "total": 8821},
        "volume_by_protocol": {"rtp": {"compliant": 0, "total": 8702},
                               "quic": {"compliant": 25, "total": 25}},
        "types": [{"protocol": "rtp", "type": "100", "total": 8702, "non_compliant": 8702},
                  {"protocol": "quic", "type": "short", "total": 20, "non_compliant": 0}],
    }
    assert checks.check_summary("facetime", checks.summary_from_event(event)) == []
    event["types"][1]["non_compliant"] = 1
    assert checks.check_summary("facetime", checks.summary_from_event(event))


# --- the benchmark's declared metrics match what it reports --------------------

def test_benchmark_json_matches_the_code():
    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    import run

    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.UNITS.items())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == (
        layers.PER_LAYER)
    import workloads

    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
