"""Golden digests: the same behaviour, checked the same way every time.

Rebuilds the 18-case matrix (3 bundled scenarios x 3 protocols x
learning phase on/off) and compares each run's trace digest, event
total, the sha256 of its NDJSON rendering, and the sha256 of its
sorted-key metrics JSON and of its ``battery.csv`` to
``tests/data/digests.json``. The rendering's digest is the
``trace_sha256`` that version 1 traces, which were NDJSON, carried, so
it pins the events themselves across the trace format change. Energy
never reaches the trace, so the last two pin billing end to end. Periodic traffic
budgets are capped at ``CAP`` packets so the whole matrix stays fast;
scripted schedules run as written. Six downlink cases (3 bundled
scenarios x flooding/routing) run ``DOWNLINK_PACKETS`` periodic uplinks
after one ``inject_downlink`` per gateway, so the downlink path is
pinned too.
Two drain cases run ``two_ed_battery`` under routing and
routing_no_energy at ``DRAIN_PACKETS``: repeater batteries die (under
routing every one, after eight energy-aware route switches), so the
ledger's level-crossing and death paths are pinned end to end. A
deliberate trace-format or behaviour change regenerates the file with

    PYTHONPATH=src python tests/test_digests.py
"""

import hashlib
import io
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

from loramesh.metrics import write_battery_csv
from loramesh.scenario import load_scenario
from loramesh.simulation import Simulation
from loramesh.trace import TraceWriter, ndjson_line, read_trace

DATA = Path(__file__).parent / "data" / "digests.json"
SCENARIOS = ("representative", "standby_recovery", "two_ed_battery")
PROTOCOLS = ("flooding", "routing", "routing_no_energy")
CAP = 200
DOWNLINK_PACKETS = 50
DRAIN_PACKETS = 10000

CASES = [
    f"{name}/{protocol}/learning-{'on' if learning else 'off'}"
    for name in SCENARIOS
    for protocol in PROTOCOLS
    for learning in (False, True)
] + [f"{name}/{protocol}/downlink" for name in SCENARIOS for protocol in ("flooding", "routing")] + [
    f"two_ed_battery/{protocol}/drain" for protocol in ("routing", "routing_no_energy")
]


def run_case(case: str) -> dict:
    name, protocol, mode = case.split("/")
    scn = load_scenario(name)
    traffic = scn.traffic
    if mode == "downlink":
        traffic = replace(traffic, total_packets=DOWNLINK_PACKETS, schedule={})
    elif mode == "drain":
        traffic = replace(traffic, total_packets=DRAIN_PACKETS)
    elif not traffic.schedule:
        traffic = replace(traffic, total_packets=min(traffic.total_packets, CAP))
    scn = replace(scn, protocol=protocol, learning_phase=mode == "learning-on", traffic=traffic)
    trace = io.StringIO()
    sim = Simulation(scn, trace_writer=TraceWriter(trace))
    if mode == "downlink":
        for gw in sorted(scn.topology.gateways):
            sim.inject_downlink(gw)
    metrics = sim.run().metrics
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "battery.csv"
        write_battery_csv(csv_path, sim.builder)
        battery = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    assert hashlib.sha256(trace.getvalue().encode("ascii")).hexdigest() == metrics["trace_sha256"]
    trace.seek(0)
    ndjson = "".join(map(ndjson_line, read_trace(trace)))
    return {
        "trace_sha256": metrics["trace_sha256"],
        "events": sum(metrics["counts"].values()),
        "ndjson_sha256": hashlib.sha256(ndjson.encode("ascii")).hexdigest(),
        "metrics_sha256": hashlib.sha256(json.dumps(metrics, sort_keys=True).encode()).hexdigest(),
        "battery_sha256": battery,
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text())


def test_golden_file_covers_the_matrix(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_digest_matches_golden(golden, case):
    assert run_case(case) == golden[case]


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps({case: run_case(case) for case in CASES}, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DATA}")
