"""Golden digests: the same behaviour, checked the same way every time.

Rebuilds the 23-case matrix (the 18 runs of 3 bundled scenarios x 3
protocols x learning phase on/off, plus two periodic cases, two drain
cases and one end-device death case) and compares each run's trace
digest, event total, the sha256 of its NDJSON rendering, and the sha256 of its
sorted-key metrics JSON and of its ``battery.csv`` to
``tests/data/digests.json``. The rendering's digest is the
``trace_sha256`` that version 1 traces, which were NDJSON, carried, so
it pins the events themselves across the trace format change. Energy
never reaches the trace, so the last two pin billing end to end. Periodic traffic
budgets are capped at ``CAP`` packets so the whole matrix stays fast;
scripted schedules run as written. Two periodic cases run
``standby_recovery``, whose bundled traffic is a script, under flooding
and routing with ``PERIODIC_PACKETS`` periodic uplinks instead, so its
periodic traffic is pinned too.
Two drain cases run ``two_ed_battery`` under routing and
routing_no_energy at ``DRAIN_PACKETS``: repeater batteries die (under
routing every one, after eight energy-aware route switches), so the
ledger's level-crossing and death paths are pinned end to end. The
end-device death case runs ``representative`` under routing with
``ED_DEATH_PACKETS`` uplinks and end-device batteries of
``ED_CAPACITY_MAH``: every end device dies mid-run, so the death of a
node that holds no route is pinned too. A
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
from loramesh.trace import TraceWriter, ndjson_line, read_records

DATA = Path(__file__).parent / "data" / "digests.json"
SCENARIOS = ("representative", "standby_recovery", "two_ed_battery")
PROTOCOLS = ("flooding", "routing", "routing_no_energy")
CAP = 200
PERIODIC_PACKETS = 50
DRAIN_PACKETS = 10000
ED_DEATH_PACKETS = 400
ED_CAPACITY_MAH = 0.05

CASES = [
    f"{name}/{protocol}/learning-{'on' if learning else 'off'}"
    for name in SCENARIOS
    for protocol in PROTOCOLS
    for learning in (False, True)
] + [f"standby_recovery/{protocol}/periodic" for protocol in ("flooding", "routing")] + [
    f"two_ed_battery/{protocol}/drain" for protocol in ("routing", "routing_no_energy")
] + ["representative/routing/ed_death"]


def case_scenario(case: str):
    name, protocol, mode = case.split("/")
    scn = load_scenario(name)
    traffic = scn.traffic
    if mode == "periodic":
        traffic = replace(traffic, total_packets=PERIODIC_PACKETS, schedule={})
    elif mode == "drain":
        traffic = replace(traffic, total_packets=DRAIN_PACKETS)
    elif mode == "ed_death":
        traffic = replace(traffic, total_packets=ED_DEATH_PACKETS)
        scn = replace(scn, energy=replace(scn.energy, ed_capacity_mah=ED_CAPACITY_MAH))
    elif not traffic.schedule:
        traffic = replace(traffic, total_packets=min(traffic.total_packets, CAP))
    return replace(scn, protocol=protocol, learning_phase=mode == "learning-on", traffic=traffic)


def run_case(case: str) -> dict:
    scn = case_scenario(case)
    trace = io.StringIO()
    sim = Simulation(scn, trace_writer=TraceWriter(trace))
    metrics = sim.run().metrics
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "battery.csv"
        write_battery_csv(csv_path, sim.builder)
        battery = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    assert hashlib.sha256(trace.getvalue().encode("ascii")).hexdigest() == metrics["trace_sha256"]
    trace.seek(0)
    ndjson = "".join(map(ndjson_line, read_records(trace)))
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


def test_every_end_device_dies_in_the_ed_death_case():
    sim = Simulation(case_scenario("representative/routing/ed_death"))
    sim.run()
    eds = sim.topology.end_devices
    assert eds and all(sim.builder.ledgers[uid].dead for uid in eds)


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps({case: run_case(case) for case in CASES}, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DATA}")
