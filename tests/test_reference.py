"""The fast simulator against ``reference.NaiveSimulation`` on whole networks.

Each case runs one network twice: as is, and with every naive path of
``reference`` swapped in at once (the network-wide scan, the
every-charge ledger and the OrderedDict dedup). Both runs must give the
same trace digest, the same sorted-key metrics and the same battery
history at every node.
"""

import json
from dataclasses import replace

import pytest

from loramesh import trace as tr
from loramesh.scenario import load_scenario
from loramesh.simulation import Simulation
from reference import EveryChargeLedger, NaiveSimulation, OrderedDictDedup

# name -> (scenario, protocol, learning phase, packets, repeater battery
# in mAh or None for the scenario's own)
CASES = {
    "representative/flooding": ("representative", "flooding", False, 60, None),
    "representative/routing/learning": ("representative", "routing", True, 60, None),
    # a 0.2 mAh repeater battery: every repeater dies within 300 packets,
    # after energy-aware route switches
    "two_ed_battery/routing/drain": ("two_ed_battery", "routing", False, 300, 0.2),
}


def scenario(case):
    name, protocol, learning, packets, battery = CASES[case]
    scn = load_scenario(name)
    energy = scn.energy if battery is None else replace(scn.energy, battery_capacity_mah=battery)
    return replace(
        scn,
        protocol=protocol,
        learning_phase=learning,
        energy=energy,
        traffic=replace(scn.traffic, total_packets=packets),
    )


def batteries(sim):
    return {uid: (led.history, led.death_time) for uid, led in sim.builder.ledgers.items()}


@pytest.mark.parametrize("case", CASES)
def test_naive_reference_runs_the_same(case):
    scn = scenario(case)
    fast = Simulation(scn)
    naive = NaiveSimulation(scn)
    assert all(
        isinstance(node.ledger, EveryChargeLedger) and isinstance(node.dedup, OrderedDictDedup)
        for node in naive.nodes.values()
    )
    got, want = fast.run().metrics, naive.run().metrics
    assert got["trace_sha256"] == want["trace_sha256"]
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    assert batteries(fast) == batteries(naive)
    # each case reaches the paths it is here for
    assert naive.seen["rival"] > 0 and naive.seen["busy"] > 0 and naive.seen[tr.RX_OK] > 0
    if case == "representative/flooding":
        assert want["counts"]["dup_suppressed"] > 0 and naive.seen[tr.RX_COLLIDED] > 0
    elif case == "representative/routing/learning":
        assert fast.graph is not None and want["counts"]["standby_armed"] > 0
    else:
        repeaters = scn.topology.repeaters
        assert all(fast.nodes[uid].ledger.dead for uid in repeaters)
        assert want["counts"]["route_switched"] > 0
