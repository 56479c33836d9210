"""The fast simulator against ``reference.NaiveSimulation`` on whole networks.

Each case runs one network twice: as is, and with every naive path of
``reference`` swapped in at once (the network-wide scan, the
every-charge ledger and the OrderedDict dedup). Both runs must give the
same trace digest, the same sorted-key metrics and the same battery
history at every node. The fixed cases are three bundled networks; the
property test draws small random ones (``networks.small_networks``).
"""

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from loramesh import trace as tr
from loramesh.scenario import load_scenario, scenario_from_dict
from loramesh.simulation import Simulation
from networks import small_networks
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


def assert_same_runs(fast, naive):
    """Run the fast and the naive simulation of one scenario and check that
    they agree; returns the naive run's metrics."""
    got, want = fast.run().metrics, naive.run().metrics
    assert got["trace_sha256"] == want["trace_sha256"]
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    assert batteries(fast) == batteries(naive)
    return want


@pytest.mark.parametrize("case", CASES)
def test_naive_reference_runs_the_same(case):
    scn = scenario(case)
    fast = Simulation(scn)
    naive = NaiveSimulation(scn)
    assert all(
        isinstance(node.ledger, EveryChargeLedger)
        and (isinstance(node.dedup, OrderedDictDedup) if node.is_repeater else node.dedup is None)
        for node in naive.nodes.values()
    )
    want = assert_same_runs(fast, naive)
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


# None keeps the scenario's 100 mAh; the small ones run repeaters dry
# during the learning phase's idle wait or after a few frames
REPEATER_BATTERY_MAH = st.sampled_from([None, 0.01, 0.1])


@settings(max_examples=60, deadline=None)
@given(small_networks(), REPEATER_BATTERY_MAH)
def test_naive_reference_runs_the_same_on_random_networks(data, battery):
    if battery is not None:
        data = {**data, "energy": {"battery_capacity_mah": battery}}
    scn = scenario_from_dict(data)
    assert_same_runs(Simulation(scn), NaiveSimulation(scn))
