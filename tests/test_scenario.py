import copy
import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from loramesh.channel import LinkModel, PathLossModel
from loramesh.model import EnergyModel, RadioConfig
from loramesh.scenario import (
    MacParams,
    NodeSpec,
    PhaseWindows,
    Scenario,
    ScenarioError,
    Topology,
    TrafficSpec,
    load_scenario,
    scenario_from_dict,
    topology_from_dict,
)
from loramesh.simulation import Simulation


def minimal_dict(**overrides):
    data = {
        "name": "test",
        "topology": {
            "nodes": [
                {"uid": 0, "role": "gateway"},
                {"uid": 1, "role": "repeater"},
                {"uid": 101, "role": "end_device", "attach": 1},
            ],
            "links": [
                {"a": 0, "b": 1, "distance_m": 50.0},
                {"a": 101, "b": 1, "distance_m": 10.0},
            ],
        },
        "traffic": {"total_packets": 5},
    }
    data.update(overrides)
    return data


def test_minimal_scenario_loads_with_defaults():
    scn = scenario_from_dict(minimal_dict())
    assert scn.radio.spreading_factor == 7
    assert scn.radio.bandwidth_hz == 500_000
    assert scn.energy.battery_capacity_mah == 100.0
    assert scn.traffic.mean_interval_s == 2.0
    assert scn.mac.wait_min_s == 0.010
    assert scn.mac.wait_max_s == 0.100
    assert scn.phases.beacon_end_s == 30.0
    assert scn.protocol == "routing"
    assert scn.seed == 1
    assert scn.horizon_s is None
    assert scn.standby_enabled is True


def test_topology_requires_gateway():
    with pytest.raises(ScenarioError, match="no gateway"):
        Topology([NodeSpec(1, "repeater")], LinkModel())


def test_end_device_must_attach_to_repeater():
    with pytest.raises(ScenarioError, match="attach"):
        Topology([NodeSpec(0, "gateway"), NodeSpec(101, "end_device")], LinkModel())
    with pytest.raises(ScenarioError, match="not a repeater"):
        Topology(
            [NodeSpec(0, "gateway"), NodeSpec(101, "end_device", attach=0)],
            LinkModel(),
        )


def test_only_end_devices_attach():
    with pytest.raises(ScenarioError, match="only end devices"):
        Topology(
            [NodeSpec(0, "gateway"), NodeSpec(1, "repeater", attach=0)],
            LinkModel(),
        )


def test_link_to_unknown_node_rejected():
    links = LinkModel()
    links.add_link(0, 9, 10.0)
    with pytest.raises(ScenarioError, match="unknown node"):
        Topology([NodeSpec(0, "gateway")], links)


def test_duplicate_uid_rejected():
    with pytest.raises(ScenarioError, match="duplicate"):
        Topology([NodeSpec(0, "gateway"), NodeSpec(0, "repeater")], LinkModel())


def test_unknown_role_rejected():
    with pytest.raises(ScenarioError, match="unknown role"):
        Topology([NodeSpec(0, "gateway"), NodeSpec(1, "sensor")], LinkModel())


def test_unknown_protocol_rejected():
    with pytest.raises(ScenarioError, match="protocol"):
        scenario_from_dict(minimal_dict(protocol="carrier-pigeon"))


def test_traffic_needs_end_devices():
    data = minimal_dict()
    data["topology"]["nodes"] = data["topology"]["nodes"][:2]
    data["topology"]["links"] = data["topology"]["links"][:1]
    with pytest.raises(ScenarioError, match="no end devices"):
        scenario_from_dict(data)


def test_traffic_spec_validation():
    with pytest.raises(ScenarioError):
        TrafficSpec(payload_bytes=0)
    with pytest.raises(ScenarioError):
        TrafficSpec(payload_bytes=256)
    with pytest.raises(ScenarioError):
        TrafficSpec(total_packets=-1)
    with pytest.raises(ScenarioError):
        TrafficSpec(total_packets=10, mean_interval_s=0.0)


def test_phase_windows_must_increase():
    with pytest.raises(ScenarioError, match="increasing"):
        scenario_from_dict(
            minimal_dict(phases={"beacon_end_s": 120.0, "report_end_s": 30.0})
        )


def test_inverted_mac_window_rejected():
    with pytest.raises(ScenarioError, match="inverted"):
        scenario_from_dict(
            minimal_dict(mac={"wait_min_s": 0.2, "wait_max_s": 0.1})
        )


def test_negative_horizon_rejected():
    with pytest.raises(ScenarioError, match="horizon"):
        scenario_from_dict(minimal_dict(horizon_s=-5.0))


def test_schedule_parses_uid_keys_and_times():
    scn = scenario_from_dict(
        minimal_dict(traffic={"schedule": {"101": [1.0, 2.5]}})
    )
    assert scn.traffic.schedule == {101: (1.0, 2.5)}


def test_topology_file_resolves_relative_to_scenario(tmp_path):
    topo = minimal_dict()["topology"]
    (tmp_path / "topo.json").write_text(json.dumps(topo))
    scenario_path = tmp_path / "scn.json"
    scenario_path.write_text(
        json.dumps({"name": "split", "topology_file": "topo.json"})
    )
    scn = load_scenario(scenario_path)
    assert scn.name == "split"
    assert scn.topology.links.distance(0, 1) == 50.0


def test_load_scenario_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError, match="not valid JSON"):
        load_scenario(path)
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(tmp_path / "missing.json")
    with pytest.raises(ScenarioError, match="bundled"):
        load_scenario("no_such_bundle")


def test_bundled_scenarios_present_and_loadable():
    for name in ("representative", "standby_recovery", "two_ed_battery"):
        scn = load_scenario(name)
        assert scn.name == name
        assert scn.topology.gateways


def test_per_role_capacity_overrides():
    scn = load_scenario("two_ed_battery")
    assert scn.energy.battery_capacity_mah == 12.0
    assert scn.energy.gateway_capacity_mah == 10000.0
    assert scn.energy.ed_capacity_mah == 10000.0


def test_malformed_node_and_link_entries():
    data = minimal_dict()
    data["topology"]["nodes"].append({"role": "repeater"})
    with pytest.raises(ScenarioError, match=r"nodes\[3\]: missing required key 'uid'"):
        scenario_from_dict(data)
    data = minimal_dict()
    data["topology"]["links"].append({"a": 0})
    with pytest.raises(ScenarioError, match=r"links\[2\]: missing required key 'b'"):
        scenario_from_dict(data)


def test_topology_needs_nodes_and_links_keys():
    with pytest.raises(ScenarioError, match="nodes"):
        topology_from_dict({"links": []})
    with pytest.raises(ScenarioError, match="links"):
        topology_from_dict({"nodes": [{"uid": 0, "role": "gateway"}]})


# --- one change to a valid document: a simulation accepts it, or it is refused ---


def _names(cls):
    return [f.name for f in dataclasses.fields(cls)]


# Where a value can go: (path to a JSON object in the document, its key).
# Keys a section does not hold yet are added; a role capacity is one of
# the energy keys, a schedule time the first of end device 101's times.
_SLOTS = (
    [(("radio",), key) for key in _names(RadioConfig)]
    + [(("energy",), key) for key in _names(EnergyModel)]
    + [(("traffic",), key) for key in _names(TrafficSpec)]
    + [(("mac",), key) for key in _names(MacParams)]
    + [(("phases",), key) for key in _names(PhaseWindows)]
    + [(("topology", "path_loss"), key) for key in _names(PathLossModel)]
    + [(("topology",), key) for key in ("sensitivity_dbm", "capture_threshold_db")]
    + [((), key) for key in ("name", "protocol", "seed", "horizon_s", "standby_enabled", "learning_phase")]
    + [((), key) for key in ("radio", "energy", "traffic", "mac", "phases")]
    + [(("topology", "nodes", i), key) for i in range(3) for key in ("uid", "role", "attach", "label")]
    + [(("topology", "links", i), key) for i in range(2) for key in ("a", "b", "distance_m")]
    + [(("traffic", "schedule", "101"), 0)]
)

# Any JSON value: of another type than a key expects, out of its range,
# or not finite (Python's JSON reader accepts NaN and Infinity)
_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
)


def _fuzz_base():
    data = minimal_dict()
    data["traffic"] = {"total_packets": 5, "schedule": {"101": [1.0, 2.0]}}
    for section in ("radio", "energy", "mac", "phases"):
        data[section] = {}
    data["topology"]["path_loss"] = {}
    return data


def _holder(data, path):
    for step in path:
        data = data[step]
    return data


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_one_change_to_a_valid_document_loads_or_raises_scenario_error(draw):
    data = _fuzz_base()
    path, key = draw.draw(st.sampled_from(_SLOTS))
    holder = _holder(data, path)
    if draw.draw(st.booleans()) and isinstance(holder, dict) and key in holder:
        # misspell the key: a letter dropped or one too many
        holder[draw.draw(st.sampled_from([key[:-1], key + "s"]))] = holder.pop(key)
    else:
        holder[key] = draw.draw(_JSON_VALUES)
    snapshot = copy.deepcopy(data)
    try:
        scenario = scenario_from_dict(data)
    except ScenarioError:
        return
    Simulation(scenario)
    assert data == snapshot  # the reader leaves the document as it was
