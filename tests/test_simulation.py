import io
import json
import math
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from loramesh import trace as tr
from loramesh.channel import received_power
from loramesh.engine import RngStreams
from loramesh.model import BEACON, MESH_CHANNEL, Packet, RadioConfig, airtime
from loramesh.planner import PlannerError, plan_from_topology
from loramesh.scenario import load_scenario, scenario_from_dict
from loramesh.simulation import Simulation, run
from reference import RECEPTION_KINDS, ScanChecked

AIR_20B = airtime(RadioConfig(), 20)


def build(nodes, links, schedule, protocol="routing", seed=1, **extra):
    """Small-scenario builder; mac waits pinned for determinism."""
    data = {
        "name": "unit",
        "topology": {
            "nodes": nodes,
            "links": links,
        },
        "traffic": {"schedule": {str(uid): list(ts) for uid, ts in schedule.items()}},
        "mac": {"wait_min_s": 0.05, "wait_max_s": 0.05},
        "protocol": protocol,
        "seed": seed,
    }
    data.update(extra)
    return scenario_from_dict(data)


def decoded(buf):
    """The events a trace writer wrote to an in-memory buffer."""
    buf.seek(0)
    return list(tr.read_trace(buf))


def run_traced(scn):
    """Run with the trace written to memory; returns the metrics and its events."""
    buf = io.StringIO()
    metrics = Simulation(scn, trace_writer=tr.TraceWriter(buf)).run().metrics
    return metrics, decoded(buf)


def events_of(events, kind, pkt=None):
    return [ev for ev in events if ev[1] == kind and (pkt is None or ev[3] == pkt)]


def test_two_hop_latency_hand_computed():
    scn = build(
        [
            {"uid": 0, "role": "gateway"},
            {"uid": 1, "role": "repeater"},
            {"uid": 101, "role": "end_device", "attach": 1},
        ],
        [
            {"a": 0, "b": 1, "distance_m": 100.0},
            {"a": 101, "b": 1, "distance_m": 10.0},
        ],
        {101: [1.0]},
        mac={"wait_min_s": 0.010, "wait_max_s": 0.100},
    )
    m, events = run_traced(scn)
    assert m["generated"] == 1
    assert m["delivered"] == 1
    assert m["pdr"] == 1.0
    # end device sends at once; the repeater waits its drawn backoff,
    # senses a clear channel, and forwards; two frames of airtime total
    wait = RngStreams(scn.seed).uniform(1, "mac", 0.010, 0.100)
    expected_ms = (2 * AIR_20B + wait) * 1000.0
    assert m["latency_ms"]["mean"] == pytest.approx(expected_ms, rel=1e-9)
    assert m["latency_ms"]["median"] == m["latency_ms"]["mean"]
    deliver = events_of(events, tr.DELIVERED)
    assert len(deliver) == 1 and deliver[0][2] == 0


def test_mutually_audible_forwarders_never_collide():
    nodes = [
        {"uid": 0, "role": "gateway"},
        {"uid": 1, "role": "repeater"},
        {"uid": 2, "role": "repeater"},
        {"uid": 101, "role": "end_device", "attach": 1},
        {"uid": 102, "role": "end_device", "attach": 2},
    ]
    links = [
        {"a": 0, "b": 1, "distance_m": 100.0},
        {"a": 0, "b": 2, "distance_m": 100.0},
        {"a": 1, "b": 2, "distance_m": 80.0},
        {"a": 101, "b": 1, "distance_m": 10.0},
        {"a": 102, "b": 2, "distance_m": 10.0},
    ]
    times = [1.0 + 0.2 * k for k in range(20)]
    scn = build(nodes, links, {101: times, 102: times})
    m = run(scn).metrics
    # identical schedules and backoffs, but carrier sense serializes the
    # linked forwarders, so every packet arrives
    assert m["counts"]["rx_collided"] == 0
    assert m["delivered"] == 40
    assert m["pdr"] == 1.0


def hidden_pair(d1, d2, t2=1.005):
    nodes = [
        {"uid": 0, "role": "gateway"},
        {"uid": 1, "role": "repeater"},
        {"uid": 2, "role": "repeater"},
        {"uid": 101, "role": "end_device", "attach": 1},
        {"uid": 102, "role": "end_device", "attach": 2},
    ]
    links = [
        {"a": 0, "b": 1, "distance_m": d1},
        {"a": 0, "b": 2, "distance_m": d2},
        {"a": 101, "b": 1, "distance_m": 10.0},
        {"a": 102, "b": 2, "distance_m": 10.0},
    ]
    return build(nodes, links, {101: [1.0], 102: [t2]})


def test_hidden_forwarders_collide_at_gateway():
    # repeaters 1 and 2 share no link: their staggered forwards overlap
    # at the gateway and neither has the capture margin
    m = run(hidden_pair(100.0, 100.0)).metrics
    assert m["delivered"] == 0
    assert m["counts"]["rx_collided"] == 2
    assert m["losses"]["intermediate"] == 2
    assert m["losses"]["initial_ed"] == 0


def test_capture_rescues_the_stronger_frame():
    # 50 m vs 100 m is a 7.5 dB edge, past the 6 dB capture threshold
    m, events = run_traced(hidden_pair(50.0, 100.0))
    assert m["delivered"] == 1
    assert m["counts"]["rx_collided"] == 1
    ok = events_of(events, tr.RX_OK)
    assert any(ev[2] == 0 and ev[4] == 1 for ev in ok)  # node 1's frame won


def test_subsensitivity_link_never_decodes():
    scn = build(
        [
            {"uid": 0, "role": "gateway"},
            {"uid": 1, "role": "repeater"},
            {"uid": 101, "role": "end_device", "attach": 1},
        ],
        [
            {"a": 0, "b": 1, "distance_m": 5000.0},
            {"a": 101, "b": 1, "distance_m": 10.0},
        ],
        {101: [1.0]},
    )
    m = run(scn).metrics
    assert m["delivered"] == 0
    assert m["counts"]["rx_below_sensitivity"] == 1
    assert m["losses"]["intermediate"] == 1


def test_transmitting_receiver_drops_the_frame():
    scn = build(
        [
            {"uid": 0, "role": "gateway"},
            {"uid": 1, "role": "repeater"},
            {"uid": 101, "role": "end_device", "attach": 1},
        ],
        [
            {"a": 0, "b": 1, "distance_m": 100.0},
            {"a": 101, "b": 1, "distance_m": 10.0},
        ],
        # second uplink lands while the repeater forwards the first
        {101: [1.0, 1.06]},
    )
    m = run(scn).metrics
    # two drops: the repeater misses the second uplink, and the end
    # device (still on air) misses the repeater's forward of the first
    assert m["counts"]["dropped_busy_tx"] == 2
    assert m["delivered"] == 1
    assert m["losses"]["initial_ed"] == 1


def test_queue_overflow_drops_oldest():
    scn = build(
        [
            {"uid": 0, "role": "gateway"},
            {"uid": 1, "role": "repeater"},
            {"uid": 101, "role": "end_device", "attach": 1},
        ],
        [
            {"a": 0, "b": 1, "distance_m": 100.0},
            {"a": 101, "b": 1, "distance_m": 10.0},
        ],
        {101: [1.0, 1.02]},
        mac={"wait_min_s": 0.05, "wait_max_s": 0.05, "queue_capacity": 1},
    )
    m, events = run_traced(scn)
    assert m["counts"]["queue_dropped"] == 1
    dropped = events_of(events, tr.QUEUE_DROPPED)
    generated = events_of(events, tr.GENERATED)
    assert dropped[0][3] == generated[0][3]  # the older packet went
    assert m["delivered"] == 1


def test_end_device_queue_overflow_is_recorded():
    scn = build(
        [
            {"uid": 0, "role": "gateway"},
            {"uid": 1, "role": "repeater"},
            {"uid": 101, "role": "end_device", "attach": 1},
        ],
        [
            {"a": 0, "b": 1, "distance_m": 100.0},
            {"a": 101, "b": 1, "distance_m": 10.0},
        ],
        # the first packet goes on air at once; the next three queue behind it
        {101: [1.0, 1.001, 1.002, 1.003]},
        mac={"wait_min_s": 0.05, "wait_max_s": 0.05, "queue_capacity": 1},
    )
    m, events = run_traced(scn)
    assert m["generated"] == 4
    assert m["delivered"] == 1
    assert m["losses"]["initial_ed"] == 2
    generated = [ev[3] for ev in events_of(events, tr.GENERATED)]
    at_device = [ev for ev in events_of(events, tr.QUEUE_DROPPED) if ev[2] == 101]
    # each newcomer pushes out the one queued before it
    assert [ev[3] for ev in at_device] == generated[1:3]
    assert [ev[0] for ev in at_device] == [1.002, 1.003]
    # the repeater drops one more when the last uplink arrives
    assert m["counts"]["queue_dropped"] == 3


def test_flooding_rebroadcasts_once_per_node():
    nodes = [
        {"uid": 0, "role": "gateway"},
        {"uid": 1, "role": "repeater"},
        {"uid": 2, "role": "repeater"},
        {"uid": 3, "role": "repeater"},
        {"uid": 101, "role": "end_device", "attach": 1},
    ]
    links = [
        {"a": a, "b": b, "distance_m": 90.0}
        for a in (0, 1, 2, 3)
        for b in (0, 1, 2, 3)
        if a < b
    ] + [{"a": 101, "b": 1, "distance_m": 10.0}]
    scn = build(nodes, links, {101: [1.0]}, protocol="flooding")
    m, events = run_traced(scn)
    assert m["delivered"] == 1
    mesh_tx = {}
    for ev in events_of(events, tr.TX_START):
        if ev[6] == 0:
            mesh_tx[ev[2]] = mesh_tx.get(ev[2], 0) + 1
    assert mesh_tx == {1: 1, 2: 1, 3: 1}  # gateway never rebroadcasts up
    assert m["counts"]["dup_suppressed"] >= 2


def test_standby_recovery_scripted_scenario():
    scn = load_scenario("standby_recovery")
    m, events = run_traced(scn)
    assert m["generated"] == 2
    assert m["delivered"] == 2
    assert m["counts"]["standby_fired"] == 1
    fired = events_of(events, tr.STANDBY_FIRED)
    assert fired[0][2] == 3  # the bystander repeater picked the hop up

    from dataclasses import replace

    without = run(replace(scn, standby_enabled=False)).metrics
    assert without["generated"] == 2
    assert without["delivered"] == 1
    assert without["losses"]["intermediate"] == 1
    assert without["counts"]["standby_fired"] == 0


def test_standby_cancelled_on_normal_forward():
    # diamond: observer 3 sits between 2 and the gateway path, hears the
    # 2 -> 1 hop, then hears 1 forward it on time and stands down
    nodes = [
        {"uid": 0, "role": "gateway"},
        {"uid": 1, "role": "repeater"},
        {"uid": 2, "role": "repeater"},
        {"uid": 3, "role": "repeater"},
        {"uid": 101, "role": "end_device", "attach": 2},
    ]
    links = [
        {"a": 0, "b": 1, "distance_m": 100.0},
        {"a": 1, "b": 2, "distance_m": 80.0},
        {"a": 1, "b": 3, "distance_m": 60.0},
        {"a": 2, "b": 3, "distance_m": 50.0},
        {"a": 101, "b": 2, "distance_m": 10.0},
    ]
    scn = build(nodes, links, {101: [1.0]})
    m, events = run_traced(scn)
    armed = events_of(events, tr.STANDBY_ARMED)
    cancelled = events_of(events, tr.STANDBY_CANCELLED)
    assert [ev[2] for ev in armed] == [3]
    assert [ev[2] for ev in cancelled] == [3]
    assert events_of(events, tr.STANDBY_FIRED) == []
    assert m["delivered"] == 1


def test_learning_phase_converges_to_ideal_plan():
    nodes = [
        {"uid": 0, "role": "gateway"},
        {"uid": 1, "role": "repeater"},
        {"uid": 2, "role": "repeater"},
        {"uid": 101, "role": "end_device", "attach": 2},
    ]
    links = [
        {"a": 0, "b": 1, "distance_m": 100.0},
        {"a": 1, "b": 2, "distance_m": 80.0},
        {"a": 101, "b": 2, "distance_m": 10.0},
    ]
    scn = build(
        nodes,
        links,
        {101: [185.0]},
        learning_phase=True,
        horizon_s=200.0,
    )
    sim = Simulation(scn)
    res = sim.run()
    assert installed_rows_are_the_oracles(sim) == [1, 2]
    ideal = plan_from_topology(scn.topology, sim.heard)
    assert sim.nodes[0].route.downstream_current == ideal.downstream[0]
    # data sent after switchover rides the learned routes to the gateway
    assert res.metrics["delivered"] == 1


def installed_rows_are_the_oracles(sim):
    """Check that every repeater that installed a row holds the oracle
    plan's full row; returns those repeaters in uid order."""
    ideal = plan_from_topology(sim.topology, sim.heard).rows
    installed = [uid for uid in sorted(sim.topology.repeaters) if sim.nodes[uid].route.installed]
    for uid in installed:
        r = sim.nodes[uid].route
        row = (r.distance_value, r.upstream_original, r.downstream_current, r.neighbor_values)
        assert row == ideal[uid], uid
    return installed


def learning_only(name):
    """Bundled scenario ``name`` cut to its learning phase, as ``learn`` runs it."""
    scn = load_scenario(name)
    return replace(
        scn,
        learning_phase=True,
        traffic=replace(scn.traffic, total_packets=0, schedule={}),
        horizon_s=scn.phases.dissemination_end_s,
    )


@pytest.mark.parametrize("name", ["representative", "standby_recovery", "two_ed_battery"])
def test_every_repeater_learns_the_oracles_row(name):
    sim = Simulation(learning_only(name))
    sim.run()
    assert installed_rows_are_the_oracles(sim) == sorted(sim.topology.repeaters)


def deep_chain(**extra):
    """Gateway 0 and repeaters 1-5 on audible 3 500 m links, so node 5's
    17 500 m path is longer than the wire's distance field; five packets
    from end device 105 at node 5."""
    nodes = [{"uid": 0, "role": "gateway"}]
    nodes += [{"uid": uid, "role": "repeater"} for uid in range(1, 6)]
    nodes += [{"uid": 105, "role": "end_device", "attach": 5}]
    links = [{"a": uid, "b": uid + 1, "distance_m": 3500.0} for uid in range(5)]
    links += [{"a": 105, "b": 5, "distance_m": 10.0}]
    return build(nodes, links, {}, traffic={"total_packets": 5}, **extra)


def test_a_plan_beyond_the_distance_field_is_a_configuration_error():
    with pytest.raises(PlannerError, match=r"^node 5's path to its nearest gateway is 17500\.0 m"):
        run(deep_chain())


def test_a_learned_plan_beyond_the_distance_field_leaves_the_mesh_flooding():
    sim = Simulation(deep_chain(learning_phase=True))
    metrics = sim.run().metrics
    assert sim.graph is None
    assert str(sim.plan_error).startswith("node 5's path to its nearest gateway is 17500.0 m")
    assert not any(sim.nodes[uid].route.installed for uid in range(1, 6))
    assert (metrics["generated"], metrics["delivered"]) == (5, 5)


@pytest.mark.parametrize("name", ["representative", "standby_recovery", "two_ed_battery"])
def test_learning_control_floods_sent_at_most_once_per_node(name):
    buf = io.StringIO()
    sim = Simulation(learning_only(name), trace_writer=tr.TraceWriter(buf))
    sim.run()
    sends = Counter((ev[2], ev[3]) for ev in events_of(decoded(buf), tr.TX_START))
    # beacons, reports and table chunks: each node sends each flood once
    assert sends and max(sends.values()) == 1
    assert sim.graph is not None


def test_a_node_dead_before_the_learning_phase_originates_nothing():
    buf = io.StringIO()
    sim = Simulation(learning_only("representative"), trace_writer=tr.TraceWriter(buf))
    # gateway 18 would send beacons and chunks, repeater 9 its reports
    sim.nodes[18].ledger.dead = True
    sim.nodes[9].ledger.dead = True
    sim.run()
    # a packet id taken by a dead node would never go on air
    on_air = {ev[3] for ev in events_of(decoded(buf), tr.TX_START)}
    assert on_air and on_air == set(range(sim._next_pid))


def test_downlink_coverage_reaches_leaf_repeaters():
    nodes = [
        {"uid": 0, "role": "gateway"},
        {"uid": 1, "role": "repeater"},
        {"uid": 2, "role": "repeater"},
    ]
    links = [
        {"a": 0, "b": 1, "distance_m": 100.0},
        {"a": 1, "b": 2, "distance_m": 80.0},
    ]
    scn = scenario_from_dict(
        {
            "name": "downlink",
            "topology": {"nodes": nodes, "links": links},
            "mac": {"wait_min_s": 0.05, "wait_max_s": 0.05},
            "protocol": "routing",
        }
    )
    buf = io.StringIO()
    sim = Simulation(scn, trace_writer=tr.TraceWriter(buf))
    pid = sim.inject_downlink(0)
    sim.run()
    events = decoded(buf)
    heard = {ev[2] for ev in events_of(events, tr.RX_OK, pkt=pid)}
    # node 1 is the only selected forwarder and has nothing below it in
    # its own set, yet must still rebroadcast so the leaf hears the payload
    assert {1, 2} <= heard
    tx_nodes = [ev[2] for ev in events_of(events, tr.TX_START, pkt=pid)]
    assert tx_nodes.count(1) == 1
    assert tx_nodes.count(2) == 0  # the leaf holds no forwarding duty


def test_downlink_standby_fires_along_the_observers_own_set():
    # gateway 0 sends down 0 -> 1 -> 2 -> 4; observer 3 belongs to
    # gateway 10's tree (10 -> 3 -> 5 -> 6), hears 1 hand the packet to
    # 2 and, with 2 dead, takes the hop over along its own set (5,)
    nodes = [{"uid": uid, "role": "gateway"} for uid in (0, 10)] + [
        {"uid": uid, "role": "repeater"} for uid in (1, 2, 3, 4, 5, 6)
    ]
    pairs = [
        *[(0, 1, 100.0), (1, 2, 80.0), (2, 4, 80.0)],
        *[(10, 3, 110.0), (3, 5, 80.0), (5, 6, 80.0)],
        *[(1, 3, 90.0), (2, 3, 90.0)],
    ]
    links = [{"a": a, "b": b, "distance_m": d} for a, b, d in pairs]
    scn = scenario_from_dict(
        {
            "name": "downlink-standby",
            "topology": {"nodes": nodes, "links": links},
            "mac": {"wait_min_s": 0.05, "wait_max_s": 0.05},
            "protocol": "routing",
        }
    )
    buf = io.StringIO()
    sim = Simulation(scn, trace_writer=tr.TraceWriter(buf))
    sim.nodes[2].ledger.dead = True
    sent = []
    enqueue = sim._enqueue

    def recording(node, packet):
        sent.append((node.uid, packet.packet_id, packet.next_hop))
        enqueue(node, packet)

    sim._enqueue = recording
    pid = sim.inject_downlink(0)
    sim.run()
    events = decoded(buf)
    assert sim.nodes[1].route.downstream_current == (2,)
    assert sim.nodes[3].route.downstream_current == (5,)
    assert [ev[2] for ev in events_of(events, tr.STANDBY_ARMED, pkt=pid)] == [3]
    fired = events_of(events, tr.STANDBY_FIRED, pkt=pid)
    assert [(ev[2], ev[4]) for ev in fired] == [(3, 1)]
    assert (3, pid, (5,)) in sent
    # 5 forwards because the takeover named it, and the leaf 6 hears it
    assert [ev[2] for ev in events_of(events, tr.TX_START, pkt=pid)] == [0, 1, 3, 5]
    assert 6 in {ev[2] for ev in events_of(events, tr.RX_OK, pkt=pid)}


@pytest.mark.parametrize("uid, role", [(101, "end_device"), (1, "repeater")])
def test_downlink_enters_only_at_a_gateway(uid, role):
    # an end device would otherwise send a mesh-channel frame
    sim = Simulation(load_scenario("representative"))
    with pytest.raises(ValueError, match=rf"^node {uid} \({role}\) is not a gateway"):
        sim.inject_downlink(uid)
    assert not sim.queue


def test_node_death_silences_it_and_sets_lifetime():
    scn = build(
        [
            {"uid": 0, "role": "gateway"},
            {"uid": 1, "role": "repeater"},
            {"uid": 101, "role": "end_device", "attach": 1},
        ],
        [
            {"a": 0, "b": 1, "distance_m": 100.0},
            {"a": 101, "b": 1, "distance_m": 10.0},
        ],
        {101: [1.0, 3.0, 5.0]},
        energy={
            "battery_capacity_mah": 0.003,
            "gateway_capacity_mah": 10000.0,
            "ed_capacity_mah": 10000.0,
        },
        horizon_s=10.0,
    )
    m, events = run_traced(scn)
    assert m["network_lifetime_s"] is not None
    assert m["battery_level"]["1"] == 0
    death = m["network_lifetime_s"]
    late = [
        ev
        for ev in events
        if ev[2] == 1 and ev[0] > death + 1e-9 and ev[1] == tr.TX_START
    ]
    assert late == []
    assert m["delivered"] < m["generated"]


def test_route_switching_requires_energy_awareness():
    from dataclasses import replace

    base = load_scenario("two_ed_battery")
    # the first decade announcement that can trigger a takeover lands
    # around t=1000 s, so leave budget for a little over that
    short = replace(
        base,
        traffic=replace(base.traffic, total_packets=1200),
        horizon_s=2400.0,
    )
    with_energy = run(short).metrics
    without = run(replace(short, protocol="routing_no_energy")).metrics
    assert with_energy["counts"]["route_switched"] > 0
    assert without["counts"]["route_switched"] == 0


def test_identical_runs_are_identical():
    scn = load_scenario("standby_recovery")
    a = run(scn)
    b = run(scn)
    assert a.metrics["trace_sha256"] == b.metrics["trace_sha256"]
    assert json.dumps(a.metrics, sort_keys=True) == json.dumps(b.metrics, sort_keys=True)
    c = run(replace(scn, seed=99))
    assert c.metrics["trace_sha256"] != a.metrics["trace_sha256"]


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=1, max_value=2**31 - 1),
    st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=2, max_size=2).map(sorted),
)
@example(1, 1, [0.05, 0.05])
@example(7, 3, [0.0, 0.1])
def test_mac_waits_are_the_mac_streams_uniform_draws(seed, uid, waits):
    # a mesh node draws its waits from its bound "mac" stream as
    # wait_min + span * random(); each must equal uniform() bit for bit
    lo, hi = waits
    sim = Simulation(
        build(
            [{"uid": 0, "role": "gateway"}, {"uid": uid, "role": "repeater"}],
            [{"a": 0, "b": uid, "distance_m": 100.0}],
            {},
            seed=seed,
            mac={"wait_min_s": lo, "wait_max_s": hi},
        )
    )
    node = sim.nodes[uid]
    for _ in range(1000):
        sim._send_next(node)
    # the clock stands at 0.0, so each sense time is the wait itself
    drawn = [when.hex() for when, _seq, _fn, _args in sorted(sim.queue.heap, key=lambda e: e[1])]
    ref = RngStreams(seed)
    assert drawn == [ref.uniform(uid, "mac", lo, hi).hex() for _ in range(1000)]


def test_one_shot_instance_hooks_on_pop_and_run():
    # A caller may time the first event dispatch by overriding the queue's
    # ``pop`` on the instance with a hook that deletes itself, and wrap
    # ``run`` the same way; the run loop must look ``pop`` up per event.
    scn = load_scenario("representative")
    scn = replace(scn, protocol="routing", traffic=replace(scn.traffic, total_packets=20))
    plain = Simulation(scn).run().metrics["trace_sha256"]

    sim = Simulation(scn)
    queue = sim.queue
    hooked = []

    def first_pop():
        hooked.append("pop")
        del queue.pop
        return queue.pop()

    run_method = sim.run

    def run_once():
        hooked.append("run")
        del sim.run
        return run_method()

    queue.pop = first_pop
    sim.run = run_once
    assert sim.run().metrics["trace_sha256"] == plain
    assert hooked == ["run", "pop"]
    assert "pop" not in vars(queue) and "run" not in vars(sim)


# ----------------------------------------------------------------------
# the two-frame interference rule against a network-wide scan
# (``reference.ScanChecked``)

DISTANCES = st.sampled_from([8.0, 30.0, 60.0, 120.0, 400.0, 1500.0, 3500.0, 6000.0])


# the default learning phase hands over to the learned routes here
SWITCHOVER_S = 180.0


@st.composite
def small_networks(draw):
    """A gateway, one to four repeaters and one to three end devices, with
    random links (some below sensitivity), shadowing on or off, the
    learning phase's control floods on or off, and bursts of scripted
    uplinks close enough to collide (after switchover when learning)."""
    repeaters = list(range(1, draw(st.integers(min_value=1, max_value=4)) + 1))
    devices = list(range(101, 101 + draw(st.integers(min_value=1, max_value=3))))
    nodes = [{"uid": 0, "role": "gateway"}] + [{"uid": r, "role": "repeater"} for r in repeaters]
    links = {}
    for a in [0] + repeaters:
        for b in repeaters:
            if a < b and draw(st.booleans()):
                links[a, b] = draw(DISTANCES)
    schedule = {}
    for ed in devices:
        attach = draw(st.sampled_from(repeaters))
        nodes.append({"uid": ed, "role": "end_device", "attach": attach})
        links[min(ed, attach), max(ed, attach)] = draw(DISTANCES)
        # end devices and other nodes may overhear each other
        for other in draw(st.sets(st.sampled_from([0] + repeaters + devices), max_size=2)):
            if other != ed:
                links.setdefault((min(ed, other), max(ed, other)), draw(DISTANCES))
        schedule[ed] = sorted(
            draw(
                st.lists(
                    st.sampled_from([1.0, 1.005, 1.02, 1.05, 1.1, 1.3]), min_size=1, max_size=4
                )
            )
        )
    sigma = draw(st.sampled_from([0.0, 6.0]))
    learning = draw(st.booleans())
    if learning:
        schedule = {ed: [SWITCHOVER_S + t for t in ts] for ed, ts in schedule.items()}
    topology = {
        "nodes": nodes,
        "links": [{"a": a, "b": b, "distance_m": d} for (a, b), d in sorted(links.items())],
        "path_loss": {"shadowing_sigma_db": sigma},
    }
    return {
        "name": "hearing",
        "topology": topology,
        "traffic": {
            "schedule": {str(ed): ts for ed, ts in schedule.items()},
            "payload_bytes": draw(st.sampled_from([10, 20, 200])),
        },
        "mac": {"wait_min_s": 0.0, "wait_max_s": draw(st.sampled_from([0.005, 0.05]))},
        "protocol": draw(st.sampled_from(["flooding", "routing", "routing_no_energy"])),
        "learning_phase": learning,
        "seed": draw(st.integers(min_value=0, max_value=50)),
    }


HIDDEN_PAIR = {
    "name": "hidden",
    "topology": {
        "nodes": [
            {"uid": 0, "role": "gateway"},
            {"uid": 1, "role": "repeater"},
            {"uid": 2, "role": "repeater"},
            {"uid": 101, "role": "end_device", "attach": 1},
            {"uid": 102, "role": "end_device", "attach": 2},
        ],
        "links": [
            {"a": 0, "b": 1, "distance_m": 100.0},
            {"a": 0, "b": 2, "distance_m": 100.0},
            {"a": 101, "b": 1, "distance_m": 10.0},
            {"a": 102, "b": 2, "distance_m": 10.0},
        ],
    },
    "traffic": {"schedule": {"101": [1.0], "102": [1.005]}},
    "mac": {"wait_min_s": 0.05, "wait_max_s": 0.05},
    "protocol": "routing",
    "seed": 1,
}


# the hidden pair with its uplinks after the learning phase's floods
LEARNED_HIDDEN_PAIR = {
    **HIDDEN_PAIR,
    "traffic": {"schedule": {"101": [SWITCHOVER_S + 1.0], "102": [SWITCHOVER_S + 1.005]}},
    "learning_phase": True,
}


@settings(max_examples=60, deadline=None)
@given(small_networks())
@example(HIDDEN_PAIR)
@example(LEARNED_HIDDEN_PAIR)
def test_reception_and_sense_match_the_network_wide_scan(data):
    sim = ScanChecked(scenario_from_dict(data))
    m = sim.run().metrics
    assert sim.seen[tr.RX_OK] + sim.seen[tr.RX_COLLIDED] == (
        m["counts"]["rx_ok"] + m["counts"]["rx_collided"]
    )
    if data in (HIDDEN_PAIR, LEARNED_HIDDEN_PAIR):
        # frames that no rival overlaps, and the two forwards that collide
        assert sim.seen["clear"] > 0 and sim.seen["rival"] > 0
        assert sim.seen[tr.RX_COLLIDED] >= 2 and sim.seen["idle"] > 0
    if data == HIDDEN_PAIR:
        assert sim.seen[tr.RX_COLLIDED] == 2


def hears(sim):
    """The (sender, receiver) pairs the run's hearer rows call audible."""
    return {(tx, node.uid) for tx, row in sim.linked.items() for node, p in row if p is not None}


@settings(max_examples=60, deadline=None)
@given(small_networks(), st.sampled_from(["routing", "routing_no_energy"]))
def test_oracle_plan_uses_only_links_the_run_hears(data, protocol):
    sim = Simulation(scenario_from_dict({**data, "protocol": protocol, "learning_phase": False}))
    sim.run()
    audible = hears(sim)
    for uid, upstream in sim.graph.upstream.items():
        assert upstream is None or (uid, upstream) in audible
    for uid, members in sim.graph.downstream.items():
        assert all((uid, member) in audible for member in members)


SHADOWED_TRIANGLE = {
    "name": "shadowed",
    "topology": {
        "nodes": [
            {"uid": 0, "role": "gateway"},
            {"uid": 1, "role": "repeater"},
            {"uid": 2, "role": "repeater"},
            {"uid": 101, "role": "end_device", "attach": 1},
        ],
        "links": [
            {"a": 0, "b": 1, "distance_m": 3000.0},
            {"a": 0, "b": 2, "distance_m": 1500.0},
            {"a": 1, "b": 2, "distance_m": 1600.0},
            {"a": 1, "b": 101, "distance_m": 10.0},
        ],
        "path_loss": {"shadowing_sigma_db": 6.0},
    },
    "traffic": {"total_packets": 20},
    "protocol": "routing",
}


@pytest.mark.parametrize("seed", [9, 10])
def test_oracle_plan_routes_around_a_shadowed_link(seed):
    # the 0-1 link is audible without shadowing (-112.9 dBm), but these
    # seeds draw it below sensitivity, so 1 must reach the gateway via 2
    sim = Simulation(scenario_from_dict({**SHADOWED_TRIANGLE, "seed": seed}))
    metrics = sim.run().metrics
    assert (0, 1) not in hears(sim)
    assert sim.graph.upstream[1] == 2
    assert metrics["pdr"] == 1.0


@pytest.mark.parametrize("seed", [1, 6, 9, 10])
def test_shadowed_hearing_is_the_simulators_map(seed):
    scn = scenario_from_dict(SHADOWED_TRIANGLE)
    links = scn.topology.links
    tx = scn.radio.tx_power_dbm
    rng = RngStreams(seed)
    expected = []
    for a, b, d in links.link_items():
        shadow = rng.stream(a, f"shadow-{b}").gauss(0.0, 6.0)
        prx = received_power(tx, links.path_loss_model, d, shadow)
        expected.append((a, b, prx if prx >= links.sensitivity_dbm else None))
    heard = links.hearing(tx, seed)
    assert heard == expected
    sim = Simulation(replace(scn, seed=seed))
    rows = {
        (min(tx_uid, node.uid), max(tx_uid, node.uid)): p
        for tx_uid, row in sim.linked.items()
        for node, p in row
    }
    assert rows == {(a, b): p for a, b, p in heard}


@pytest.mark.parametrize("sensitivity, rival_heard", [(-116.0, False), (-120.0, True)])
def test_a_sub_sensitivity_rival_is_not_interference(sensitivity, rival_heard):
    # at the gateway, 1 arrives at -112.0 dBm and 4 at -117.1 dBm: 5.1 dB
    # is below the capture margin, so 4 collides 1's frame only when 4 is
    # audible
    topology = {
        "nodes": [
            {"uid": 0, "role": "gateway"},
            {"uid": 1, "role": "repeater"},
            {"uid": 4, "role": "repeater"},
        ],
        "links": [
            {"a": 0, "b": 1, "distance_m": 2750.0},
            {"a": 0, "b": 4, "distance_m": 4400.0},
        ],
        "sensitivity_dbm": sensitivity,
    }
    sim = ScanChecked(
        scenario_from_dict({"name": "faint", "topology": topology, "protocol": "flooding"})
    )
    begin_at(sim, 1, 2.0, 0)
    begin_at(sim, 4, 2.001, 1)
    if rival_heard:
        assert outcomes_at_gateway(sim) == {0: tr.RX_COLLIDED, 1: tr.RX_COLLIDED}
    else:
        assert outcomes_at_gateway(sim) == {0: tr.RX_OK, 1: tr.RX_BELOW_SENS}


def hidden_star():
    """Repeaters 1, 3 and 4 all reach gateway 0 but not each other; at the
    gateway 1 is 15 dB louder than 3, and 3 is 17 dB louder than 4. The
    gateway records beacons and sends nothing."""
    scn = build(
        [
            {"uid": 0, "role": "gateway"},
            {"uid": 1, "role": "repeater"},
            {"uid": 3, "role": "repeater"},
            {"uid": 4, "role": "repeater"},
        ],
        [
            {"a": 0, "b": 1, "distance_m": 50.0},
            {"a": 0, "b": 3, "distance_m": 200.0},
            {"a": 0, "b": 4, "distance_m": 1000.0},
        ],
        {},
        protocol="flooding",
    )
    return ScanChecked(scn)


def begin_at(sim, uid, when, pid, payload_bytes=20):
    """Put a beacon from ``uid`` on air at ``when``; returns its (t0, t1)."""
    sim.queue.now = when
    packet = Packet(pid, BEACON, uid, None, payload_bytes)
    sim._begin_tx(sim.nodes[uid], packet, MESH_CHANNEL)
    trans = sim.nodes[uid].last
    return trans.t0, trans.t1


def end_next(sim):
    fn, args = sim.queue.pop()
    assert fn == sim._ev_tx_end
    fn(*args)


def outcomes_at_gateway(sim, uid=0):
    """The gateway's (or ``uid``'s) outcome for each frame; ends every frame
    still on air."""
    while sim.queue:
        end_next(sim)
    return {
        ev[tr.PKT]: ev[tr.KIND]
        for ev in sim.trace.batch
        if ev[tr.NODE] == uid and ev[tr.KIND] in RECEPTION_KINDS
    }


def test_sense_is_busy_from_a_frames_start_until_its_end():
    sim = hidden_star()
    t0, t1 = begin_at(sim, 1, 2.0, 0)
    gateway = sim.nodes[0]
    for now, busy in ((t0, True), (math.nextafter(t1, 0.0), True), (t1, False)):
        sim.queue.now = now
        assert sim._mesh_busy(gateway) is busy
    # neither the sender nor a node out of its reach hears it
    sim.queue.now = t0
    assert not sim._mesh_busy(sim.nodes[1])
    assert not sim._mesh_busy(sim.nodes[3])


def test_a_rival_that_ends_at_a_frames_start_does_not_count():
    sim = hidden_star()
    _t0, t1 = begin_at(sim, 1, 2.0, 0)
    begin_at(sim, 3, t1, 1)
    assert outcomes_at_gateway(sim) == {0: tr.RX_OK, 1: tr.RX_OK}
    # one step earlier the louder frame overlaps the quieter one
    sim = hidden_star()
    _t0, t1 = begin_at(sim, 1, 2.0, 0)
    begin_at(sim, 3, math.nextafter(t1, 0.0), 1)
    assert outcomes_at_gateway(sim) == {0: tr.RX_OK, 1: tr.RX_COLLIDED}


def test_a_rival_that_ended_still_counts_against_a_longer_frame():
    # the louder short frame 0 ends inside the long frame 1, and the faint
    # frame 2 begins before frame 1 ends: frame 0 must still count at
    # frame 1's end
    sim = hidden_star()
    _t0, t1 = begin_at(sim, 1, 2.0, 0)
    begin_at(sim, 3, 2.001, 1, payload_bytes=200)
    end_next(sim)
    assert sim.queue.now == t1
    begin_at(sim, 4, t1 + 0.015, 2)
    assert outcomes_at_gateway(sim) == {0: tr.RX_OK, 1: tr.RX_COLLIDED, 2: tr.RX_COLLIDED}


def test_a_rival_frame_before_one_begun_at_the_end_still_counts():
    # 2's short frame overlaps 1's long frame, and 2 begins its next frame
    # at the long frame's end instant, before that end is arbitrated: the
    # overlapping frame is then 2's frame before its last
    sim = ScanChecked(hidden_pair(100.0, 100.0))
    _t0, t1 = begin_at(sim, 1, 2.0, 0, payload_bytes=200)
    begin_at(sim, 2, 2.001, 1)
    end_next(sim)
    begin_at(sim, 2, t1, 2)
    assert outcomes_at_gateway(sim) == {0: tr.RX_COLLIDED, 1: tr.RX_COLLIDED, 2: tr.RX_OK}


def test_an_own_frame_before_one_begun_at_the_end_still_drops():
    # the same timing with the receiver's own frames: repeater 1 sends
    # while the gateway's long frame is on air
    sim = ScanChecked(
        build(
            [{"uid": 0, "role": "gateway"}, {"uid": 1, "role": "repeater"}],
            [{"a": 0, "b": 1, "distance_m": 100.0}],
            {},
            protocol="flooding",
        )
    )
    _t0, t1 = begin_at(sim, 0, 2.0, 0, payload_bytes=200)
    begin_at(sim, 1, 2.001, 1)
    end_next(sim)
    begin_at(sim, 1, t1, 2)
    assert outcomes_at_gateway(sim, uid=1) == {0: tr.DROPPED_BUSY_TX}
