"""The simulator against closed-form results.

- Pure ALOHA on the end-device channel: a star of N end devices that a
  gateway and a repeater both hear, sending at a mean interval m with
  gaps drawn from U(0, 2m). The gateway decodes a frame of airtime T
  when no other device's frame overlaps it. For one other device, a
  stationary renewal process with those gaps, the chance of no arrival
  in the 2T window around the frame's start is 1 - (1/m) times the
  integral over [0, 2T] of P(gap > x) = 1 - x / 2m, that is (1 - T/m)^2;
  with N - 1 independent others the decode ratio is (1 - T/m)^(2(N-1)).
- Flooding on ``representative``, one packet at a time: every repeater
  relays each packet exactly once, so a packet costs one mesh frame per
  repeater.
- Routing on the same runs: a packet costs one mesh frame per repeater
  on its planned path, from the device's repeater up to the gateway.

A mismatch is a finding about the simulator, never a bound to loosen.
"""

import math
from collections import Counter
from dataclasses import replace

import pytest

from loramesh import trace as tr
from loramesh.model import MESH_CHANNEL, RadioConfig, airtime
from loramesh.scenario import load_scenario, scenario_from_dict
from loramesh.simulation import Simulation


class TallyWriter(tr.TraceWriter):
    """A trace sink that also counts the events ``key`` maps to a key (None
    skips one) as each batch passes."""

    def __init__(self, key) -> None:
        super().__init__()
        self.key = key
        self.tally = Counter()

    def flush(self) -> None:
        self.tally.update(k for k in map(self.key, self.batch) if k is not None)
        super().flush()


GATEWAY = 0
DEVICES = range(101, 121)


def star(mean_interval_s: float, packets: int, seed: int):
    """A gateway, a repeater and 20 end devices, each device 10 m from both;
    flooding, no shadowing, a 6 dB capture margin."""
    return scenario_from_dict(
        {
            "name": "star",
            "topology": {
                "path_loss": {"shadowing_sigma_db": 0.0},
                "capture_threshold_db": 6.0,
                "nodes": [{"uid": GATEWAY, "role": "gateway"}, {"uid": 1, "role": "repeater"}]
                + [{"uid": ed, "role": "end_device", "attach": 1} for ed in DEVICES],
                "links": [{"a": GATEWAY, "b": 1, "distance_m": 10.0}]
                + [{"a": a, "b": ed, "distance_m": 10.0} for ed in DEVICES for a in (GATEWAY, 1)],
            },
            "traffic": {"total_packets": packets, "mean_interval_s": mean_interval_s},
            "protocol": "flooding",
            "seed": seed,
        }
    )


def gateway_outcome(ev):
    """RxOk or RxCollided of an end device's frame at the gateway."""
    if ev[tr.NODE] == GATEWAY and ev[tr.PEER] in DEVICES:
        return ev[tr.KIND]
    return None


# The bound is 4 standard errors of the binomial decode ratio at 20 000
# frames (0.014 at m = 1 s, 0.009 at m = 4 s): the formula is exact for
# the model, so only the one seed's sampling error is allowed, and a
# correct simulator lands outside 4 sigma with odds near 1 in 16 000 per
# case. Frames that queue behind their device's last one (a gap shorter
# than T, under 1% of them at m = 1 s) shift the arrivals by less than
# that. At three seeds tried, every case fell within 3.4 sigma.
@pytest.mark.parametrize("mean_interval_s", [1.0, 4.0])
def test_gateway_decode_ratio_is_pure_alohas(mean_interval_s):
    n_devices = len(DEVICES)
    packets = 20_000
    writer = TallyWriter(gateway_outcome)
    Simulation(star(mean_interval_s, packets, seed=1), trace_writer=writer).run()
    heard = writer.tally[tr.RX_OK] + writer.tally[tr.RX_COLLIDED]
    assert heard == packets
    frame_s = airtime(RadioConfig(), 20)
    expected = (1.0 - frame_s / mean_interval_s) ** (2 * (n_devices - 1))
    stderr = math.sqrt(expected * (1.0 - expected) / heard)
    ratio = writer.tally[tr.RX_OK] / heard
    assert abs(ratio - expected) <= 4.0 * stderr, (ratio, expected, stderr)


def mesh_frame(ev):
    """The packet of a frame begun on the mesh channel."""
    if ev[tr.KIND] == tr.TX_START and ev[tr.CH] == MESH_CHANNEL:
        return ev[tr.PKT]
    return None


def one_packet_at_a_time(protocol: str):
    """``representative`` under ``protocol``, each end device sending one
    packet, 20 s after the one before; returns the run and its mesh frames
    per packet id."""
    base = load_scenario("representative")
    devices = sorted(base.topology.end_devices)
    schedule = {ed: [20.0 * (i + 1)] for i, ed in enumerate(devices)}
    scn = replace(base, protocol=protocol, traffic=replace(base.traffic, schedule=schedule))
    writer = TallyWriter(mesh_frame)
    sim = Simulation(scn, trace_writer=writer)
    metrics = sim.run().metrics
    assert metrics["generated"] == metrics["delivered"] == len(devices)
    # packet ids are given in generation order, one device after another
    return sim, devices, [writer.tally[pid] for pid in range(len(devices))]


def test_flooding_sends_one_frame_per_repeater_per_packet():
    sim, _devices, frames = one_packet_at_a_time("flooding")
    repeaters = len(sim.topology.repeaters)
    assert repeaters == 17
    assert frames == [repeaters] * len(frames)


def test_routing_sends_one_frame_per_planned_repeater_hop():
    sim, devices, frames = one_packet_at_a_time("routing")
    rows = sim.graph.rows
    hops = []
    for ed in devices:
        # the device's repeater, then each upstream row's, up to a gateway
        uid, count = sim.topology.nodes[ed].attach, 0
        while uid not in sim.topology.gateways:
            count += 1
            uid = rows[uid][1]
        hops.append(count)
    assert frames == hops
    assert sum(hops) == 38 and len(hops) == 17
