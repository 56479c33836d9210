import csv
import hashlib
import io
import json
import statistics
from dataclasses import replace

import pytest
from hypothesis import example, given, strategies as st

from loramesh import trace as tr
from loramesh.metrics import MetricsBuilder, recompute_from_trace, write_battery_csv
from loramesh.scenario import load_scenario, scenario_from_dict
from loramesh.simulation import Simulation


def tiny_scenario():
    return scenario_from_dict(
        {
            "name": "tiny",
            "topology": {
                "nodes": [
                    {"uid": 0, "role": "gateway"},
                    {"uid": 1, "role": "repeater"},
                    {"uid": 101, "role": "end_device", "attach": 1},
                ],
                "links": [
                    {"a": 0, "b": 1, "distance_m": 100.0},
                    {"a": 101, "b": 1, "distance_m": 10.0},
                ],
            },
            "traffic": {"schedule": {"101": [1.0, 2.0, 3.0]}},
        }
    )


def synthetic_builder(events, end=10.0):
    builder = MetricsBuilder(tiny_scenario(), seed=1)
    for ev in events:
        builder.feed(ev)
    return builder.finalize(end)


# Events over the tiny scenario's nodes, at non-decreasing times from
# 1.0 s. Few packet ids and nodes, and kinds biased to the accounted
# ones, make a Generated and its ingress RxOk (at repeater 1, from end
# device 101) common.
UIDS = st.sampled_from([0, 1, 101])
EVENT = st.tuples(
    st.sampled_from([0.0, 0.0, 0.01, 0.5]),
    st.one_of(
        st.sampled_from([tr.GENERATED, tr.RX_OK, tr.TX_END, tr.DELIVERED]),
        st.sampled_from(range(len(tr.EVENT_NAMES))),
    ),
    UIDS,
    st.integers(0, 3),
    UIDS,
    st.sampled_from([0.014, 0.3]),
)


def timed(steps):
    t = 1.0
    events = []
    for step, kind, node, pkt, peer, dur in steps:
        t += step
        events.append((t, kind, node, pkt, peer, dur, 1))
    return events


def bill(builder, ev):
    """Charge ``ev``'s window as the live simulation does, where it is spent."""
    t, kind, node, _pkt, _peer, dur, _ch = ev
    if kind in (tr.RX_OK, tr.RX_COLLIDED):
        builder.ledgers[node].charge_rx(t - dur, t)
    elif kind == tr.TX_END:
        builder.ledgers[node].charge_tx(t - dur, t)


@given(st.lists(EVENT, max_size=40), st.sets(st.integers(1, 39)))
@example(
    # the ingress RxOk of packet 2 lands in the batch after its Generated,
    # and the packet is lost past the end device
    [(0.0, tr.GENERATED, 101, 2, 0, 0.014), (0.014, tr.RX_OK, 1, 2, 101, 0.014)],
    {1},
)
# the same two events in one batch
@example([(0.0, tr.GENERATED, 101, 2, 0, 0.014), (0.014, tr.RX_OK, 1, 2, 101, 0.014)], set())
def test_accounting_does_not_depend_on_batch_boundaries(steps, cuts):
    events = timed(steps)
    fed = MetricsBuilder(tiny_scenario(), seed=1)
    for ev in events:
        fed.feed(ev)
    live = MetricsBuilder(tiny_scenario(), seed=1)
    bounds = [0] + sorted(c for c in cuts if c < len(events)) + [len(events)]
    for lo, hi in zip(bounds, bounds[1:]):
        batch = events[lo:hi]
        for ev in batch:
            bill(live, ev)
        live.account(batch)
    end = events[-1][tr.T] if events else 1.0
    assert json.dumps(live.finalize(end), sort_keys=True) == json.dumps(
        fed.finalize(end), sort_keys=True
    )


def test_latency_statistics_against_stdlib():
    events = []
    lat_s = [0.050, 0.030, 0.120, 0.080, 0.010]
    for k, lat in enumerate(lat_s):
        t0 = 1.0 + k
        events.append((t0, tr.GENERATED, 101, k, None, None, None))
        events.append((t0 + lat, tr.DELIVERED, 0, k, None, None, None))
    m = synthetic_builder(events)
    values_ms = [lat * 1000.0 for lat in lat_s]
    assert m["latency_ms"]["mean"] == pytest.approx(statistics.fmean(values_ms))
    assert m["latency_ms"]["median"] == pytest.approx(statistics.median(values_ms))
    assert m["latency_ms"]["p95"] == pytest.approx(max(values_ms))  # ceil(0.95*5) = 5
    assert m["pdr"] == 1.0


def test_duplicate_delivery_keeps_first_timestamp():
    events = [
        (1.0, tr.GENERATED, 101, 7, None, None, None),
        (1.5, tr.DELIVERED, 0, 7, None, None, None),
        (2.5, tr.DELIVERED, 0, 7, None, None, None),
    ]
    m = synthetic_builder(events)
    assert m["delivered"] == 1
    assert m["latency_ms"]["mean"] == pytest.approx(500.0)


def test_loss_split_initial_versus_intermediate():
    events = [
        # packet 1: never decoded anywhere past the end device
        (1.0, tr.GENERATED, 101, 1, None, None, None),
        # packet 2: the attach repeater heard it, then it vanished
        (2.0, tr.GENERATED, 101, 2, None, None, None),
        (2.014, tr.RX_OK, 1, 2, 101, 0.014, 1),
        # packet 3: delivered
        (3.0, tr.GENERATED, 101, 3, None, None, None),
        (3.014, tr.RX_OK, 1, 3, 101, 0.014, 1),
        (3.1, tr.DELIVERED, 0, 3, None, None, None),
    ]
    m = synthetic_builder(events)
    assert m["generated"] == 3
    assert m["delivered"] == 1
    assert m["losses"] == {"initial_ed": 1, "intermediate": 1}
    # loss rows plus deliveries always add back up to generation
    assert m["delivered"] + sum(m["losses"].values()) == m["generated"]


def test_overheard_rx_does_not_count_as_ingress():
    # RX_OK of packet 1 at node 1, but from a relay, not from the origin
    events = [
        (1.0, tr.GENERATED, 101, 1, None, None, None),
        (1.2, tr.RX_OK, 1, 1, 2, 0.014, 0),
    ]
    m = synthetic_builder(events)
    assert m["losses"] == {"initial_ed": 1, "intermediate": 0}


def test_empty_run_yields_null_rates():
    m = synthetic_builder([])
    assert m["generated"] == 0
    assert m["pdr"] is None
    assert m["latency_ms"] is None
    assert m["network_lifetime_s"] is None
    assert m["throughput"]["offered_pkt_per_s"] == 0.0


def test_duty_cycle_from_tx_events():
    events = [
        (1.0, tr.TX_START, 1, 5, None, 0.014144, 0),
        (1.014144, tr.TX_END, 1, 5, None, 0.014144, 0),
    ]
    m = synthetic_builder(events, end=10.0)
    assert m["duty_cycle_pct"]["1"] == pytest.approx(0.014144 / 10.0 * 100.0)
    assert m["duty_cycle_pct"]["0"] == 0.0


def test_recompute_from_trace_matches_live_run(tmp_path):
    scn = load_scenario("standby_recovery")
    trace_path = tmp_path / "trace.ndjson"
    with open(trace_path, "w") as fh:
        live = Simulation(scn, trace_writer=tr.TraceWriter(fh)).run().metrics
    again = recompute_from_trace(scn, scn.seed, trace_path, live["end_time_s"])
    assert json.dumps(again, sort_keys=True) == json.dumps(live, sort_keys=True)
    assert again["trace_sha256"] == live["trace_sha256"]


def test_recompute_from_trace_matches_a_run_cut_by_its_horizon(tmp_path):
    base = load_scenario("representative")
    traffic = replace(base.traffic, total_packets=200, schedule={})
    scn = replace(base, protocol="routing", traffic=traffic, horizon_s=10.0)
    trace_path = tmp_path / "trace.ndjson"
    with open(trace_path, "w", encoding="ascii") as fh:
        sim = Simulation(scn, trace_writer=tr.TraceWriter(fh))
        live = sim.run().metrics
    # the run ends at the horizon, not at its last event, with work left over
    assert live["end_time_s"] == 10.0
    assert sim.queue
    assert 0 < live["generated"] < 200
    events = list(tr.read_trace(trace_path))
    assert max(ev[tr.T] for ev in events) <= 10.0
    again = recompute_from_trace(scn, scn.seed, trace_path, live["end_time_s"])
    assert json.dumps(again, sort_keys=True) == json.dumps(live, sort_keys=True)


def test_single_ledger_matches_trace_through_battery_deaths(tmp_path):
    base = load_scenario("two_ed_battery")
    scn = replace(base, traffic=replace(base.traffic, total_packets=10000, schedule={}))
    trace_path = tmp_path / "trace.ndjson"
    with open(trace_path, "w", encoding="ascii") as fh:
        sim = Simulation(scn, trace_writer=tr.TraceWriter(fh))
        live = sim.run().metrics
    # repeaters die and the energy-aware switches fire on the way
    assert live["network_lifetime_s"] is not None
    assert live["counts"]["route_switched"] > 0
    # the protocol reads the very ledgers the metrics report
    for uid, node in sim.nodes.items():
        assert node.ledger is sim.builder.ledgers[uid]
    again = recompute_from_trace(scn, scn.seed, trace_path, live["end_time_s"])
    assert json.dumps(again, sort_keys=True) == json.dumps(live, sort_keys=True)
    assert hashlib.sha256(trace_path.read_bytes()).hexdigest() == live["trace_sha256"]
    # a repeater dies during its own frame; its peers still decode that
    # frame, and they do so before the sender's TxEnd bills it
    events = list(tr.read_trace(trace_path))
    deaths = {uid: sim.builder.ledgers[uid].death_time for uid in sim.topology.repeaters}
    dying = [
        (i, ev)
        for i, ev in enumerate(events)
        if ev[tr.KIND] == tr.TX_END
        and deaths.get(ev[tr.NODE]) is not None
        and ev[tr.T] - ev[tr.DUR] <= deaths[ev[tr.NODE]] <= ev[tr.T]
    ]
    assert dying
    for end, (t, _kind, sender, pkt, _peer, _dur, _ch) in dying:
        heard = [
            i
            for i, ev in enumerate(events)
            if ev[tr.KIND] in (tr.RX_OK, tr.RX_COLLIDED)
            and (ev[tr.PEER], ev[tr.PKT], ev[tr.T]) == (sender, pkt, t)
        ]
        assert any(events[i][tr.KIND] == tr.RX_OK for i in heard)
        assert all(i < end for i in heard)


def small_flood(packets=50):
    scn = load_scenario("representative")
    traffic = replace(scn.traffic, total_packets=packets, schedule={})
    return replace(scn, protocol="flooding", traffic=traffic)


@pytest.mark.parametrize("batch_events", [1, 7])
def test_live_metrics_do_not_depend_on_batch_size(monkeypatch, batch_events):
    scn = small_flood(200)
    whole = Simulation(scn).run().metrics
    # packets lost past their end device: ingress is accounted across batches
    assert whole["losses"]["intermediate"] > 0
    monkeypatch.setattr(tr, "BATCH_EVENTS", batch_events)
    split = Simulation(scn).run().metrics
    assert json.dumps(split, sort_keys=True) == json.dumps(whole, sort_keys=True)


def test_each_trace_event_is_encoded_once(monkeypatch):
    packed = []
    pack = tr.pack_events

    def counting(events):
        packed.extend(events)
        return pack(events)

    monkeypatch.setattr(tr, "pack_events", counting)
    for scn in (load_scenario("standby_recovery"), small_flood()):
        packed.clear()
        buf = io.StringIO()
        live = Simulation(scn, trace_writer=tr.TraceWriter(buf)).run().metrics
        events = sum(live["counts"].values())
        assert len(packed) == events
        # the header, then one record per event
        assert len(buf.getvalue().splitlines()) == 1 + events
        assert hashlib.sha256(buf.getvalue().encode("ascii")).hexdigest() == live["trace_sha256"]
    # the flood fills several batches and ends on a partial one
    assert events > 2 * tr.BATCH_EVENTS and events % tr.BATCH_EVENTS


def test_failed_run_keeps_every_emitted_line(tmp_path, monkeypatch):
    scn = small_flood()
    full = io.StringIO()
    Simulation(scn, trace_writer=tr.TraceWriter(full)).run()
    stop_after = 3 * tr.BATCH_EVENTS + 17
    sense = Simulation._ev_sense

    def failing(self, uid):
        if sum(self.builder.counts) >= stop_after:
            raise RuntimeError("handler failed")
        sense(self, uid)

    monkeypatch.setattr(Simulation, "_ev_sense", failing)
    path = tmp_path / "trace.ndjson"
    with open(path, "w", encoding="ascii") as fh:
        sim = Simulation(scn, trace_writer=tr.TraceWriter(fh))
        with pytest.raises(RuntimeError, match="handler failed"):
            sim.run()
    emitted = sum(sim.builder.counts)
    assert emitted >= stop_after and emitted % tr.BATCH_EVENTS
    events = list(tr.read_trace(path))
    assert len(events) == emitted
    # the same records, in order, that the run writes when nothing fails
    full.seek(0)
    assert events == list(tr.read_trace(full))[:emitted]
    assert full.getvalue().startswith(path.read_text())
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sim.trace.hexdigest()


def test_battery_csv_layout(tmp_path):
    scn = load_scenario("standby_recovery")
    sim = Simulation(scn)
    sim.run()
    path = tmp_path / "battery.csv"
    write_battery_csv(path, sim.builder)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["time_s", "uid", "level"]
    assert len(rows) > 1
    times = [float(r[0]) for r in rows[1:]]
    assert times == sorted(times)
    for row in rows[1:]:
        assert 0 <= int(row[2]) <= 100
