"""Event-driven execution of one scenario.

One Simulation instance owns the event queue, every node's radio and
protocol state, and the trace writer. The flow per transmission: the
sender's MAC chain (``_send_next``) begins the frame at once on an end
device, or draws a wait and senses the mesh channel first on a mesh
node; the frame schedules one end-of-air event, at which reception is
arbitrated for every live peer straight from the sender's hearer row
(``Node.row``: each linked peer in uid order with the power it
receives, or None when it cannot hear the sender: audibility, then
own-transmit exclusion, then capture margin over the overlapping frames
the peer hears), then the sender is billed. The frame end picks the
frame's handler once, from its packet kind: a mesh node that decodes an
uplink data frame hands it to ``_deliver_data`` (flooding, routing,
standby recovery and the battery-triggered switches), and any other
frame to ``_deliver_control`` (route switches and the learning phase's
floods).
An end device acts on nothing it decodes: it is billed for the frame,
and nothing more, so it holds no protocol state. Only repeaters route
and relay, so only they hold a dedup cache, a route and learned rows;
a gateway holds just the neighbor table its beacons fill, which the
server's plan reads.

A node's transmit queue is a plain ``deque`` that ``_enqueue`` bounds:
past the scenario's queue capacity it drops the oldest frame, on
record. A mesh node's MAC wait is a draw from its own "mac" stream. The
node binds that stream's ``random`` on its first wait and draws
``wait_min + span * random()``, which is ``random.Random.uniform``'s
own formula, so every wait is the stream's uniform draw bit for bit.
The event queue holds ``_ev_sense`` and ``_ev_tx_end`` as bound once.
Every event that acts on one node carries that ``Node`` (a frame, its
sender), so the frame path and the generate, standby and control-send
handlers look no node up by uid.

The hearer rows live on the nodes, beside their ``rivals`` and
``sensed`` rows, and come from the channel's audibility map
(``LinkModel.hearing``), drawn once per run; the oracle planner plans
over the same map, so a routed hop is always a link the run hears.
Links are symmetric, so a receiver's own row also names every sender it
hears, with the power it receives.

Interference is read from each node's two latest frames and a rival
list per sender; no scan covers the whole network. A node runs one MAC
chain on its one channel (``Node.channel``: end devices on the
end-device channel, the others on the mesh channel), so its frames
never overlap and begin in order, and a frame's channel is its
sender's.
Of its frames that overlap a frame ending at t1, the latest begun
before t1 is then its last or, when the last began at exactly t1 before
that end was arbitrated, the one before. Carrier sense asks whether a
mesh node the node hears (its ``sensed`` row, built from its hearer
row on its first sense; a mesh node sends on the mesh channel only)
has its last frame still on air. A sender's rivals, built from the
rows on its first frame end, are the other nodes on its channel that
any peer hearing it hears, each with the power it reaches each of
those peers with. At a frame end each rival's frames are read once;
when none overlaps, every peer decodes with no rival, and otherwise a
peer's strongest rival is the loudest of the overlapping ones it
hears; ``channel.captures`` judges only a peer with such a rival.

Energy is billed where it is spent, one ``EnergyLedger.charge`` call per
window: each decoded or collided frame is charged to the peer's ledger
at its end, and each transmission to the sender's just before its
``TX_END``. Events are appended to the trace writer's batch in their
stored form (see ``trace``), by ``_emit`` or,
on the per-frame path, directly; the run loop checks the batch once per
dispatched event, and ``_flush`` hands a full batch (and, at the end of
``run``, the last one) to the metrics builder's ``account`` and then to
the writer, which packs each event into one fixed-size trace record and
hashes it.
Neither the accounting nor the trace bytes depend on where a batch ends.

Routes are the rows ``planner.plan`` makes, and only repeaters install
them. Without the learning phase each repeater installs its row from
the oracle plan before the first event; with it, each repeater keeps
the rows that table chunks bring for itself and its beacon-heard
neighbors, looking each up in the chunk's rows by uid, and installs
them at switchover by the same ``RouteState.install``.
A row's downstream set rides in the chunks but is not installed, since
data flows uplink only, from end devices to the gateways: the traffic
the paper measures. A failed plan leaves its reason in ``plan_error``
and the mesh flooding.

The learning phase's sends are one event, ``_ev_send_control``, which a
live node runs with a packet kind: a gateway's beacon and chunk rounds,
a repeater's neighbor reports. A decoded control flood gets its kind's
intake (a beacon into the neighbor table, a report into the gateway's
rows, a chunk into the repeater's learned rows), and then one rule:
repeaters relay control floods. A relay sends a flood on as the packet
it decoded, or as a bare ``rehop`` copy when that packet was addressed
or carried a level.

Determinism: all randomness comes from named per-node streams, every
iteration over node or link collections is sorted, and simultaneous
events pop in insertion order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import repeat

from . import routing as rt
from . import trace as tr
from .channel import captures
from .energy import EnergyLedger
from .engine import EventQueue, RngStreams
from .learning import NeighborTable, build_report_chunks
from .mac import DedupCache
from .metrics import MetricsBuilder
from .model import (
    BEACON,
    BEACON_PAYLOAD,
    DATA_UP,
    ED_CHANNEL,
    MESH_CHANNEL,
    NEIGHBOR_REPORT,
    ROUTE_SWITCH,
    ROUTE_SWITCH_PAYLOAD,
    ROUTE_TABLE_CHUNK,
    Packet,
    airtime,
)
from .planner import PlannerError, emit_chunks, plan, plan_from_topology
from .scenario import Scenario
from .trace import (
    DELIVERED,
    DROPPED_BUSY_TX,
    DUP_SUPPRESSED,
    GENERATED,
    NONE_DUR,
    NONE_INT,
    QUEUE_DROPPED,
    ROUTE_SWITCHED,
    RX_BELOW_SENS,
    RX_COLLIDED,
    RX_OK,
    STANDBY_ARMED,
    STANDBY_CANCELLED,
    STANDBY_FIRED,
    TX_END,
    TX_START,
)

# the loudest rival at every peer of a frame that no rival overlaps
NO_RIVALS = repeat(None)


class Transmission:
    __slots__ = ("sender", "t0", "t1", "packet")

    def __init__(self, sender: Node, t0: float, t1: float, packet: Packet) -> None:
        self.sender = sender
        self.t0 = t0
        self.t1 = t1
        self.packet = packet


class Node:
    __slots__ = (
        "uid", "is_gateway", "is_repeater", "is_ed", "channel", "queue", "ledger",
        "chain_active",
        # None on an end device
        "ntable",
        # None but on a repeater
        "dedup", "route", "learned",
        "row", "last", "prev", "rivals", "mac_draw", "sensed",
    )

    def __init__(self, uid: int, role_flags: tuple[bool, bool, bool], ledger: EnergyLedger) -> None:
        self.uid = uid
        self.is_gateway, self.is_repeater, self.is_ed = role_flags
        self.channel = ED_CHANNEL if self.is_ed else MESH_CHANNEL
        # the frames waiting to go, oldest first; _enqueue bounds it
        self.queue: deque[Packet] = deque()
        self.ledger = ledger
        # a repeater's relay and route state and a mesh node's beacon
        # table, which the simulation sets (see the module docstring)
        self.dedup = self.ntable = self.route = self.learned = None
        self.chain_active = False
        # this node's hearer row: every linked peer in uid order as (peer
        # node, the power it receives, or None when it cannot hear this
        # node); links are symmetric, so it also names every sender this
        # node hears
        self.row: list[tuple[Node, float | None]] = []
        # this node's latest frame and the one before it: all that
        # interference and carrier sense read (see the module docstring)
        self.last: Transmission | None = None
        self.prev: Transmission | None = None
        # (node, power at each peer of ``row``) for every node that could
        # interfere with this one's frames; see _rivals
        self.rivals: tuple | None = None
        # the ``random`` of this node's "mac" stream, bound on its first wait
        self.mac_draw = None
        # the mesh nodes this node hears, whose frames carrier sense
        # reads; built on its first sense
        self.sensed: tuple | None = None


@dataclass
class RunResult:
    metrics: dict


class Simulation:
    def __init__(self, scenario: Scenario, trace_writer: tr.TraceWriter | None = None) -> None:
        self.scenario = scenario
        self.queue = EventQueue()
        self.rng = RngStreams(scenario.seed)
        self.radio = scenario.radio
        topo = scenario.topology
        self.topology = topo
        links = topo.links
        self.capture = links.capture_threshold_db
        self.protocol = scenario.protocol
        self.standby_enabled = scenario.standby_enabled and self.protocol != "flooding"
        self.energy_aware = self.protocol == "routing"

        # The metrics builder owns the one energy ledger per node; the
        # simulation bills it, and the protocol reads the same ledger that
        # the metrics report.
        self.builder = MetricsBuilder(scenario, scenario.seed)
        self.nodes: dict[int, Node] = {}
        mac = scenario.mac
        self.queue_capacity = mac.queue_capacity
        for uid in sorted(topo.nodes):
            role = topo.nodes[uid].role
            flags = (role == "gateway", role == "repeater", role == "end_device")
            node = Node(uid, flags, self.builder.ledgers[uid])
            if not node.is_ed:
                node.ntable = NeighborTable(links.path_loss_model, self.radio.tx_power_dbm)
            if node.is_repeater:
                node.dedup = DedupCache(mac.dedup_ttl_s, mac.dedup_capacity)
                node.route = rt.RouteState(uid)
                # uid -> latest chunk row for this node or a beacon-heard neighbor
                node.learned = {}
            self.nodes[uid] = node

        # The audibility map, and from it each node's hearer row. Links
        # come sorted with a < b, so a row gets its lower peers in order,
        # then its higher ones: it is built in uid order.
        self.heard = links.hearing(self.radio.tx_power_dbm, scenario.seed)
        nodes = self.nodes
        for a, b, prx in self.heard:
            nodes[a].row.append((nodes[b], prx))
            nodes[b].row.append((nodes[a], prx))

        self._next_pid = 0
        self.budget_left = scenario.traffic.total_packets
        self.delivered_pids: set[int] = set()
        self.report_rows: dict[int, dict[int, float]] = {}
        self.graph = None
        self.plan_error: PlannerError | None = None
        self.chunks: list = []
        self._airtimes: dict[int, float] = {}
        self.trace = trace_writer or tr.TraceWriter()
        self._batch = self.trace.batch
        # a MAC wait is ``wait_min + span * draw()``: random.Random.uniform's
        # own formula, so every wait is the stream's uniform draw
        self._wait_min = scenario.mac.wait_min_s
        self._wait_span = scenario.mac.wait_max_s - scenario.mac.wait_min_s
        # the per-frame events' handlers, bound once
        self._ev_sense = self._ev_sense
        self._ev_tx_end = self._ev_tx_end

    # ------------------------------------------------------------------
    # plumbing

    def _emit(self, kind: int, node: int, pkt: int = NONE_INT, peer: int = NONE_INT) -> None:
        self._batch.append((self.queue.now, kind, node, pkt, peer, NONE_DUR, NONE_INT))

    def _flush(self) -> None:
        """Account the waiting events, then let the trace writer encode them."""
        self.builder.account(self._batch)
        self.trace.flush()

    def _new_pid(self) -> int:
        pid = self._next_pid
        self._next_pid += 1
        return pid

    def _originate(self, node: Node, kind: int, payload_bytes: int, next_hop=None, body=None) -> int:
        """Queue a new packet at ``node``; returns its pid."""
        pid = self._new_pid()
        if next_hop is None and node.is_repeater:
            # a flood: its origin must not relay its own packet back
            node.dedup.seen(pid, self.queue.now)
        self._enqueue(node, Packet(pid, kind, node.uid, next_hop, payload_bytes, None, body))
        return pid

    def _relay(self, node: Node, packet: Packet) -> bool:
        """Rebroadcast a flood the first time ``node`` decodes it."""
        if node.dedup.seen(packet.packet_id, self.queue.now):
            return False
        # nothing changes a packet once made, so a bare flood goes out as is
        if packet.next_hop is not None or packet.battery_level is not None:
            packet = packet.rehop()
        self._enqueue(node, packet)
        return True

    # ------------------------------------------------------------------
    # bootstrap

    def _bootstrap(self) -> None:
        scenario = self.scenario
        if self.protocol != "flooding" and not scenario.learning_phase:
            self.graph = plan_from_topology(self.topology, self.heard)
            rows = self.graph.rows
            for uid in sorted(self.topology.repeaters):
                if uid in rows:
                    value, upstream, _downstream, values = rows[uid]
                    self.nodes[uid].route.install(value, upstream, values)
        if scenario.learning_phase:
            self._schedule_learning()
        self._schedule_traffic()

    def _schedule_learning(self) -> None:
        ph = self.scenario.phases
        self._schedule_rounds(0.0, ph.beacon_end_s, ph.beacon_rounds, BEACON)
        window = 0.6 * (ph.report_end_s - ph.beacon_end_s)
        for rp in sorted(self.topology.repeaters):
            t = ph.beacon_end_s + self.rng.uniform(rp, "report", 0.0, window)
            self.queue.push(t, self._ev_send_control, (self.nodes[rp], NEIGHBOR_REPORT))
        self.queue.push(ph.report_end_s, self._ev_server_plan, ())
        self._schedule_rounds(
            ph.report_end_s, ph.dissemination_end_s, ph.chunk_rounds, ROUTE_TABLE_CHUNK
        )
        self.queue.push(ph.dissemination_end_s, self._ev_switchover, ())

    def _schedule_rounds(self, start: float, end: float, rounds: int, kind: int) -> None:
        """Every gateway's ``rounds`` sends of control floods of ``kind``,
        evenly spaced from ``start`` to ``end``, each jittered by
        U(0, min(1, spacing / 2)) from the gateway's traffic stream."""
        spacing = (end - start) / rounds
        for gw in sorted(self.topology.gateways):
            args = (self.nodes[gw], kind)
            for r in range(rounds):
                jitter = self.rng.uniform(gw, "traffic", 0.0, min(1.0, spacing / 2.0))
                self.queue.push(start + r * spacing + jitter, self._ev_send_control, args)

    def _schedule_traffic(self) -> None:
        traffic = self.scenario.traffic
        if traffic.schedule:
            for ed in sorted(traffic.schedule):
                for t in traffic.schedule[ed]:
                    self.queue.push(t, self._ev_generate, (self.nodes[ed],))
            return
        if traffic.total_packets <= 0:
            return
        start = traffic.start_s
        if self.scenario.learning_phase:
            start += self.scenario.phases.dissemination_end_s
        for ed in sorted(self.topology.end_devices):
            gap = self.rng.uniform(ed, "traffic", 0.0, 2.0 * traffic.mean_interval_s)
            self.queue.push(start + gap, self._ev_generate, (self.nodes[ed],))

    # ------------------------------------------------------------------
    # traffic

    def _ev_generate(self, node: Node) -> None:
        """One uplink packet from end device ``node``; periodic traffic (no
        schedule) spends the budget and draws the device's next generation
        time."""
        traffic = self.scenario.traffic
        periodic = not traffic.schedule
        if periodic:
            if self.budget_left <= 0:
                return
            self.budget_left -= 1
        if node.ledger.dead:
            return
        uid = node.uid
        pid = self._new_pid()
        self._emit(GENERATED, uid, pkt=pid)
        self._enqueue(node, Packet(pid, DATA_UP, uid, None, traffic.payload_bytes))
        if periodic and self.budget_left > 0:
            gap = self.rng.uniform(uid, "traffic", 0.0, 2.0 * traffic.mean_interval_s)
            self.queue.push(self.queue.now + gap, self._ev_generate, (node,))

    # ------------------------------------------------------------------
    # MAC

    def _enqueue(self, node: Node, packet: Packet) -> None:
        """Queue ``packet`` at a live ``node``, whose MAC chain starts if it
        is idle; past the queue capacity the oldest is dropped, on record."""
        if node.ledger.dead:
            return
        queue = node.queue
        queue.append(packet)
        if len(queue) > self.queue_capacity:
            self._emit(QUEUE_DROPPED, node.uid, pkt=queue.popleft().packet_id)
        if not node.chain_active:
            node.chain_active = True
            self._send_next(node)

    def _send_next(self, node: Node) -> None:
        """The next step of a chain with a frame queued: an end device
        begins it at once on its channel; a mesh node senses after a wait."""
        if node.is_ed:
            self._begin_tx(node, node.queue.popleft())
            return
        draw = node.mac_draw
        if draw is None:
            draw = node.mac_draw = self.rng.stream(node.uid, "mac").random
        wait = self._wait_min + self._wait_span * draw()
        self.queue.push(self.queue.now + wait, self._ev_sense, (node,))

    def _mesh_busy(self, node: Node) -> bool:
        sensed = node.sensed
        if sensed is None:
            # a mesh node sends on the mesh channel only
            sensed = node.sensed = tuple(s for s, p in node.row if p is not None and not s.is_ed)
        now = self.queue.now
        for sender in sensed:
            t = sender.last
            if t is not None and t.t0 <= now < t.t1:
                return True
        return False

    def _ev_sense(self, node: Node) -> None:
        if node.ledger.dead or not node.queue:
            node.chain_active = False
            return
        if self._mesh_busy(node):
            self._send_next(node)
            return
        self._begin_tx(node, node.queue.popleft())

    def _begin_tx(self, node: Node, packet: Packet) -> None:
        now = self.queue.now
        size = packet.payload_bytes
        dur = self._airtimes.get(size)
        if dur is None:
            dur = self._airtimes[size] = airtime(self.radio, size)
        t1 = now + dur
        trans = Transmission(node, now, t1, packet)
        node.prev = node.last
        node.last = trans
        self._batch.append((now, TX_START, node.uid, packet.packet_id, NONE_INT, dur, node.channel))
        self.queue.push(t1, self._ev_tx_end, (trans,))

    def _rivals(self, sender: Node) -> tuple:
        """The senders that could interfere with ``sender``'s frames: every
        other node on its channel that a peer hearing ``sender`` hears, in
        uid order, each with the power it reaches each peer of ``sender``'s
        hearer row with (None where that peer does not hear it). Built on
        first use; the rows never change."""
        row = sender.row
        powers: dict[int, list] = {}
        for i, (node, p) in enumerate(row):
            if p is None:
                continue
            for other, ip in node.row:
                if ip is not None and other is not sender and other.is_ed == sender.is_ed:
                    powers.setdefault(other.uid, [None] * len(row))[i] = ip
        nodes = self.nodes
        sender.rivals = tuple((nodes[uid], tuple(powers[uid])) for uid in sorted(powers))
        return sender.rivals

    def _ev_tx_end(self, trans: Transmission) -> None:
        sender = trans.sender
        uid = sender.uid
        t0 = trans.t0
        t1 = trans.t1
        now = self.queue.now
        dur = t1 - t0
        start = now - dur
        packet = trans.packet
        pid = packet.packet_id
        ch = sender.channel
        append = self._batch.append
        # the frame's handler at a decoding mesh node, by its kind
        kind = packet.kind
        deliver = self._deliver_data if kind == DATA_UP else self._deliver_control
        capture = self.capture
        # The rivals' frames overlapping [t0, t1), each read once (a rival
        # sends on the sender's channel): a node's frame overlapping
        # [t0, t1) is its last or, when that began at t1, the one before
        # (see the module docstring). The loudest per peer is kept; with
        # none, no peer has a rival.
        rivals = sender.rivals
        if rivals is None:
            rivals = self._rivals(sender)
        loudest = None
        for other, powers in rivals:
            t = other.last
            if t is not None and t.t0 >= t1:
                t = other.prev
            if t is not None and t.t1 > t0:
                if loudest is None:
                    loudest = powers
                else:
                    loudest = [
                        a if b is None or (a is not None and a >= b) else b
                        for a, b in zip(loudest, powers)
                    ]
        # Reception at each live peer, in the order RxBelowSens (the
        # audibility map) -> DroppedBusyTx -> capture over the loudest
        # rival. Peers decode, and are billed, before the sender is
        # billed: a sender that dies during its last frame is still heard.
        # Reception only queues work, so no frame begins inside the loop.
        for (node, p), strongest in zip(sender.row, loudest or NO_RIVALS):
            ledger = node.ledger
            if ledger.dead:
                continue
            peer = node.uid
            if p is None:
                append((now, RX_BELOW_SENS, peer, pid, uid, NONE_DUR, ch))
                continue
            t = node.last
            if t is not None and t.t0 >= t1:
                t = node.prev
            if t is not None and t.t1 > t0:
                append((now, DROPPED_BUSY_TX, peer, pid, uid, NONE_DUR, ch))
                continue
            ok = strongest is None or captures(p, strongest, capture)
            ledger.charge(start, now, ledger.rx_rate)
            append((now, RX_OK if ok else RX_COLLIDED, peer, pid, uid, dur, ch))
            if ledger.dead:
                self._kill(node)
            elif ok and not node.is_ed:
                # an end device acts on nothing it decodes
                deliver(node, packet, uid, p)
        ledger = sender.ledger
        if not ledger.dead:
            ledger.charge(start, now, ledger.tx_rate)
            append((now, TX_END, uid, pid, NONE_INT, dur, ch))
        if ledger.dead:
            self._kill(sender)
            return
        if sender.queue:
            self._send_next(sender)
        else:
            sender.chain_active = False

    def _kill(self, node: Node) -> None:
        node.chain_active = False
        node.queue.clear()
        if node.route is not None:
            node.route.monitors.clear()
            node.route.recent_hops.clear()

    # ------------------------------------------------------------------
    # protocol dispatch

    # A frame a mesh node decodes goes to one of two handlers, picked once
    # per frame by its kind; both take (node, packet, sender uid, power).

    def _deliver_control(self, node: Node, packet: Packet, tx_uid: int, prx_dbm: float) -> None:
        """A route switch addressed to this node, or a learning-phase flood."""
        kind = packet.kind
        if kind == ROUTE_SWITCH:
            # addressed to the sender of an overheard addressed uplink hop:
            # a repeater, the only node that forwards one
            if packet.next_hop == node.uid:
                if rt.apply_route_switch(node.route, tx_uid):
                    self._emit(ROUTE_SWITCHED, node.uid, pkt=packet.packet_id, peer=tx_uid)
            return

        # The learning phase's control floods: each kind's intake, then
        # repeaters relay every one of them.
        if kind == BEACON:
            node.ntable.record_beacon(tx_uid, prx_dbm)
        elif kind == NEIGHBOR_REPORT:
            if node.is_gateway:
                # a repeated report rewrites the same rows
                rows = self.report_rows.setdefault(packet.origin, {})
                for heard, dist in packet.body:
                    rows[heard] = dist
        elif node.is_repeater:
            # a table chunk: keep the rows for this node and its beacon-heard neighbors
            rows, learned = packet.body, node.learned
            row = rows.get(node.uid)
            if row is not None:
                learned[node.uid] = row
            for uid in node.ntable.records:
                row = rows.get(uid)
                if row is not None:
                    learned[uid] = row
        if node.is_repeater:
            self._relay(node, packet)

    def _deliver_data(self, node: Node, packet: Packet, tx_uid: int, _prx_dbm: float) -> None:
        """An uplink: a gateway delivers it once; at a repeater the sender's
        piggybacked battery level is noted, then a repeater without a route
        relays the flood, an addressed one forwards, and an overheard hop
        feeds route switching and standby."""
        pid = packet.packet_id
        if node.is_gateway:
            if pid not in self.delivered_pids:
                self.delivered_pids.add(pid)
                self._emit(DELIVERED, node.uid, pkt=pid)
            return
        r = node.route
        if packet.battery_level is not None:
            r.neighbor_levels[tx_uid] = packet.battery_level
        if self.protocol == "flooding" or not r.installed:
            if not self._relay(node, packet):
                self._emit(DUP_SUPPRESSED, node.uid, pkt=pid, peer=tx_uid)
            return
        next_hop = packet.next_hop
        if next_hop is None or next_hop == node.uid:
            if pid in r.forwarded_ids:
                self._emit(DUP_SUPPRESSED, node.uid, pkt=pid, peer=tx_uid)
            else:
                self._forward(node, packet)
            return
        # Overheard someone else's hop. A hop's announced level that this
        # observer has not acted on brings at most one switch offer: case 1
        # to a monitor's sender, else case 2 around a relay.
        announced = packet.battery_level if self.energy_aware else None
        key = (tx_uid, announced)
        offer = announced is not None and key not in r.switch_acted
        mon = r.monitors.get(pid)
        if mon is not None:
            if (
                offer
                and tx_uid == mon.intended_next
                and rt.case1_should_switch(
                    node.ledger.level, r.level_of(r.upstream_original), announced
                )
            ):
                offer = False
                r.switch_acted.add(key)
                self._originate(node, ROUTE_SWITCH, ROUTE_SWITCH_PAYLOAD, mon.overheard_from)
                rt.revert_upstream(r)
            if not mon.fired:
                self._emit(STANDBY_CANCELLED, node.uid, pkt=pid, peer=tx_uid)
            del r.monitors[pid]
        hop = r.recent_hops.get(pid)
        if hop is not None and tx_uid == hop[1]:
            del r.recent_hops[pid]
            if offer and rt.case2_should_switch(node.ledger.level, announced):
                r.switch_acted.add(key)
                self._originate(node, ROUTE_SWITCH, ROUTE_SWITCH_PAYLOAD, hop[0])
        rt.note_recent_hop(r, pid, tx_uid, next_hop)
        self._maybe_arm(node, packet, tx_uid)

    def _maybe_arm(self, node: Node, packet: Packet, tx_uid: int) -> None:
        if not self.standby_enabled:
            return
        r = node.route
        pid = packet.packet_id
        if pid in r.forwarded_ids:
            return
        # an overheard hop names a planned node (one that names none took
        # the addressed path in _deliver_data); a gateway never forwards
        addressee = packet.next_hop
        if self.nodes[addressee].is_gateway or not rt.should_arm(r, tx_uid, addressee):
            return
        mac = self.scenario.mac
        deadline = self.queue.now + self.rng.uniform(
            node.uid, "standby", mac.standby_min_s, mac.standby_max_s
        )
        evicted = rt.arm_monitor(r, pid, tx_uid, addressee, deadline, packet)
        if evicted is not None:
            self._emit(STANDBY_CANCELLED, node.uid, pkt=evicted)
        self._emit(STANDBY_ARMED, node.uid, pkt=pid, peer=tx_uid)
        self.queue.push(deadline, self._ev_standby, (node, pid, deadline))

    def _ev_standby(self, node: Node, pid: int, deadline: float) -> None:
        if node.ledger.dead:
            return
        mon = node.route.monitors.get(pid)
        if mon is None or mon.fired or mon.deadline != deadline:
            return
        mon.fired = True
        if pid in node.route.forwarded_ids:
            return
        self._emit(STANDBY_FIRED, node.uid, pkt=pid, peer=mon.overheard_from)
        self._forward(node, mon.packet)

    def _forward(self, node: Node, packet: Packet) -> None:
        r = node.route
        r.forwarded_ids.add(packet.packet_id)
        level = node.ledger.level
        piggy = None
        if level < r.last_announced_level:
            piggy = level
            r.last_announced_level = level
        self._enqueue(node, packet.rehop(r.upstream_current, piggy))

    # ------------------------------------------------------------------
    # learning phase

    def _ev_send_control(self, node: Node, kind: int) -> None:
        """A live node originates its control flood of ``kind``: a beacon,
        its neighbor reports, or the planned table chunks."""
        if node.ledger.dead:
            return
        if kind == BEACON:
            frames = ((BEACON_PAYLOAD, ()),)
        elif kind == NEIGHBOR_REPORT:
            frames = build_report_chunks(node.ntable.entries())
        else:
            frames = self.chunks
        for payload_bytes, body in frames:
            self._originate(node, kind, payload_bytes, body=body)

    def _ev_server_plan(self) -> None:
        # in arrival order: aggregate_reports sorts what it merges
        reports = {origin: list(rows.items()) for origin, rows in self.report_rows.items()}
        for gw in sorted(self.topology.gateways):
            reports[gw] = self.nodes[gw].ntable.entries()
        try:
            self.graph = plan(reports, sorted(self.topology.gateways))
            self.chunks = emit_chunks(self.graph)
        except PlannerError as exc:
            # no chunks to send: the chunk rounds send nothing
            self.graph = None
            self.plan_error = exc

    def _ev_switchover(self) -> None:
        for uid in sorted(self.topology.repeaters):
            node = self.nodes[uid]
            own = node.learned.get(uid)
            if own is not None:
                values = {n: row[1] for n, row in node.learned.items() if n != uid}
                node.route.install(own[1], own[2], values)

    # ------------------------------------------------------------------
    # run loop

    def run(self) -> RunResult:
        self._bootstrap()
        horizon = self.scenario.horizon_s
        queue = self.queue
        heap = queue.heap
        batch = self._batch
        limit = tr.BATCH_EVENTS
        hit_horizon = False
        try:
            # pop is looked up per event: a hook on the instance may replace it
            while heap:
                if horizon is not None and queue.peek_time() > horizon:
                    hit_horizon = True
                    break
                fn, args = queue.pop()
                fn(*args)
                if len(batch) >= limit:
                    self._flush()
        finally:
            # a partial batch is waiting; a failed run keeps it too
            self._flush()
        end = horizon if hit_horizon else queue.now
        return RunResult(self.builder.finalize(end, self.trace.hexdigest()))
