"""Naive references for the simulator's fast paths.

Each class here states one rule the slow, obvious way:

- ``ScanChecked`` checks every carrier sense and reception outcome
  against a scan of every frame on air so far;
- ``EveryChargeLedger`` recomputes the battery level after every
  charge;
- ``OrderedDictDedup`` keeps the dedup cache in an ``OrderedDict``.

``NaiveSimulation`` runs all three at once on a whole network. A new
fast path proves itself by adding its naive twin here.
"""

from collections import Counter, OrderedDict

from loramesh import trace as tr
from loramesh.channel import captures
from loramesh.energy import EnergyLedger
from loramesh.model import MESH_CHANNEL, quantize_battery
from loramesh.simulation import Simulation

RECEPTION_KINDS = (tr.RX_OK, tr.RX_COLLIDED, tr.RX_BELOW_SENS, tr.DROPPED_BUSY_TX)


class ScanChecked(Simulation):
    """Checks every carrier sense and every reception outcome against the
    network-wide scan: every frame on air so far, filtered by what the
    receiver hears, with no per-receiver index and nothing pruned."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # every frame begun, in begin order, as (sender, channel, t0, t1)
        self.frames: list[tuple[int, int, float, float]] = []
        self.audible: dict[int, dict[int, float]] = {uid: {} for uid in self.nodes}
        for tx, sender in self.nodes.items():
            for node, p in sender.row:
                if p is not None:
                    self.audible[node.uid][tx] = p
        self.seen = Counter()

    def _begin_tx(self, node, packet) -> None:
        super()._begin_tx(node, packet)
        trans = node.last
        # the premise of the two-frame rule: a node's frames never overlap,
        # begin in order, and all go out on one channel
        for tx, c, _a, b in reversed(self.frames):
            if tx == node.uid:
                assert trans.t0 >= b and c == node.channel
                break
        self.frames.append((node.uid, node.channel, trans.t0, trans.t1))

    def _mesh_busy(self, node) -> bool:
        now = self.queue.now
        heard = self.audible[node.uid]
        expected = any(
            ch == MESH_CHANNEL and t0 <= now < t1 and tx in heard
            for tx, ch, t0, t1 in self.frames
        )
        busy = super()._mesh_busy(node)
        assert busy == expected
        self.seen["busy" if busy else "idle"] += 1
        return busy

    def _ev_tx_end(self, trans) -> None:
        sender, t0, t1 = trans.sender, trans.t0, trans.t1
        ch = sender.channel
        uid = sender.uid
        # the premise of the one billing rule: a live sender's frame, as it
        # is billed, starts at or after everything its ledger has billed
        ledger = sender.ledger
        if not ledger.dead:
            assert self.queue.now - (t1 - t0) >= ledger.charged_until
        expected = []
        rival = False
        for node, p in sender.row:
            if node.ledger.dead:
                continue
            peer = node.uid
            if p is None:
                kind = tr.RX_BELOW_SENS
            elif any(tx == peer and a < t1 and b > t0 for tx, _c, a, b in self.frames):
                kind = tr.DROPPED_BUSY_TX
            else:
                heard = self.audible[peer]
                rivals = [
                    heard[tx]
                    for tx, c, a, b in self.frames
                    if c == ch and a < t1 and b > t0 and (tx, a) != (uid, t0) and tx in heard
                ]
                strongest = max(rivals) if rivals else None
                rival = rival or strongest is not None
                ok = captures(p, strongest, self.capture)
                kind = tr.RX_OK if ok else tr.RX_COLLIDED
            expected.append((kind, peer))
        batch = self.trace.batch
        start = len(batch)
        super()._ev_tx_end(trans)
        pid = trans.packet.packet_id
        got = [
            (ev[tr.KIND], ev[tr.NODE])
            for ev in batch[start:]
            if ev[tr.KIND] in RECEPTION_KINDS and ev[tr.PKT] == pid and ev[tr.PEER] == uid
        ]
        assert got == expected
        self.seen.update(kind for kind, _peer in got)
        # whether some decoding peer had an overlapping rival
        self.seen["rival" if rival else "clear"] += 1


class EveryChargeLedger(EnergyLedger):
    """The naive form of the billing rule. Every charge bills its idle gap
    and its window through ``_consume``, which recomputes the level after
    every call."""

    def charge(self, t0, t1, rate):
        until = self.charged_until
        if self.dead or t1 <= until:
            return
        start = max(t0, until)
        self._consume(self.idle_rate, start - until, start)
        self._consume(rate, t1 - start, t1)
        self.charged_until = t1

    def _consume(self, rate, duration, t_end):
        if self.dead or duration <= 0.0:
            return
        used = rate * duration
        start_remaining = self.remaining
        t_start = t_end - duration
        if used >= start_remaining and rate > 0.0:
            self._record_crossings(start_remaining, 0.0, t_start, rate)
            self.remaining = 0.0
            self.dead = True
            self.death_time = t_start + start_remaining / used * duration
            self.level = 0
            self.history.append((self.death_time, 0))
            return
        self.remaining = start_remaining - used
        new_level = quantize_battery(self.remaining, self.capacity)
        if new_level < self.level:
            self._record_crossings(start_remaining, self.remaining, t_start, rate)
            self.level = new_level


class OrderedDictDedup:
    """The reference cache: an OrderedDict of id -> insertion time."""

    def __init__(self, ttl_s: float, capacity: int) -> None:
        self.ttl_s = ttl_s
        self.capacity = capacity
        self.entries: OrderedDict[int, float] = OrderedDict()

    def seen(self, packet_id: int, now: float) -> bool:
        cutoff = now - self.ttl_s
        while self.entries:
            pid, stamp = next(iter(self.entries.items()))
            if stamp > cutoff:
                break
            del self.entries[pid]
        if packet_id in self.entries:
            return True
        self.entries[packet_id] = now
        if len(self.entries) > self.capacity:
            self.entries.popitem(last=False)
        return False


class NaiveSimulation(ScanChecked):
    """Every naive path at once: the scan checks reception and carrier
    sense, and each node bills an ``EveryChargeLedger`` (the one the
    metrics report) and each repeater dedups with an ``OrderedDictDedup``
    (no other node holds a dedup cache)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        energy = self.scenario.energy
        mac = self.scenario.mac
        for uid, node in self.nodes.items():
            ledger = EveryChargeLedger(energy, node.ledger.capacity)
            node.ledger = self.builder.ledgers[uid] = ledger
            if node.is_repeater:
                node.dedup = OrderedDictDedup(mac.dedup_ttl_s, mac.dedup_capacity)
