"""Run metrics derived purely from the event stream.

The builder reconstructs everything reported about a run from the event
tuples the simulation emits, in emission order: delivery and loss
accounting, latency statistics, per-node duty cycle, and the energy
ledger per node. A live simulation hands these ledgers to its nodes and
bills them itself, where energy is spent (each decoded or collided frame
at its end, each own transmission just before ``TX_END``), so the
battery levels the protocol acts on are the ones reported. Everything
else is derived by ``account``, once per batch of events, just before
the trace writer packs that batch; nothing in it depends on where the
batches split. ``feed`` replays one event: it bills the ledger the way
the live run does, from the charge window the event encodes (``t - dur``
to ``t``), then accounts the event. Because nothing here peeks at
simulator internals, the identical metrics can be recomputed later from
an exported trace file with ``feed``, which is also how the trace format
is validated: ``recompute_from_trace`` decodes the packed records, feeds
them and packs them again for the digest.
"""

from __future__ import annotations

import csv
import math

from . import trace as tr
from .energy import EnergyLedger
from .scenario import END_DEVICE, GATEWAY, REPEATER, Scenario

class MetricsBuilder:
    def __init__(self, scenario: Scenario, seed: int) -> None:
        self.scenario = scenario
        self.seed = seed
        topo = scenario.topology
        self.roles = {uid: spec.role for uid, spec in topo.nodes.items()}
        self.ledgers: dict[int, EnergyLedger] = {}
        for uid in sorted(topo.nodes):
            role = self.roles[uid]
            capacity = None
            if role == GATEWAY:
                capacity = scenario.energy.gateway_capacity_mah
            elif role == END_DEVICE:
                capacity = scenario.energy.ed_capacity_mah
            self.ledgers[uid] = EnergyLedger(scenario.energy, capacity)
        self.generated: dict[int, tuple[float, int]] = {}
        self.delivered: dict[int, float] = {}
        self.ingress_heard: set[int] = set()
        self.tx_s = {uid: 0.0 for uid in self.ledgers}
        self.counts = [0] * len(tr.COUNT_KEYS)

    def account(self, events) -> None:
        """Count a batch of events, in emission order; bills nothing."""
        counts = self.counts
        generated = self.generated
        roles = self.roles
        for t, kind, node, pkt, peer, dur, _ch in events:
            counts[kind] += 1
            if kind == tr.RX_OK:
                gen = generated.get(pkt)
                if gen is not None and gen[1] == peer and roles[node] != END_DEVICE:
                    self.ingress_heard.add(pkt)
            elif kind == tr.TX_END:
                self.tx_s[node] += dur
            elif kind == tr.GENERATED:
                generated[pkt] = (t, node)
            elif kind == tr.DELIVERED:
                if pkt not in self.delivered:
                    self.delivered[pkt] = t

    def feed(self, ev: tuple) -> None:
        """Replay one event: bill its charge window as the live run did, then account it."""
        t, kind, node, _pkt, _peer, dur, _ch = ev
        if kind == tr.RX_OK or kind == tr.RX_COLLIDED:
            self.ledgers[node].charge_rx(t - dur, t)
        elif kind == tr.TX_END:
            self.ledgers[node].charge_tx(t - dur, t)
        self.account((ev,))

    def finalize(self, end_time: float, trace_digest: str | None = None) -> dict:
        for uid in sorted(self.ledgers):
            self.ledgers[uid].finalize(end_time)

        latencies = sorted(
            (self.delivered[pid] - self.generated[pid][0]) * 1000.0
            for pid in self.delivered
            if pid in self.generated
        )
        latency = None
        if latencies:
            n = len(latencies)
            mid = n // 2
            median = latencies[mid] if n % 2 else (latencies[mid - 1] + latencies[mid]) / 2.0
            p95 = latencies[max(0, math.ceil(0.95 * n) - 1)]
            latency = {
                "mean": sum(latencies) / n,
                "median": median,
                "p95": p95,
            }

        initial_ed = 0
        intermediate = 0
        for pid in self.generated:
            if pid in self.delivered:
                continue
            if pid in self.ingress_heard:
                intermediate += 1
            else:
                initial_ed += 1

        span = end_time if end_time > 0 else 1.0
        duty = {str(uid): self.tx_s[uid] / span * 100.0 for uid in sorted(self.tx_s)}
        energy = {str(uid): self.ledgers[uid].consumed_mah for uid in sorted(self.ledgers)}
        battery = {str(uid): self.ledgers[uid].level for uid in sorted(self.ledgers)}
        deaths = [
            ledger.death_time for ledger in self.ledgers.values() if ledger.death_time is not None
        ]

        metrics = {
            "scenario": self.scenario.name,
            "protocol": self.scenario.protocol,
            "seed": self.seed,
            "end_time_s": end_time,
            "generated": len(self.generated),
            "delivered": len(self.delivered),
            "pdr": len(self.delivered) / len(self.generated) if self.generated else None,
            "losses": {"initial_ed": initial_ed, "intermediate": intermediate},
            "latency_ms": latency,
            "duty_cycle_pct": duty,
            "energy_mah": energy,
            "battery_level": battery,
            "total_energy_mah": sum(self.ledgers[uid].consumed_mah for uid in self.ledgers),
            "repeater_energy_mah": sum(
                self.ledgers[uid].consumed_mah
                for uid in self.ledgers
                if self.roles[uid] == REPEATER
            ),
            "network_lifetime_s": min(deaths) if deaths else None,
            "throughput": {
                "offered_pkt_per_s": len(self.generated) / span,
                "delivered_pkt_per_s": len(self.delivered) / span,
            },
            "counts": dict(zip(tr.COUNT_KEYS, self.counts)),
        }
        if trace_digest is not None:
            metrics["trace_sha256"] = trace_digest
        return metrics


def recompute_from_trace(scenario: Scenario, seed: int, trace_path, end_time: float) -> dict:
    """Rebuild the metrics dict for a finished run from its trace file.

    Matches the live run byte for byte when serialized with sorted keys,
    digest included, because the builder sees the same events in the
    same order.
    """
    builder = MetricsBuilder(scenario, seed)
    digest = tr.TraceWriter()
    for ev in tr.read_records(trace_path):
        builder.feed(ev)
        digest.add(ev)
    return builder.finalize(end_time, digest.hexdigest())


def write_battery_csv(path, builder: MetricsBuilder) -> None:
    """Level-change history for every node, one row per crossing."""
    rows = []
    for uid in sorted(builder.ledgers):
        for t, level in builder.ledgers[uid].history:
            rows.append((t, uid, level))
    rows.sort(key=lambda r: (r[0], r[1], -r[2]))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s", "uid", "level"])
        for t, uid, level in rows:
            writer.writerow([repr(t), uid, level])
